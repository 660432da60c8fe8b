/**
 * @file
 * Internal machinery of the simulator (dataflow_sim.cc front-end,
 * engine.cc event loop). Not installed; include only from src/sim.
 *
 * A run is validated and precomputed once into an immutable SimSetup,
 * then executed over a mutable RunState by the serial event loop.
 * Results are deterministic because events are totally ordered by
 * (time, edge, per-edge seq) and every floating-point reduction
 * (makespan, busy sums, byte totals) happens in finalizeResult() in a
 * fixed iteration order, never in arrival order.
 */

#ifndef TAPACS_SIM_ENGINE_HH
#define TAPACS_SIM_ENGINE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/dataflow_sim.hh"
#include "sim/server.hh"

namespace tapacs::sim::detail
{

/** Per-edge constants precomputed once in buildSetup(). */
struct EdgeConst
{
    enum Kind : std::uint8_t
    {
        Local,     ///< same device: fixed FIFO latency
        IntraNode, ///< same node: netPort + store-and-forward hops
        CrossNode, ///< different nodes: serialized host-routed pipe
    };

    Kind kind = Local;
    VertexId src = -1, dst = -1;
    DeviceId sdev = -1, ddev = -1;
    /** Consumer firings per arriving token (>0), or -(producer blocks
     *  needed per firing) when the consumer runs coarser. */
    int credit = 1;
    /** Payload of one token (edge.totalBytes / producer blocks). */
    double bytesPerToken = 0.0;
    /** Local: (stages + balanceDepth) / fmax. */
    Seconds localLatency = 0.0;
    /** IntraNode: per-hop wire occupancy. CrossNode: the serialized
     *  three-leg host path occupancy. */
    Seconds occ = 0.0;
    /** IntraNode only: store-and-forward flight latency. */
    Seconds flight = 0.0;
    /** Flattened server index: sdev*D+ddev (IntraNode netPort) or
     *  snode*N+dnode (CrossNode nodeLink). */
    int port = -1;
};

/**
 * Validated, immutable precomputation for one simulate() call:
 * adjacency in CSR form, per-vertex durations, per-edge constants.
 * Borrowed pointers must outlive the run.
 */
struct SimSetup
{
    const TaskGraph *g = nullptr;
    const HbmBinding *binding = nullptr;
    const SimOptions *options = nullptr;

    int n = 0;          ///< vertices
    int numEdges = 0;
    int numDevices = 0;
    int numNodes = 0;
    int channels = 0;   ///< HBM channels per device

    std::vector<double> readPerChannel, writePerChannel, computeDur;
    std::vector<int> blocksOf;
    std::vector<DeviceId> deviceOf;

    /** CSR adjacency: in/out edge ids of vertex v live at
     *  [inOff[v], inOff[v+1]) of inEdge (resp. outOff/outEdge). */
    std::vector<int> inOff, outOff;
    std::vector<EdgeId> inEdge, outEdge;

    std::vector<EdgeConst> edges;
    std::vector<int> initialTokens; ///< per edge, consumer-firing units

    /** Compiled fault plan (the run borrows the pointer). */
    std::optional<FaultInjector> injector;
    std::vector<DeviceId> deadDevices;
};

/**
 * Validate inputs and precompute @p setup. Returns the typed errors
 * the old simulate() used to fatal() on: non-integral rate ratios and
 * memory-without-channels are InvalidInput, as are structural
 * problems (graph validation, size mismatches, bad channel indices).
 */
Status buildSetup(const TaskGraph &g, const Cluster &cluster,
                  const DevicePartition &partition,
                  const HbmBinding &binding, const PipelinePlan &plan,
                  const std::vector<Hertz> &deviceFmax,
                  const SimOptions &options, SimSetup *setup);

/** Mutable per-device state: a device's HBM channels, its outgoing
 *  transport, and what its tasks have produced so far. */
struct Shard
{
    std::vector<Server> hbm; ///< one per channel of this device
    /** Sender-side transport for this device's outgoing intra-node
     *  messages (engaged only under fault injection). Outcomes are
     *  pure functions of the injector, so sharding the transport
     *  per sender changes no per-message result. */
    std::optional<ReliableTransport> transport;
    Seconds makespan = 0.0;
    std::uint64_t processed = 0; ///< events popped for this device
    std::vector<FiringRecord> timeline;
};

/** Mutable state of one run. */
struct RunState
{
    std::vector<Shard> shards;

    // Vertex-indexed.
    std::vector<Server> datapath;
    std::vector<int> fired;
    std::vector<Seconds> taskFinish;

    // Edge-indexed.
    std::vector<int> tokens, rawArrivals;
    std::vector<std::uint64_t> emitSeq;
    std::vector<std::int64_t> delivered;
    std::vector<EdgeCommStats> edgeComm;

    /** Dense D*D device-pair ports. */
    std::vector<Server> netPort;
    /** Dense N*N node-pair pipes. */
    std::vector<Server> nodeLink;
    /** Transport for cross-node messages. */
    std::optional<ReliableTransport> crossTransport;
    Seconds crossMakespan = 0.0;

    /** Why the run stopped early (deadline/cancel/event cap); Ok for
     *  a run that drained its event queue. */
    Status status;
};

void initRunState(const SimSetup &S, RunState *R);

/** Run the event loop to completion (or until ctx/cap aborts it,
 *  recorded in R.status). */
void runEventLoop(const SimSetup &S, RunState &R);

/** Fold RunState into the caller-visible SimResult: order-fixed
 *  reductions, rate-consistency check, stats registry. */
void finalizeResult(const SimSetup &S, RunState &R, SimResult *out);

/** Publish per-resource gauges (tapacs.sim.*) for the finished run. */
void exportSimMetrics(const SimSetup &S, const RunState &R);

} // namespace tapacs::sim::detail

#endif // TAPACS_SIM_ENGINE_HH
