#include "sim/engine.hh"

#include <algorithm>
#include <queue>

#include "common/logging.hh"
#include "network/cluster.hh"
#include "obs/metrics.hh"

namespace tapacs::sim::detail
{

Status
buildSetup(const TaskGraph &g, const Cluster &cluster,
           const DevicePartition &partition, const HbmBinding &binding,
           const PipelinePlan &plan,
           const std::vector<Hertz> &deviceFmax,
           const SimOptions &options, SimSetup *setup)
{
    Status st = g.validateStatus();
    if (!st.ok())
        return st;

    const int n = g.numVertices();
    const int numEdges = g.numEdges();
    const int numDevices = cluster.numDevices();
    if (static_cast<int>(partition.deviceOf.size()) != n) {
        return Status::invalidInput(
            "partition assigns %d tasks but the graph has %d",
            static_cast<int>(partition.deviceOf.size()), n);
    }
    if (static_cast<int>(deviceFmax.size()) != numDevices) {
        return Status::invalidInput(
            "deviceFmax has %d entries for %d devices",
            static_cast<int>(deviceFmax.size()), numDevices);
    }
    for (Hertz f : deviceFmax) {
        if (!(f > 0.0))
            return Status::invalidInput(
                "deviceFmax entries must be positive, got %g", f);
    }
    if (static_cast<int>(binding.channelsOf.size()) != n) {
        return Status::invalidInput(
            "HBM binding covers %d tasks but the graph has %d",
            static_cast<int>(binding.channelsOf.size()), n);
    }
    if (static_cast<int>(plan.edges.size()) != numEdges) {
        return Status::invalidInput(
            "pipeline plan covers %d edges but the graph has %d",
            static_cast<int>(plan.edges.size()), numEdges);
    }
    for (VertexId v = 0; v < n; ++v) {
        const DeviceId d = partition.deviceOf[v];
        if (d < 0 || d >= numDevices)
            return Status::invalidInput(
                "task '%s' is assigned to device %d of %d",
                g.vertex(v).name.c_str(), d, numDevices);
    }
    for (const auto &e : g.edges()) {
        const int sb = g.vertex(e.src).work.numBlocks;
        const int db = g.vertex(e.dst).work.numBlocks;
        if (sb % db != 0 && db % sb != 0) {
            return Status::invalidInput(
                "edge %s->%s has non-integral rate ratio "
                "(%d vs %d blocks)", g.vertex(e.src).name.c_str(),
                g.vertex(e.dst).name.c_str(), sb, db);
        }
    }
    const MemorySystem &mem = cluster.device().memory();
    for (VertexId v = 0; v < n; ++v) {
        const WorkProfile &w = g.vertex(v).work;
        if ((w.memReadBytes > 0.0 || w.memWriteBytes > 0.0) &&
            w.memChannels == 0) {
            return Status::invalidInput(
                "task '%s' accesses external memory but binds no "
                "channels", g.vertex(v).name.c_str());
        }
        for (int c : binding.channelsOf[v]) {
            if (c < 0 || c >= mem.channels)
                return Status::invalidInput(
                    "task '%s' binds HBM channel %d of %d",
                    g.vertex(v).name.c_str(), c, mem.channels);
        }
    }

    setup->g = &g;
    setup->binding = &binding;
    setup->options = &options;
    setup->n = n;
    setup->numEdges = numEdges;
    setup->numDevices = numDevices;
    setup->numNodes = cluster.numNodes();
    setup->channels = mem.channels;

    // Per-task per-block durations.
    setup->readPerChannel.assign(n, 0.0);
    setup->writePerChannel.assign(n, 0.0);
    setup->computeDur.assign(n, 0.0);
    setup->blocksOf.assign(n, 1);
    setup->deviceOf = partition.deviceOf;
    for (VertexId v = 0; v < n; ++v) {
        const WorkProfile &w = g.vertex(v).work;
        const double blocks = w.numBlocks;
        const Hertz fmax = deviceFmax[partition.deviceOf[v]];
        setup->blocksOf[v] = w.numBlocks;
        setup->computeDur[v] =
            w.computeOps / blocks / (w.opsPerCycle * fmax);
        if (w.memChannels > 0) {
            // A kernel port moves at most width x clock bytes/s; only
            // ports at the saturating width running at speed reach the
            // full per-channel bandwidth (the paper's 256-bit ports
            // saturate ~51 % of an HBM bank).
            const double port_rate = w.memPortWidthBits / 8.0 * fmax;
            const double bw =
                std::min(mem.perChannelBandwidth(), port_rate);
            setup->readPerChannel[v] =
                w.memReadBytes / blocks / w.memChannels / bw;
            setup->writePerChannel[v] =
                w.memWriteBytes / blocks / w.memChannels / bw;
        }
    }

    // CSR adjacency (kills the per-firing inEdges()/outEdges() walks
    // over std::vector<std::vector<EdgeId>> the old loop paid).
    setup->inOff.assign(n + 1, 0);
    setup->outOff.assign(n + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
        setup->inOff[v + 1] =
            setup->inOff[v] + static_cast<int>(g.inEdges(v).size());
        setup->outOff[v + 1] =
            setup->outOff[v] + static_cast<int>(g.outEdges(v).size());
    }
    setup->inEdge.reserve(setup->inOff[n]);
    setup->outEdge.reserve(setup->outOff[n]);
    for (VertexId v = 0; v < n; ++v) {
        for (EdgeId e : g.inEdges(v))
            setup->inEdge.push_back(e);
        for (EdgeId e : g.outEdges(v))
            setup->outEdge.push_back(e);
    }

    // Per-edge constants.
    setup->edges.assign(numEdges, EdgeConst{});
    setup->initialTokens.assign(numEdges, 0);
    for (EdgeId e = 0; e < numEdges; ++e) {
        const Edge &edge = g.edge(e);
        EdgeConst &ec = setup->edges[e];
        ec.src = edge.src;
        ec.dst = edge.dst;
        ec.sdev = partition.deviceOf[edge.src];
        ec.ddev = partition.deviceOf[edge.dst];
        const int sb = g.vertex(edge.src).work.numBlocks;
        const int db = g.vertex(edge.dst).work.numBlocks;
        // SDF-style rates in consumer-firing units: an arriving
        // producer block is worth db/sb firings when db > sb; when
        // sb > db a firing needs sb/db producer blocks, expressed as
        // a negative "need" count (applyArrival divides).
        ec.credit = db >= sb ? db / sb : -(sb / db);
        setup->initialTokens[e] =
            edge.initialTokens * (ec.credit > 0 ? ec.credit : 1);
        ec.bytesPerToken = edge.totalBytes / sb;
        if (ec.sdev == ec.ddev) {
            ec.kind = EdgeConst::Local;
            const int cycles =
                plan.edges[e].stages + plan.edges[e].balanceDepth;
            ec.localLatency = cycles / deviceFmax[ec.sdev];
            continue;
        }
        if (cluster.sameNode(ec.sdev, ec.ddev)) {
            ec.kind = EdgeConst::IntraNode;
            const LinkModel &link = cluster.intraLink();
            const int hops = cluster.nodeTopology().dist(
                cluster.localIndex(ec.sdev),
                cluster.localIndex(ec.ddev));
            ec.occ = std::max(0.0, link.transferTime(ec.bytesPerToken) -
                                       link.baseLatency());
            ec.flight =
                hops * link.baseLatency() + (hops - 1) * ec.occ;
            ec.port = ec.sdev * numDevices + ec.ddev;
        } else {
            // dev -> host (PCIe), host -> host (MPI), host -> dev.
            // The hand-off is staged through host memory buffers, so
            // the three legs occupy the node-pair path serially and
            // consecutive blocks do not overlap on it — this is why
            // section 5.7's cross-node designs lose most of their
            // scaling.
            ec.kind = EdgeConst::CrossNode;
            const LinkModel &host = cluster.hostLink();
            const LinkModel &inode = cluster.interNodeLink();
            ec.occ = host.transferTime(ec.bytesPerToken) +
                     inode.transferTime(ec.bytesPerToken) +
                     host.transferTime(ec.bytesPerToken);
            ec.port = cluster.nodeOf(ec.sdev) * setup->numNodes +
                      cluster.nodeOf(ec.ddev);
        }
    }

    if (options.faults != nullptr && !options.faults->empty()) {
        setup->injector.emplace(*options.faults, numDevices);
        setup->deadDevices = setup->injector->scheduledDeaths();
    }
    return Status();
}

void
initRunState(const SimSetup &S, RunState *R)
{
    R->shards.resize(S.numDevices);
    for (DeviceId d = 0; d < S.numDevices; ++d) {
        Shard &sh = R->shards[d];
        sh.hbm.assign(S.channels, Server{});
        if (S.injector)
            sh.transport.emplace(S.options->transport, &*S.injector);
    }
    R->datapath.assign(S.n, Server{});
    R->fired.assign(S.n, 0);
    R->taskFinish.assign(S.n, 0.0);
    R->tokens = S.initialTokens;
    R->rawArrivals.assign(S.numEdges, 0);
    R->emitSeq.assign(S.numEdges, 0);
    R->delivered.assign(S.numEdges, 0);
    R->edgeComm.assign(S.numEdges, EdgeCommStats{});
    R->netPort.assign(S.numDevices * S.numDevices, Server{});
    R->nodeLink.assign(S.numNodes * S.numNodes, Server{});
    if (S.injector)
        R->crossTransport.emplace(S.options->transport, &*S.injector);
}

namespace
{

/** Total order on token arrivals: time, then edge id, then the
 *  per-edge emission ordinal. */
struct EventKey
{
    Seconds time = 0.0;
    EdgeId edge = -1;
    std::uint64_t seq = 0;
};

inline bool
operator<(const EventKey &a, const EventKey &b)
{
    if (a.time != b.time)
        return a.time < b.time;
    if (a.edge != b.edge)
        return a.edge < b.edge;
    return a.seq < b.seq;
}

inline bool
operator>(const EventKey &a, const EventKey &b)
{
    return b < a;
}

using MinHeap = std::priority_queue<EventKey, std::vector<EventKey>,
                                    std::greater<EventKey>>;

/** Book one delivered token on edge @p e into the dst's counters. */
inline void
applyArrival(const SimSetup &S, RunState &R, EdgeId e)
{
    const EdgeConst &ec = S.edges[e];
    if (ec.credit > 0) {
        R.tokens[e] += ec.credit;
    } else if (++R.rawArrivals[e] % (-ec.credit) == 0) {
        // need-|credit| edge: every |credit|-th raw arrival enables
        // one consumer firing.
        ++R.tokens[e];
    }
}

/**
 * Send one cross-node emission on edge @p e, written back at
 * @p writeDone: serialize on the node-pair pipe (through the reliable
 * transport when faults are injected) and, if the token survives,
 * push its arrival onto @p heap.
 */
inline void
sendCrossNode(const SimSetup &S, RunState &R, EdgeId e,
              Seconds writeDone, MinHeap &heap)
{
    const EdgeConst &ec = S.edges[e];
    Server &pipe = R.nodeLink[ec.port];
    Seconds arrival;
    if (R.crossTransport) {
        EdgeCommStats &st = R.edgeComm[e];
        const std::uint64_t mid =
            static_cast<std::uint64_t>(e) << 32 |
            static_cast<std::uint32_t>(st.messages);
        ++st.messages;
        const TransferOutcome tr = R.crossTransport->send(
            ec.sdev, ec.ddev, mid, writeDone, ec.occ, 0.0,
            [&pipe](Seconds s, Seconds d) { return pipe.acquire(s, d); });
        st.retries += tr.retries;
        st.timeouts += tr.timeouts;
        st.backoffSeconds += tr.backoffSeconds;
        st.linkDownWaitSeconds += tr.linkDownWaitSeconds;
        if (!tr.delivered) {
            ++st.undelivered;
            return;
        }
        arrival = tr.finishTime;
    } else {
        arrival = pipe.acquire(writeDone, ec.occ);
    }
    ++R.delivered[e];
    R.crossMakespan = std::max(R.crossMakespan, arrival);
    heap.push({arrival, e, R.emitSeq[e]++});
}

/**
 * Fire vertex @p v as many times as its input tokens allow, starting
 * at @p now — the simulator's per-firing semantics (read -> compute
 * -> write -> emit). Every delivered token's arrival is pushed onto
 * @p heap.
 */
inline void
fireVertex(const SimSetup &S, RunState &R, Shard &sh, VertexId v,
           Seconds now, MinHeap &heap)
{
    const DeviceId dev = S.deviceOf[v];

    // A killed device fires nothing from its death time onward;
    // blocks already in flight (started earlier) complete.
    if (S.injector && S.injector->deviceDead(dev, now))
        return;

    const int numBlocks = S.blocksOf[v];
    const std::vector<int> &channels = S.binding->channelsOf[v];
    while (R.fired[v] < numBlocks) {
        // All inputs must hold a token.
        bool ready = true;
        for (int i = S.inOff[v]; i < S.inOff[v + 1]; ++i) {
            if (R.tokens[S.inEdge[i]] == 0) {
                ready = false;
                break;
            }
        }
        if (!ready)
            break;
        for (int i = S.inOff[v]; i < S.inOff[v + 1]; ++i)
            --R.tokens[S.inEdge[i]];
        ++R.fired[v];

        // Read from external memory across bound channels.
        Seconds read_done = now;
        if (S.readPerChannel[v] > 0.0) {
            for (int c : channels) {
                read_done = std::max(
                    read_done,
                    sh.hbm[c].acquire(now, S.readPerChannel[v]));
            }
        }
        // Compute on the task datapath.
        const Seconds compute_done =
            R.datapath[v].acquire(read_done, S.computeDur[v]);
        // Write back.
        Seconds write_done = compute_done;
        if (S.writePerChannel[v] > 0.0) {
            for (int c : channels) {
                write_done = std::max(
                    write_done, sh.hbm[c].acquire(
                                    compute_done, S.writePerChannel[v]));
            }
        }
        R.taskFinish[v] = std::max(R.taskFinish[v], write_done);
        sh.makespan = std::max(sh.makespan, write_done);
        if (S.options->recordTimeline) {
            sh.timeline.push_back({v, R.fired[v] - 1, now, read_done,
                                   compute_done - S.computeDur[v],
                                   compute_done, write_done});
        }

        // Emit one token per out edge.
        for (int oi = S.outOff[v]; oi < S.outOff[v + 1]; ++oi) {
            const EdgeId e = S.outEdge[oi];
            const EdgeConst &ec = S.edges[e];
            if (ec.kind == EdgeConst::Local) {
                const Seconds arrival = write_done + ec.localLatency;
                sh.makespan = std::max(sh.makespan, arrival);
                ++R.delivered[e];
                heap.push({arrival, e, R.emitSeq[e]++});
            } else if (ec.kind == EdgeConst::IntraNode) {
                Server &port = R.netPort[ec.port];
                Seconds arrival;
                if (sh.transport) {
                    EdgeCommStats &st = R.edgeComm[e];
                    const std::uint64_t mid =
                        static_cast<std::uint64_t>(e) << 32 |
                        static_cast<std::uint32_t>(st.messages);
                    ++st.messages;
                    const TransferOutcome tr = sh.transport->send(
                        ec.sdev, ec.ddev, mid, write_done, ec.occ,
                        ec.flight, [&port](Seconds s, Seconds d) {
                            return port.acquire(s, d);
                        });
                    st.retries += tr.retries;
                    st.timeouts += tr.timeouts;
                    st.backoffSeconds += tr.backoffSeconds;
                    st.linkDownWaitSeconds += tr.linkDownWaitSeconds;
                    if (!tr.delivered) {
                        // The token dies with the link; only the
                        // FIFOs crossing it stall.
                        ++st.undelivered;
                        continue;
                    }
                    arrival = tr.finishTime;
                } else {
                    arrival = port.acquire(write_done, ec.occ) +
                              ec.flight;
                }
                sh.makespan = std::max(sh.makespan, arrival);
                ++R.delivered[e];
                heap.push({arrival, e, R.emitSeq[e]++});
            } else {
                sendCrossNode(S, R, e, write_done, heap);
            }
        }
    }
}

} // namespace

void
runEventLoop(const SimSetup &S, RunState &R)
{
    MinHeap heap;

    // Kick off the sources (and anything with zero inputs or initial
    // tokens) before any real time-0 arrival.
    for (VertexId v = 0; v < S.n; ++v)
        fireVertex(S, R, R.shards[S.deviceOf[v]], v, 0.0, heap);

    const Context &ctx = S.options->ctx;
    std::uint64_t processed = 0;
    while (!heap.empty()) {
        if ((processed & 0xFFF) == 0 && ctx.done()) {
            R.status = ctx.status();
            break;
        }
        if (processed >= S.options->maxEvents) {
            R.status = Status::resourceExhausted(
                "event cap exceeded (%llu) — check block counts",
                static_cast<unsigned long long>(S.options->maxEvents));
            break;
        }
        const EventKey ev = heap.top();
        heap.pop();
        ++processed;
        const VertexId dst = S.edges[ev.edge].dst;
        Shard &sh = R.shards[S.deviceOf[dst]];
        ++sh.processed;
        applyArrival(S, R, ev.edge);
        fireVertex(S, R, sh, dst, ev.time, heap);
    }
}

void
finalizeResult(const SimSetup &S, RunState &R, SimResult *out)
{
    const TaskGraph &g = *S.g;
    out->status = R.status;
    out->taskFinish = std::move(R.taskFinish);
    out->firedBlocks = R.fired;
    out->deadDevices = S.deadDevices;
    out->edgeComm = std::move(R.edgeComm);

    out->deviceTaskCount.assign(S.numDevices, 0);
    out->deviceComputeBusy.assign(S.numDevices, 0.0);
    for (VertexId v = 0; v < S.n; ++v) {
        const DeviceId d = S.deviceOf[v];
        ++out->deviceTaskCount[d];
        out->deviceComputeBusy[d] += S.computeDur[v] * R.fired[v];
    }

    Seconds makespan = R.crossMakespan;
    for (const Shard &sh : R.shards)
        makespan = std::max(makespan, sh.makespan);
    out->makespan = makespan;

    // Delivered-token byte totals, in edge order (never in arrival
    // order — the sum must not depend on the event interleaving).
    double bytes = 0.0;
    for (EdgeId e = 0; e < S.numEdges; ++e) {
        if (S.edges[e].kind != EdgeConst::Local)
            bytes += S.edges[e].bytesPerToken * R.delivered[e];
    }
    out->interDeviceBytes = bytes;

    // Every task must have completed all its blocks. Under fault
    // injection (or an aborted run) an incomplete result is the
    // expected graceful outcome and is reported; a healthy full run
    // that falls short means the graph is not rate-consistent.
    out->completed = out->status.ok();
    for (VertexId v = 0; v < S.n; ++v) {
        if (R.fired[v] == S.blocksOf[v])
            continue;
        out->completed = false;
        if (!S.injector && out->status.ok()) {
            out->status = Status::invalidInput(
                "task '%s' fired %d of %d blocks — insufficient "
                "upstream tokens (graph is not rate-consistent)",
                g.vertex(v).name.c_str(), R.fired[v], S.blocksOf[v]);
        }
    }

    if (S.options->recordTimeline) {
        out->timeline.clear();
        for (const Shard &sh : R.shards)
            out->timeline.insert(out->timeline.end(),
                                 sh.timeline.begin(),
                                 sh.timeline.end());
        std::sort(out->timeline.begin(), out->timeline.end(),
                  [](const FiringRecord &a, const FiringRecord &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      if (a.task != b.task)
                          return a.task < b.task;
                      return a.block < b.block;
                  });
    }

    std::uint64_t processed = 0;
    for (const Shard &sh : R.shards)
        processed += sh.processed;
    out->stats.set("events", static_cast<double>(processed));
    double hbm_busy = 0.0;
    for (const Shard &sh : R.shards) {
        for (const Server &s : sh.hbm)
            hbm_busy += s.busyTime();
    }
    out->stats.set("hbm.busy_seconds", hbm_busy);

    std::int64_t intra = 0, inter = 0, undelivered = 0;
    for (EdgeId e = 0; e < S.numEdges; ++e) {
        if (S.edges[e].kind == EdgeConst::IntraNode)
            intra += R.delivered[e];
        else if (S.edges[e].kind == EdgeConst::CrossNode)
            inter += R.delivered[e];
    }
    for (const EdgeCommStats &ec : out->edgeComm)
        undelivered += ec.undelivered;
    if (intra > 0)
        out->stats.set("net.intra.transfers",
                       static_cast<double>(intra));
    if (inter > 0)
        out->stats.set("net.inter.transfers",
                       static_cast<double>(inter));
    if (undelivered > 0)
        out->stats.set("net.undelivered",
                       static_cast<double>(undelivered));

    if (S.injector) {
        std::int64_t retries = 0, timeouts = 0, downWaits = 0;
        for (const Shard &sh : R.shards) {
            retries += sh.transport->totalRetries();
            timeouts += sh.transport->totalTimeouts();
            downWaits += sh.transport->totalLinkDownWaits();
        }
        retries += R.crossTransport->totalRetries();
        timeouts += R.crossTransport->totalTimeouts();
        downWaits += R.crossTransport->totalLinkDownWaits();
        out->stats.set("net.retries", static_cast<double>(retries));
        out->stats.set("net.timeouts", static_cast<double>(timeouts));
        out->stats.set("net.link_down_waits",
                       static_cast<double>(downWaits));
    }
}

namespace
{

/**
 * Publish one server's utilization to the process metrics registry
 * under `tapacs.sim.<resource>.{busy_seconds,wait_seconds,requests}`.
 * Servers that never served a request are skipped so the registry
 * holds only resources the run actually touched.
 */
void
exportServerMetrics(const std::string &resource, const Server &server)
{
    if (server.requests() == 0)
        return;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const std::string base = "tapacs.sim." + resource;
    reg.gauge(base + ".busy_seconds").set(server.busyTime());
    reg.gauge(base + ".wait_seconds").set(server.waitTime());
    reg.gauge(base + ".requests")
        .set(static_cast<double>(server.requests()));
}

} // namespace

void
exportSimMetrics(const SimSetup &S, const RunState &R)
{
    // Drop stale per-resource gauges from any earlier run: a server
    // idle this run would otherwise keep reporting the previous run's
    // busy/wait/request numbers.
    obs::MetricsRegistry::global().resetPrefix("tapacs.sim.");
    for (DeviceId d = 0; d < S.numDevices; ++d) {
        for (int c = 0; c < S.channels; ++c) {
            exportServerMetrics(strprintf("hbm.d%d.ch%d", d, c),
                                R.shards[d].hbm[c]);
        }
    }
    for (VertexId v = 0; v < S.n; ++v) {
        exportServerMetrics("task." + S.g->vertex(v).name,
                            R.datapath[v]);
    }
    for (DeviceId a = 0; a < S.numDevices; ++a) {
        for (DeviceId b = 0; b < S.numDevices; ++b) {
            exportServerMetrics(strprintf("net.d%d.d%d", a, b),
                                R.netPort[a * S.numDevices + b]);
        }
    }
    for (int a = 0; a < S.numNodes; ++a) {
        for (int b = 0; b < S.numNodes; ++b) {
            exportServerMetrics(
                strprintf("net.node%d.node%d", a, b),
                R.nodeLink[a * S.numNodes + b]);
        }
    }
}

} // namespace tapacs::sim::detail
