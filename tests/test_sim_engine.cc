/**
 * @file
 * Bit-exact pins for the simulator's event loop: the four paper
 * workloads, healthy and under the golden fault scenario, plus a
 * hand-placed chain across both nodes of an 8-FPGA testbed. Each case
 * pins the makespan's bits, a CRC-64 over every task's finish time,
 * the per-block timeline and the per-edge transport accounting, and
 * the processed-event count. Also covers the typed abort paths
 * (deadline, cancellation, event cap) and the trySimulate() error
 * taxonomy that replaced fatal() on request-reachable inputs.
 */

#include <cinttypes>
#include <cstring>

#include <gtest/gtest.h>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "common/crc64.hh"
#include "common/logging.hh"
#include "compiler/compiler.hh"
#include "network/faults.hh"
#include "sim/dataflow_sim.hh"

namespace tapacs
{
namespace
{

std::uint64_t
bitsOf(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** Fold one value's bytes into a running CRC-64. */
template <typename T>
void
mix(std::uint64_t *crc, const T &v)
{
    *crc = crc64(&v, sizeof v, *crc);
}

/** CRC-64 over taskFinish, the timeline and edgeComm, field by field
 *  (never over struct padding). */
std::uint64_t
resultCrc(const sim::SimResult &r)
{
    std::uint64_t crc = 0;
    for (Seconds t : r.taskFinish)
        mix(&crc, t);
    for (const sim::FiringRecord &f : r.timeline) {
        mix(&crc, f.task);
        mix(&crc, f.block);
        mix(&crc, f.start);
        mix(&crc, f.readDone);
        mix(&crc, f.computeStart);
        mix(&crc, f.computeDone);
        mix(&crc, f.writeDone);
    }
    for (const sim::EdgeCommStats &e : r.edgeComm) {
        mix(&crc, e.messages);
        mix(&crc, e.retries);
        mix(&crc, e.timeouts);
        mix(&crc, e.undelivered);
        mix(&crc, e.backoffSeconds);
        mix(&crc, e.linkDownWaitSeconds);
    }
    return crc;
}

/** One pinned run: makespan bits, result CRC, processed events. */
struct Pin
{
    const char *name;
    std::uint64_t makespanBits;
    std::uint64_t crc;
    std::uint64_t events;
};

void
expectPinned(const sim::SimResult &r, const Pin &pin)
{
    const std::uint64_t events =
        static_cast<std::uint64_t>(r.stats.get("events"));
    const std::uint64_t makespan = bitsOf(r.makespan);
    const std::uint64_t crc = resultCrc(r);
    EXPECT_TRUE(makespan == pin.makespanBits && crc == pin.crc &&
                events == pin.events)
        << "pin drifted; this run is\n"
        << strprintf("    {\"%s\", 0x%016" PRIx64 ", 0x%016" PRIx64
                     ", %" PRIu64 "},",
                     pin.name, makespan, crc, events);
}

/** The golden scenario of tools/tapacs_golden.cc. */
FaultPlan
goldenFaultPlan()
{
    FaultPlan plan(20260807);
    plan.degradeLink(0, 1, 0.0, 0.5)
        .dropLink(0, 1, 0.0, 0.02)
        .flapLink(0, 1, 1e-3, 2e-3);
    return plan;
}

/** One compiled placement, ready to simulate. */
struct CompiledDesign
{
    TaskGraph g{"x"};
    Cluster cluster = makePaperTestbed(2);
    DevicePartition partition;
    HbmBinding binding;
    PipelinePlan pipeline;
    std::vector<Hertz> deviceFmax;

    sim::SimResult
    run(const FaultPlan *faults) const
    {
        sim::SimOptions opt;
        opt.faults = faults;
        opt.exportMetrics = false;
        opt.recordTimeline = true;
        return sim::simulate(g, cluster, partition, binding, pipeline,
                             deviceFmax, opt);
    }
};

/** Compile under node budgets only, so the placement (and with it
 *  every pin) does not depend on host speed or load. */
CompiledDesign
compileApp(apps::AppDesign design, int fpgas)
{
    CompiledDesign out;
    out.g = std::move(design.graph);
    out.cluster = makePaperTestbed(fpgas);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = fpgas;
    opt.inter.solver.timeLimitSeconds = 0.0;
    opt.intra.solver.timeLimitSeconds = 0.0;
    const CompileResult r =
        compileProgram(out.g, design.tasks, out.cluster, opt);
    EXPECT_TRUE(r.routable) << r.failureReason;
    out.partition = r.partition;
    out.binding = r.binding;
    out.pipeline = r.pipeline;
    out.deviceFmax = r.deviceFmax;
    return out;
}

std::vector<std::pair<std::string, CompiledDesign>>
paperDesigns()
{
    std::vector<std::pair<std::string, CompiledDesign>> out;
    out.emplace_back("stencil",
                     compileApp(apps::buildStencil(
                                    apps::StencilConfig::scaled(64, 2)),
                                2));
    out.emplace_back(
        "pagerank",
        compileApp(apps::buildPageRank(apps::PageRankConfig::scaled(
                       apps::pagerankDatasets()[0], 2)),
                   2));
    out.emplace_back(
        "knn",
        compileApp(apps::buildKnn(apps::KnnConfig::scaled(1'000'000,
                                                          2, 2)),
                   2));
    apps::CnnConfig cnn;
    cnn.rows = 4;
    cnn.cols = 4;
    cnn.numFpgas = 2;
    cnn.batch = 4;
    cnn.numBlocks = 8;
    out.emplace_back("cnn", compileApp(apps::buildCnn(cnn), 2));
    return out;
}

/** Hand-placed pipeline across both nodes of an 8-FPGA testbed —
 *  exercises the cross-node pipes no 2-FPGA workload reaches. */
CompiledDesign
crossNodeChain()
{
    CompiledDesign out;
    out.g = TaskGraph("xnode");
    out.cluster = makePaperTestbed(8);
    const int tasks = 8;
    VertexId prev = -1;
    for (int i = 0; i < tasks; ++i) {
        WorkProfile w;
        w.computeOps = 2.0e6 + 1.0e5 * i;
        w.numBlocks = 16;
        const VertexId v =
            out.g.addVertex("t" + std::to_string(i), ResourceVector{},
                            w);
        out.partition.deviceOf.push_back(i); // device i: spans nodes
        if (prev >= 0)
            out.g.addEdge(prev, v, 64, 4.0e5);
        prev = v;
    }
    out.binding.channelsOf.assign(tasks, {});
    out.binding.usersPerChannel.assign(
        8, std::vector<int>(out.cluster.device().memory().channels, 0));
    out.pipeline.edges.assign(out.g.numEdges(), EdgePipelining{});
    out.pipeline.addedAreaPerDevice.assign(8, ResourceVector{});
    out.deviceFmax.assign(8, 300.0e6);
    return out;
}

const Pin kPaperPins[] = {
    {"stencil/healthy", 0x3fd6e3f399dad215, 0x8f21ce311410689a, 6336},
    {"stencil/faulted", 0x3fd6e623b2280f97, 0x3f08b3292de2c830, 6336},
    {"pagerank/healthy", 0x3f92f41dbfc65493, 0x80f01ab0aa0ce2c2, 720},
    {"pagerank/faulted", 0x3f92f61cb192734e, 0xb289d6dc6864a619, 720},
    {"knn/healthy", 0x3f29c08cbba547d0, 0xe4d2b832e0150125, 2304},
    {"knn/faulted", 0x3f300a7a15087629, 0x98118f53c0319a5a, 2304},
    {"cnn/healthy", 0x3f759d10d28684ef, 0x9158358c0b3441e6, 384},
    {"cnn/faulted", 0x3f78efb3a5964611, 0x05a6f1ef5230bd87, 384},
};

const Pin kCrossNodePins[] = {
    {"xnode/healthy", 0x3f897d3ea86aa620, 0x74bbc9b52c2ce67a, 112},
    {"xnode/faulted", 0x3f89a52128c35da6, 0x7d9dbe6061cbb02b, 112},
};

TEST(SerialSim, GoldenWorkloadsPinned)
{
    const FaultPlan plan = goldenFaultPlan();
    const Pin *pin = kPaperPins;
    for (const auto &[name, design] : paperDesigns()) {
        for (const FaultPlan *faults :
             {static_cast<const FaultPlan *>(nullptr), &plan}) {
            SCOPED_TRACE(pin->name);
            const sim::SimResult r = design.run(faults);
            EXPECT_TRUE(r.status.ok()) << r.status.toString();
            expectPinned(r, *pin++);
        }
    }
}

TEST(SerialSim, CrossNodeChainPinned)
{
    const CompiledDesign d = crossNodeChain();
    FaultPlan plan(20260807);
    plan.degradeLink(3, 4, 0.0, 0.5) // the node boundary
        .dropLink(3, 4, 0.0, 0.02)
        .jitterLink(0, 1, 0.0, 2e-6);
    const Pin *pin = kCrossNodePins;
    for (const FaultPlan *faults :
         {static_cast<const FaultPlan *>(nullptr),
          static_cast<const FaultPlan *>(&plan)}) {
        SCOPED_TRACE(pin->name);
        const sim::SimResult r = d.run(faults);
        EXPECT_TRUE(r.status.ok()) << r.status.toString();
        expectPinned(r, *pin++);
    }
}

TEST(SerialSim, DeadlineExceededIsTyped)
{
    const CompiledDesign d = crossNodeChain();
    sim::SimOptions opt;
    opt.exportMetrics = false;
    opt.ctx = Context::withTimeout(0.0); // already expired
    const StatusOr<sim::SimResult> r =
        sim::trySimulate(d.g, d.cluster, d.partition, d.binding,
                         d.pipeline, d.deviceFmax, opt);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().status.code(), StatusCode::DeadlineExceeded);
    EXPECT_FALSE(r.value().completed);
}

TEST(SerialSim, CancellationIsTyped)
{
    const CompiledDesign d = crossNodeChain();
    sim::SimOptions opt;
    opt.exportMetrics = false;
    opt.ctx = Context::cancellable();
    opt.ctx.cancel();
    const StatusOr<sim::SimResult> r =
        sim::trySimulate(d.g, d.cluster, d.partition, d.binding,
                         d.pipeline, d.deviceFmax, opt);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().status.code(), StatusCode::Cancelled);
}

TEST(SerialSim, EventCapIsTyped)
{
    const CompiledDesign d = crossNodeChain();
    sim::SimOptions opt;
    opt.exportMetrics = false;
    opt.maxEvents = 4;
    const StatusOr<sim::SimResult> r =
        sim::trySimulate(d.g, d.cluster, d.partition, d.binding,
                         d.pipeline, d.deviceFmax, opt);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().status.code(), StatusCode::ResourceExhausted);
    EXPECT_NE(r.value().status.message().find("event cap"),
              std::string::npos);
}

TEST(SerialSim, TrySimulateReturnsInvalidInputInsteadOfFatal)
{
    // Non-integral rate ratio: 3 blocks feeding 2.
    CompiledDesign d;
    d.g = TaskGraph("bad");
    d.cluster = makePaperTestbed(1);
    WorkProfile w3;
    w3.computeOps = 1e6;
    w3.numBlocks = 3;
    WorkProfile w2 = w3;
    w2.numBlocks = 2;
    const VertexId a = d.g.addVertex("a", ResourceVector{}, w3);
    const VertexId b = d.g.addVertex("b", ResourceVector{}, w2);
    d.g.addEdge(a, b, 32, 1e4);
    d.partition.deviceOf = {0, 0};
    d.binding.channelsOf.assign(2, {});
    d.binding.usersPerChannel.assign(
        1, std::vector<int>(d.cluster.device().memory().channels, 0));
    d.pipeline.edges.assign(1, EdgePipelining{});
    d.pipeline.addedAreaPerDevice.assign(1, ResourceVector{});
    d.deviceFmax.assign(1, 300.0e6);
    StatusOr<sim::SimResult> r =
        sim::trySimulate(d.g, d.cluster, d.partition, d.binding,
                         d.pipeline, d.deviceFmax, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(r.status().message().find("rate ratio"),
              std::string::npos);

    // Memory access with no bound channels.
    CompiledDesign m;
    m.g = TaskGraph("mem");
    m.cluster = makePaperTestbed(1);
    WorkProfile wm;
    wm.computeOps = 1e6;
    wm.numBlocks = 2;
    wm.memReadBytes = 1e6; // but memChannels == 0
    m.g.addVertex("m", ResourceVector{}, wm);
    m.partition.deviceOf = {0};
    m.binding.channelsOf.assign(1, {});
    m.binding.usersPerChannel.assign(
        1, std::vector<int>(m.cluster.device().memory().channels, 0));
    m.pipeline.edges.assign(0, EdgePipelining{});
    m.pipeline.addedAreaPerDevice.assign(1, ResourceVector{});
    m.deviceFmax.assign(1, 300.0e6);
    r = sim::trySimulate(m.g, m.cluster, m.partition, m.binding,
                         m.pipeline, m.deviceFmax, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(r.status().message().find("binds no channels"),
              std::string::npos);
}

} // namespace
} // namespace tapacs
