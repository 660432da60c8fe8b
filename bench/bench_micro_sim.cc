/**
 * @file
 * Throughput bench for the dataflow simulator's event loop.
 *
 * Two measurements, both reported as events/second (and to --json):
 *
 *  1. Event throughput on deep single-device pipelines (the
 *     tight-loop cost of one pop/fire/push cycle).
 *  2. An 8-FPGA CNN (13x32 systolic grid, batch 32) placed over a
 *     single-node ring of eight U55Cs, the largest paper-shaped run.
 *
 * A smoke test that the simulator finishes (simulate() aborts on a
 * run that does not complete), not a speed gate.
 */

#include <chrono>
#include <cstdio>

#include "apps/cnn.hh"
#include "bench/bench_util.hh"

using namespace tapacs;
using namespace tapacs::bench;

namespace
{

using Clock = std::chrono::steady_clock;

/** Best-of-N wall seconds for one simulate() call. */
template <typename Fn>
double
bestOf(int n, Fn &&fn)
{
    double best = 1.0e300;
    for (int i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        fn();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (s < best)
            best = s;
    }
    return best;
}

/** Serial event throughput on a depth-deep, blocks-block pipeline. */
double
pipelineEventsPerSecond(int depth, int blocks)
{
    TaskGraph g("pipe");
    DevicePartition part;
    for (int i = 0; i < depth; ++i) {
        WorkProfile w;
        w.computeOps = 1.0e6;
        w.opsPerCycle = 4.0;
        w.numBlocks = blocks;
        g.addVertex(strprintf("t%d", i), ResourceVector{}, w);
        part.deviceOf.push_back(0);
        if (i > 0)
            g.addEdge(i - 1, i, 64);
    }
    const Cluster cluster = makePaperTestbed(1);
    HbmBinding binding;
    binding.channelsOf.assign(depth, {});
    binding.usersPerChannel.assign(1, std::vector<int>(32, 0));
    PipelinePlan plan;
    plan.edges.assign(g.numEdges(), EdgePipelining{});
    plan.addedAreaPerDevice.assign(1, ResourceVector{});
    const std::vector<Hertz> fmax(1, 300.0e6);

    sim::SimOptions sopt;
    sopt.exportMetrics = false;
    double events = 0.0;
    const double seconds = bestOf(3, [&]() {
        const sim::SimResult r = sim::simulate(g, cluster, part,
                                               binding, plan, fmax,
                                               sopt);
        events = r.stats.get("events");
    });
    return events / seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport report(argc, argv);

    std::printf("Simulator event throughput\n\n");
    {
        TextTable t({"Pipeline", "events/s"});
        const int shapes[][2] = {{8, 64}, {32, 64}, {32, 512},
                                 {128, 128}};
        for (const auto &s : shapes) {
            const double eps = pipelineEventsPerSecond(s[0], s[1]);
            t.addRow({strprintf("depth=%d blocks=%d", s[0], s[1]),
                      strprintf("%.3g", eps)});
            report.add(strprintf("pipeline.d%d.b%d.events_per_s", s[0],
                                 s[1]),
                       eps);
        }
        t.print();
    }

    // A wide CNN spread over eight devices on one node.
    apps::CnnConfig cfg;
    cfg.rows = 13;
    cfg.cols = 32;
    cfg.numFpgas = 8;
    cfg.batch = 32;
    cfg.numBlocks = 224;
    apps::AppDesign app = apps::buildCnn(cfg);
    const Cluster cluster(makeU55C(), Topology(TopologyKind::Ring, 8),
                          1);
    CompileOptions copt;
    copt.mode = CompileMode::TapaCs;
    copt.numFpgas = 8;
    const CompileResult compiled =
        compileProgram(app.graph, app.tasks, cluster, copt);
    if (!compiled.routable)
        fatal("8-FPGA CNN did not route: %s",
              compiled.failureReason.c_str());

    sim::SimOptions sopt;
    sopt.exportMetrics = false;
    sim::SimResult result;
    const double seconds = bestOf(3, [&]() {
        result = sim::simulate(app.graph, cluster, compiled.partition,
                               compiled.binding, compiled.pipeline,
                               compiled.deviceFmax, sopt);
    });
    const double events = result.stats.get("events");

    std::printf("\n8-FPGA CNN (13x32, batch 32): %.0f events\n",
                events);
    TextTable t({"Run", "seconds", "events/s"});
    t.addRow({"8-FPGA CNN", strprintf("%.4f", seconds),
              strprintf("%.3g", events / seconds)});
    t.print();

    report.add("cnn8.events", events);
    report.add("cnn8.seconds", seconds);
    report.add("cnn8.events_per_s", events / seconds);
    report.write();
    return 0;
}
