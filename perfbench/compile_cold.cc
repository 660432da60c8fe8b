/**
 * @file
 * compile_cold: a cycling mix of cold, uncached compileProgram +
 * sim::trySimulate calls at one thread under node budgets. The ilp and
 * floorplan layers do nearly all the work, about half in each level;
 * the cache and serve layers do none. One thread keeps the solver work
 * identical from run to run.
 */

#include <algorithm>
#include <random>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "checks.hh"
#include "common.hh"
#include "common/crc64.hh"
#include "common/logging.hh"
#include "network/cluster.hh"
#include "serve/execute.hh"
#include "spans.hh"

using namespace tapacs;

namespace perfbench
{

namespace
{

struct MixDesign
{
    std::string name;
    int fpgas = 1;
    apps::AppDesign design;
    Cluster cluster{makeU55C(), Topology(TopologyKind::Ring, 1), 1};
};

apps::AppDesign
cnn13x4(int fpgas)
{
    apps::CnnConfig cnn;
    cnn.rows = 13;
    cnn.cols = 4;
    cnn.numFpgas = fpgas;
    return apps::buildCnn(cnn);
}

/**
 * The mix, with single-threaded times measured on a 4-core host:
 * stencil-64 @4 2.8-3.0 s (L1), pagerank @3 0.3 s (L1), KNN 1M d=2 @2
 * 1.0-1.2 s (L2), CNN 13x4 @3 0.94 s (L1 and L2), CNN 13x4 @2
 * 2.0-2.4 s (L2). A pass takes about 7 s, roughly 3.8 s in L1 and
 * 3.2 s in L2.
 */
std::vector<MixDesign>
buildMix()
{
    std::vector<MixDesign> mix(5);
    mix[0] = {"stencil64_f4", 4,
              apps::buildStencil(apps::StencilConfig::scaled(64, 4))};
    mix[1] = {"pagerank_f3", 3,
              apps::buildPageRank(apps::PageRankConfig::scaled(
                  apps::pagerankDatasets()[0], 3))};
    mix[2] = {"knn1m_f2", 2,
              apps::buildKnn(apps::KnnConfig::scaled(1'000'000, 2, 2))};
    mix[3] = {"cnn13x4_f3", 3, cnn13x4(3)};
    mix[4] = {"cnn13x4_f2", 2, cnn13x4(2)};
    for (MixDesign &d : mix)
        d.cluster = makePaperTestbed(d.fpgas);
    return mix;
}

CompileOptions
mixOptions(const MixDesign &d)
{
    CompileOptions opt = nodeBudgetOptions(d.fpgas);
    opt.numThreads = 1;
    opt.vitisPrePipelined = d.design.prePipelined;
    return opt;
}

/** One design's compile + simulation with its checks. */
struct DesignRun
{
    TaskGraph graph;
    CompileResult result;
    Simulated sim;
    double compileS = 0.0;
    double turnaroundS = 0.0;
};

DesignRun
runDesign(const MixDesign &d, Checker &checker)
{
    DesignRun run;
    run.graph = d.design.graph;
    const CompileOptions opt = mixOptions(d);
    std::vector<std::string> problems;
    const double t0 = now();
    run.result = compileProgram(run.graph, d.design.tasks, d.cluster, opt);
    const double t1 = now();
    run.sim = simulateChecked(run.graph, d.cluster, run.result, &problems);
    const double t2 = now();
    run.compileS = t1 - t0;
    run.turnaroundS = t2 - t0;
    for (const std::string &p : checkCompile(run.graph, d.cluster, opt,
                                             run.result))
        problems.push_back(p);
    checker.op(d.name, problems);
    return run;
}

/** A permutation of 0..n-1 drawn from @p seed: the mix order. */
std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

} // namespace

void
compileCold(const RunOptions &opt, Report *report)
{
    Checker checker(report);
    HostSpeed host;
    std::vector<MixDesign> mix;
    SetupTimer setup(
        [&](ReferenceTimer &) {
            mix = buildMix();
            warmUpCompile();
        },
        kSetupShare, host);
    setup.run(5);
    const std::vector<std::size_t> order = seededOrder(mix.size(), opt.seed);

    // Compile and turnaround times at the reference host speed, and
    // turnarounds in wall-clock seconds.
    std::vector<std::vector<double>> compileS(mix.size());
    std::vector<std::vector<double>> turnaroundS(mix.size());
    std::vector<std::vector<double>> wallS(mix.size());
    std::vector<DesignRun> first(mix.size());
    std::vector<std::pair<double, double>> traced;
    double tracedS = 0.0, untracedS = 0.0;
    std::size_t runs = 0;

    // Designs run in the seeded order, cycling through the mix. After
    // the first pass a design starts only if its last time says it
    // ends inside the window, so how many samples a run takes changes
    // one design at a time as the host speeds up or slows down. A
    // traced run makes one pass, each design untraced then traced.
    const double start = now();
    for (std::size_t k = 0;; ++k) {
        const std::size_t idx = order[k % order.size()];
        if (k >= order.size() &&
            (opt.trace ||
             now() - start + wallS[idx].back() > opt.seconds))
            break;
        const MixDesign &d = mix[idx];
        if (opt.trace) {
            untracedS += runDesign(d, checker).turnaroundS;
            setTracing(true);
        }
        const double t0 = now();
        DesignRun run = runDesign(d, checker);
        const double t1 = now();
        setTracing(false);
        host.sample();
        if (opt.trace) {
            traced.emplace_back(t0, t1);
            tracedS += run.turnaroundS;
        }
        compileS[idx].push_back(host.atReference(run.compileS));
        turnaroundS[idx].push_back(host.atReference(run.turnaroundS));
        wallS[idx].push_back(run.turnaroundS);
        ++runs;
        if (k < order.size()) {
            first[idx] = std::move(run);
        } else if (serve::resultDigest(run.result) !=
                       serve::resultDigest(first[idx].result) ||
                   run.sim.makespan != first[idx].sim.makespan) {
            checker.fail(d.name, {"result differs between passes"});
        }
        // Last: a set-up rebuilds the mix that d refers to.
        setup.keepUp(start);
    }

    Quality q;
    Deterministic det;
    std::string orderNames;
    for (std::size_t i : order)
        orderNames += mix[i].name + ";";
    det.addHex("order", crc64(orderNames));
    std::vector<double> perDesignS;
    double simEvents = 0.0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const DesignRun &r = first[i];
        const std::string &n = mix[i].name;
        perDesignS.push_back(median(compileS[i]));
        simEvents += r.sim.events;
        q.cutCost.push_back(cutCost(r.graph, mix[i].cluster, r.result));
        q.fmaxMhz.push_back(r.result.fmax / 1e6);
        q.simLatencyMs.push_back(1e3 * r.sim.makespan);
        det.addHex(n + ".digest", serve::resultDigest(r.result));
        det.add(n + ".l1_nodes", r.result.l1SolverStats.nodesExplored);
        det.add(n + ".l1_pivots", r.result.l1SolverStats.lpIterations);
        det.add(n + ".l2_nodes", r.result.l2SolverStats.nodesExplored);
        det.add(n + ".l2_pivots", r.result.l2SolverStats.lpIterations);
        det.add(n + ".cut_cost", q.cutCost.back());
        det.add(n + ".fmax_mhz", q.fmaxMhz.back());
        det.add(n + ".sim_latency_ms", q.simLatencyMs.back());
        det.add(n + ".sim_events", r.sim.events);
    }
    report->deterministic = det.json();

    if (!opt.trace) {
        // One pass over the mix, from each design's median; the slowest
        // pass, from each design's slowest run.
        Timings t;
        t.compileS = geomean(perDesignS);
        t.compiles = t.turnarounds = runs;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            t.turnaroundP50Ms += 1e3 * median(turnaroundS[i]);
            t.turnaroundTailMs += 1e3 * *std::max_element(
                                            turnaroundS[i].begin(),
                                            turnaroundS[i].end());
            t.wallP50Ms += 1e3 * median(wallS[i]);
        }
        endToEnd(report, setup, t, q, host);
        return;
    }
    std::map<std::string, double> m;
    ilpMetrics(1.0, &m);
    for (std::size_t i = 0; i < mix.size(); ++i)
        m["compile." + mix[i].name + ".s"] = compileS[i].back();
    spanMetrics(opt, traced, 1.0, &m, report);
    m["sim.events"] = simEvents;
    m["sim.events_per_s"] = m["sim.s"] > 0.0 ? simEvents / m["sim.s"] : 0.0;
    m["trace.overhead_frac"] = tracedS / untracedS - 1.0;
    perLayer(report, m);
}

} // namespace perfbench
