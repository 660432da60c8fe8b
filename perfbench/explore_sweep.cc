/**
 * @file
 * explore_sweep: explore::runExplore over a 12-point KNN grid on a
 * fresh sweep-private cache per sweep. It is the only workload that
 * writes the cache and reads it back across options.
 *
 * The timed sweeps run serially. At nproc threads, which points
 * re-solve which keys depends on thread timing (83 misses serially,
 * 101-322 at 4 threads), and the sweep time and every point's time
 * with it: on a 4-core host five 25-s runs spread by 18 % on the sweep
 * time and 38 % on the per-point geometric mean. The traced run adds
 * one sweep at nproc threads, whose misses over the serial sweep's are
 * explore.dup_solve_ratio, the concurrency's wasted work.
 */

#include "apps/knn.hh"
#include "cache/compile_cache.hh"
#include "checks.hh"
#include "common.hh"
#include "common/crc64.hh"
#include "common/logging.hh"
#include "explore/explore.hh"
#include "hls/synthesis.hh"
#include "network/cluster.hh"
#include "serve/execute.hh"
#include "spans.hh"

using namespace tapacs;

namespace perfbench
{

namespace
{

constexpr int kFpgas = 2;

explore::ExploreSpec
sweepSpec()
{
    explore::ExploreSpec spec;
    spec.thresholds = {0.6, 0.7};
    spec.bindingSweeps = {false, true};
    spec.depths = {1, 2, 3};
    return spec;
}

/** One sweep on a fresh cache, with its point checks. */
struct Sweep
{
    explore::ExploreResult result;
    double start = 0.0;
    double seconds = 0.0;
    std::uint64_t digest = 0;
    std::string frontierCsv;
    std::uint64_t cacheBytes = 0;
};

Sweep
runSweep(const apps::AppDesign &design, const TaskGraph &stamped,
         const explore::ExploreSpec &spec, explore::ExploreOptions eopt,
         bool trace, Checker &checker)
{
    Sweep sweep;
    cache::CacheStore store;
    cache::CompileCache cc(store);
    eopt.cache = &cc;
    setTracing(trace);
    sweep.start = now();
    sweep.result = explore::runExplore(design.graph, design.tasks, spec, eopt);
    sweep.seconds = now() - sweep.start;
    setTracing(false);
    sweep.cacheBytes = store.bytesInMemory();

    std::string digests;
    for (const explore::PointOutcome &po : sweep.result.trace) {
        std::vector<std::string> problems;
        if (!po.status.ok() || !po.simulated || po.degraded) {
            problems.push_back(strprintf(
                "status '%s', simulated=%d, degraded=%d",
                po.status.message().c_str(), po.simulated ? 1 : 0,
                po.degraded ? 1 : 0));
        }
        CompileOptions popt = eopt.base;
        popt.threshold = po.point.threshold;
        popt.slotThreshold = po.point.slotThreshold;
        const Cluster cluster(makeU55C(), Topology(po.point.topology, kFpgas),
                              1);
        for (const std::string &p :
             checkCompile(stamped, cluster, popt, po.result))
            problems.push_back(p);
        checker.op(po.point.label(), problems);
        digests += hex(serve::resultDigest(po.result));
    }
    if (!sweep.result.status.ok())
        checker.fail("sweep", {"sweep status " + sweep.result.status.message()});
    sweep.digest = crc64(digests);
    sweep.frontierCsv = explore::frontierCsv(sweep.result);
    return sweep;
}

} // namespace

void
exploreSweep(const RunOptions &opt, Report *report)
{
    Checker checker(report);
    HostSpeed host;
    apps::AppDesign design;
    TaskGraph stamped;
    const explore::ExploreSpec spec = sweepSpec();
    SetupTimer setup(
        [&](ReferenceTimer &) {
            design =
                apps::buildKnn(apps::KnnConfig::scaled(1'000'000, 2, kFpgas));
            stamped = design.graph;
            hls::applySynthesis(stamped, hls::synthesizeAll(design.tasks, 1));
            const Status st = spec.validate();
            if (!st.ok())
                fatal("explore_sweep: bad grid: %s", st.message().c_str());
            warmUpCompile();
        },
        kSetupShare, host);
    setup.run(5);

    explore::ExploreOptions eopt;
    eopt.base = nodeBudgetOptions(kFpgas);
    eopt.base.vitisPrePipelined = design.prePipelined;
    eopt.threads = 1;

    // Point and sweep times at the reference host speed, and sweeps in
    // wall-clock ms.
    std::vector<std::vector<double>> pointS(spec.numPoints());
    std::vector<double> sweepMs, wallMs;
    Sweep first;
    std::vector<std::pair<double, double>> traced;
    double untracedS = 0.0, tracedS = 0.0;

    // A traced run makes two sweeps, the second traced; an untraced
    // run sweeps while the next sweep is expected to end in the
    // window.
    const double start = now();
    for (int sweeps = 0;; ++sweeps) {
        if (sweeps > 0 &&
            (opt.trace ? sweeps == 2
                       : (now() - start) * (sweeps + 1) / sweeps > opt.seconds))
            break;
        const bool tracedSweep = opt.trace && sweeps == 1;
        Sweep sweep =
            runSweep(design, stamped, spec, eopt, tracedSweep, checker);
        host.sample();
        (tracedSweep ? tracedS : untracedS) = sweep.seconds;
        if (tracedSweep)
            traced.emplace_back(sweep.start, sweep.start + sweep.seconds);
        sweepMs.push_back(1e3 * host.atReference(sweep.seconds));
        wallMs.push_back(1e3 * sweep.seconds);
        for (std::size_t i = 0; i < sweep.result.trace.size(); ++i)
            pointS[i].push_back(
                host.atReference(sweep.result.trace[i].seconds));
        if (sweeps == 0) {
            first = std::move(sweep);
        } else if (sweep.digest != first.digest ||
                   sweep.frontierCsv != first.frontierCsv ||
                   sweep.result.cacheMisses != first.result.cacheMisses) {
            checker.fail("sweep", {"results, frontier or cache misses differ "
                                   "between sweeps"});
        }
        setup.keepUp(start);
    }

    // Re-simulate every point outside the timed window: each task must
    // fire all its blocks and the makespan must match the sweep's.
    Quality q;
    std::vector<double> perPointS;
    double simEvents = 0.0;
    for (std::size_t i = 0; i < first.result.trace.size(); ++i) {
        const explore::PointOutcome &po = first.result.trace[i];
        perPointS.push_back(median(pointS[i]));
        const Cluster cluster(makeU55C(), Topology(po.point.topology, kFpgas),
                              1);
        std::vector<std::string> problems;
        const Simulated s = simulateChecked(stamped, cluster, po.result,
                                            &problems);
        if (s.makespan != po.obj.latency)
            problems.push_back("re-simulated makespan differs");
        checker.fail(po.point.label() + " sim", problems);
        simEvents += s.events;
        q.cutCost.push_back(cutCost(stamped, cluster, po.result));
        q.fmaxMhz.push_back(po.result.fmax / 1e6);
        q.simLatencyMs.push_back(1e3 * po.obj.latency);
    }
    Deterministic det;
    det.addHex("point_digests", first.digest);
    det.addHex("frontier_csv", crc64(first.frontierCsv));
    det.add("frontier_size", static_cast<double>(first.result.frontier.size()));
    det.add("cut_cost_geomean", geomean(q.cutCost));
    det.add("fmax_mhz_geomean", geomean(q.fmaxMhz));
    det.add("sim_latency_ms_geomean", geomean(q.simLatencyMs));
    det.add("sim_events", simEvents);
    det.add("cache_misses", static_cast<double>(first.result.cacheMisses));
    report->deterministic = det.json();

    if (!opt.trace) {
        Timings t;
        t.compileS = geomean(perPointS);
        t.compiles = perPointS.size();
        t.turnaroundP50Ms = median(sweepMs);
        t.turnaroundTailMs = tail(sweepMs);
        t.turnarounds = sweepMs.size();
        t.wallP50Ms = median(wallMs);
        endToEnd(report, setup, t, q, host);
        return;
    }
    // A serial sweep makes the fewest cache misses; a parallel sweep's
    // misses over those are its duplicated solves.
    explore::ExploreOptions parallel = eopt;
    parallel.threads = hostThreads();
    const Sweep wide = runSweep(design, stamped, spec, parallel, false, checker);
    if (wide.digest != first.digest || wide.frontierCsv != first.frontierCsv)
        checker.fail("parallel sweep", {"results differ from the serial sweep"});
    report->notes.push_back(strprintf(
        "explore cache misses: %lld serially, %lld at %d threads",
        static_cast<long long>(first.result.cacheMisses),
        static_cast<long long>(wide.result.cacheMisses), parallel.threads));

    std::map<std::string, double> m;
    ilpMetrics(1.0, &m);
    spanMetrics(opt, traced, 1.0, &m, report);
    const double hits = static_cast<double>(first.result.cacheHits);
    const double misses = static_cast<double>(first.result.cacheMisses);
    m["cache.hits"] = hits;
    m["cache.misses"] = misses;
    m["cache.hit_rate"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    m["cache.bytes"] = static_cast<double>(first.cacheBytes);
    m["explore.point_p50_s"] = median(perPointS);
    m["explore.dup_solve_ratio"] =
        misses > 0.0 ? wide.result.cacheMisses / misses : 0.0;
    m["sim.events"] = simEvents;
    m["sim.events_per_s"] = m["sim.s"] > 0.0 ? simEvents / m["sim.s"] : 0.0;
    m["trace.overhead_frac"] = tracedS / untracedS - 1.0;
    perLayer(report, m);
}

} // namespace perfbench
