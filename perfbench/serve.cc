/**
 * @file
 * serve_warm: one closed-loop client sends seeded, fixed-size batches
 * of 1- and 2-FPGA requests to one in-process serve::CompileService and
 * waits for each batch to drain, on a shared in-memory CompileCache
 * that set-up pre-warmed, so no timed request reaches the solver.
 */

#include <sched.h>

#include <memory>
#include <optional>
#include <random>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "cache/compile_cache.hh"
#include "checks.hh"
#include "common.hh"
#include "common/crc64.hh"
#include "common/logging.hh"
#include "network/cluster.hh"
#include "obs/metrics.hh"
#include "serve/execute.hh"
#include "serve/service.hh"
#include "spans.hh"

using namespace tapacs;

namespace perfbench
{

namespace
{

/** The distinct requests batches are drawn from. */
std::vector<serve::Request>
requestMix()
{
    struct Row
    {
        const char *workload;
        int fpgas;
        CompileMode mode;
        bool simulate;
    };
    const Row rows[] = {
        {"stencil", 1, CompileMode::TapaCs, false},
        {"stencil", 2, CompileMode::TapaCs, true},
        {"stencil", 1, CompileMode::TapaSingle, true},
        {"pagerank", 1, CompileMode::TapaCs, true},
        {"pagerank", 2, CompileMode::TapaCs, false},
        {"knn", 1, CompileMode::TapaCs, false},
        {"knn", 2, CompileMode::TapaCs, true},
        {"knn", 1, CompileMode::TapaSingle, false},
        {"cnn", 1, CompileMode::TapaCs, true},
        {"cnn", 2, CompileMode::TapaCs, true},
        {"cnn", 1, CompileMode::TapaSingle, false},
    };
    std::vector<serve::Request> mix;
    for (const Row &row : rows) {
        serve::Request r;
        r.workload = row.workload;
        r.fpgas = row.fpgas;
        r.mode = row.mode;
        r.simulate = row.simulate;
        r.name = strprintf(
            "%s_f%d_%s%s", row.workload, row.fpgas,
            row.mode == CompileMode::TapaSingle ? "tapa" : "tapacs",
            row.simulate ? "_sim" : "");
        mix.push_back(r);
    }
    return mix;
}

/** The design executeRequest builds for a builtin @p req. */
apps::AppDesign
requestDesign(const serve::Request &req)
{
    if (req.workload == "stencil")
        return apps::buildStencil(apps::StencilConfig::scaled(64, req.fpgas));
    if (req.workload == "pagerank")
        return apps::buildPageRank(apps::PageRankConfig::scaled(
            apps::pagerankDatasets()[0], req.fpgas));
    if (req.workload == "knn")
        return apps::buildKnn(apps::KnnConfig::scaled(1'000'000, 2, req.fpgas));
    apps::CnnConfig cnn;
    cnn.rows = 4;
    cnn.cols = 4;
    cnn.numFpgas = req.fpgas;
    cnn.batch = 4;
    cnn.numBlocks = 8;
    return apps::buildCnn(cnn);
}

/** Requests per batch. Each batch wakes the idle service threads and
 *  the client once; on a shared host those wake-ups swing from
 *  microseconds to milliseconds, so a batch carries enough work (about
 *  60 ms) for them to stay a small share of its turnaround, and a run
 *  still times hundreds of batches. */
constexpr std::size_t kBatchSize = 512;
/** One batch in this many is traced in a traced run; the rest are the
 *  untraced baseline for the tracing overhead. */
constexpr int kTraceEvery = 20;
/** Share of the window spent setting up again between batches: a
 *  set-up takes about 1.2 s, so a 35-s window holds five or six. */
constexpr double kServeSetupShare = 0.2;

/**
 * Execute every distinct request once into @p cache, as a service
 * worker does with the default service options, lapping @p timer
 * after each: the pre-warm set-up does. The requests run one at a time
 * on the calling thread, the thread whose core the host speed is
 * sampled on. Run on a service worker thread, the set-up spread by
 * 12.8 % over ten runs on a 4-core host, against 4.9 % for the
 * batches.
 */
std::vector<serve::ServeOutcome>
prewarm(const std::vector<serve::Request> &mix, cache::CompileCache *cache,
        ReferenceTimer &timer)
{
    serve::ExecutePolicy policy;
    policy.cache = cache;
    std::vector<serve::ServeOutcome> warm;
    for (const serve::Request &r : mix) {
        warm.push_back(serve::executeRequest(r, Context(), policy));
        timer.lap();
    }
    return warm;
}

/** What set-up builds: a fresh cache, pre-warmed, and a service over
 *  it. Members are destroyed in reverse order, service first. */
struct WarmService
{
    std::unique_ptr<cache::CacheStore> store;
    std::unique_ptr<cache::CompileCache> cc;
    std::vector<serve::ServeOutcome> warm;
    std::unique_ptr<serve::CompileService> service;
};

WarmService
setUp(const std::vector<serve::Request> &mix, serve::ServeOptions sopt,
      ReferenceTimer &timer)
{
    WarmService s;
    s.store = std::make_unique<cache::CacheStore>();
    s.cc = std::make_unique<cache::CompileCache>(*s.store);
    s.warm = prewarm(mix, s.cc.get(), timer);
    sopt.cache = s.cc.get();
    s.service = std::make_unique<serve::CompileService>(sopt);
    return s;
}

/** What the timed window recorded. */
struct Window
{
    /** Mix index of each admitted request, in admission order. */
    std::vector<std::size_t> submitted;
    /** Per batch: wall ms, the factor that scales its times to the
     *  reference host speed, first admission index, traced or not. */
    std::vector<double> batchMs;
    std::vector<double> batchScale;
    std::vector<std::size_t> batchStart;
    std::vector<bool> batchTraced;
    std::vector<std::pair<double, double>> traced;
    std::int64_t shed = 0;
    std::int64_t cacheHits = 0;
    std::int64_t cacheMisses = 0;
    std::uint64_t sequence = 0;

    /** One past the last admission index of batch @p b. */
    std::size_t
    batchEnd(std::size_t b) const
    {
        return b + 1 < batchStart.size() ? batchStart[b + 1]
                                         : submitted.size();
    }
};

/** Pin the calling thread, and the threads it starts later, to the
 *  core it runs on now. */
void
pinToCurrentCore(Report *report)
{
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const int cpu = sched_getcpu();
    if (cpu >= 0)
        CPU_SET(cpu, &cpus);
    if (cpu < 0 || sched_setaffinity(0, sizeof cpus, &cpus) != 0)
        report->notes.push_back("serve_warm: could not pin to one core");
}

std::int64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/**
 * The closed loop: submit a batch, drain it, time it from outside, and
 * repeat until the window ends.
 */
Window
runWindow(serve::CompileService &server, const std::vector<serve::Request> &mix,
          const RunOptions &opt, HostSpeed &host, SetupTimer &setup)
{
    Window w;
    std::string names;
    const double start = now();
    // A traced run needs at least one traced batch.
    const int minBatches = opt.trace ? 2 : 1;
    std::mt19937_64 rng(opt.seed);
    for (int b = 0; b < minBatches || now() - start < opt.seconds; ++b) {
        std::vector<std::size_t> batch(kBatchSize);
        for (std::size_t &i : batch)
            i = rng() % mix.size();
        const bool tracedBatch = opt.trace && b % kTraceEvery == 1;
        w.batchStart.push_back(w.submitted.size());
        const std::int64_t hits0 = counterValue("tapacs.cache.hits");
        const std::int64_t misses0 = counterValue("tapacs.cache.misses");
        setTracing(tracedBatch);
        const double t0 = now();
        for (std::size_t i : batch) {
            if (server.submit(mix[i]).ok())
                w.submitted.push_back(i);
            else
                ++w.shed;
        }
        server.drain();
        const double t1 = now();
        setTracing(false);
        w.batchMs.push_back(1e3 * (t1 - t0));
        w.batchTraced.push_back(tracedBatch);
        if (tracedBatch) {
            w.traced.emplace_back(t0, t1);
            w.cacheHits += counterValue("tapacs.cache.hits") - hits0;
            w.cacheMisses += counterValue("tapacs.cache.misses") - misses0;
        }
        host.sample();
        w.batchScale.push_back(host.atReference(1.0));
        if (b < 4) {
            for (std::size_t i : batch)
                names += mix[i].name + ";";
        }
        setup.keepUp(start);
    }
    w.sequence = crc64(names);
    return w;
}

/**
 * Verify each distinct request outside the timed window: compile it
 * directly on the warm cache with the service's default options, check
 * the design, its digest and simulation against the pre-warm outcome.
 * Then compile it again, uncached, under node budgets only: the same
 * digest shows its solves ended by node budget, inside the default
 * wall-clock caps, so no served result depends on the host's speed.
 */
void
verifyRequests(const std::vector<serve::Request> &mix,
               const std::vector<serve::ServeOutcome> &warm,
               cache::CompileCache *cache, Checker &checker, Quality *q,
               Deterministic *det)
{
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const serve::Request &req = mix[i];
        apps::AppDesign design = requestDesign(req);
        const Cluster cluster = makePaperTestbed(req.fpgas);
        CompileOptions copt;
        copt.mode = req.mode;
        copt.numFpgas = req.fpgas;
        copt.cache = cache;
        TaskGraph graph = design.graph;
        const CompileResult r =
            compileProgram(graph, design.tasks, cluster, copt);
        std::vector<std::string> problems =
            checkCompile(graph, cluster, copt, r);
        if (i >= warm.size() || serve::resultDigest(r) != warm[i].resultDigest)
            problems.push_back("the served digest is not this design's");
        CompileOptions bopt = nodeBudgetOptions(req.fpgas);
        bopt.mode = req.mode;
        if (serve::resultDigest(compileProgram(design.graph, design.tasks,
                                               cluster, bopt)) !=
            serve::resultDigest(r))
            problems.push_back("the served result depends on the wall-clock "
                               "solver caps");
        if (req.simulate) {
            const Simulated s = simulateChecked(graph, cluster, r, &problems);
            if (i < warm.size() && s.makespan != warm[i].simMakespan)
                problems.push_back("served makespan differs");
            q->simLatencyMs.push_back(1e3 * s.makespan);
        }
        checker.op(req.name + " verify", problems);
        if (req.fpgas > 1 && req.mode == CompileMode::TapaCs)
            q->cutCost.push_back(cutCost(graph, cluster, r));
        q->fmaxMhz.push_back(r.fmax / 1e6);
        det->addHex(req.name + ".digest", serve::resultDigest(r));
        det->add(req.name + ".l1_nodes", r.l1SolverStats.nodesExplored);
        det->add(req.name + ".l2_nodes", r.l2SolverStats.nodesExplored);
    }
}

/** Per-outcome figures of the served requests. */
struct Served
{
    std::vector<double> execS;
    std::vector<std::vector<double>> execByRequest;
    double retries = 0.0;
};

Served
checkOutcomes(const std::vector<serve::ServeOutcome> &outcomes,
              const Window &w, const std::vector<serve::Request> &mix,
              const std::vector<serve::ServeOutcome> &warm, Checker &checker)
{
    Served s;
    s.execByRequest.resize(mix.size());
    std::size_t b = 0;
    for (std::size_t k = 0; k < outcomes.size() && k < w.submitted.size();
         ++k) {
        const serve::ServeOutcome &o = outcomes[k];
        const std::size_t i = w.submitted[k];
        while (w.batchEnd(b) <= k)
            ++b;
        checker.op(mix[i].name, checkServed(o, warm[i], mix[i]));
        s.execS.push_back(o.seconds);
        s.execByRequest[i].push_back(o.seconds * w.batchScale[b]);
        s.retries += o.attempts - 1;
    }
    for (std::int64_t k = 0; k < w.shed; ++k)
        checker.op("submit", "request shed");
    if (outcomes.size() != w.submitted.size())
        checker.op("finish", "outcome count differs from admissions");
    return s;
}

/** Geometric mean over distinct requests of each one's median, at the
 *  reference host speed. */
double
perRequestGeomean(const Served &s)
{
    std::vector<double> medians;
    for (const std::vector<double> &v : s.execByRequest) {
        if (!v.empty())
            medians.push_back(median(v));
    }
    return geomean(medians);
}

/** Untraced batch times in wall-clock ms, or at the reference host
 *  speed when @p scaled. */
std::vector<double>
plainBatches(const Window &w, bool scaled)
{
    std::vector<double> out;
    for (std::size_t b = 0; b < w.batchMs.size(); ++b) {
        if (!w.batchTraced[b])
            out.push_back(w.batchMs[b] * (scaled ? w.batchScale[b] : 1.0));
    }
    return out;
}

/** Σ exec seconds of batch @p b. */
double
batchExecS(const Window &w, const Served &s, std::size_t b)
{
    double total = 0.0;
    for (std::size_t k = w.batchStart[b]; k < w.batchEnd(b) && k < s.execS.size();
         ++k)
        total += s.execS[k];
    return total;
}

/** Tracing overhead: traced over untraced median batch time. */
double
batchOverhead(const Window &w)
{
    std::vector<double> tracedMs;
    for (std::size_t b = 0; b < w.batchMs.size(); ++b) {
        if (w.batchTraced[b])
            tracedMs.push_back(w.batchMs[b]);
    }
    return median(tracedMs) / median(plainBatches(w, false)) - 1.0;
}

} // namespace

void
serveWarm(const RunOptions &opt, Report *report)
{
    Checker checker(report);
    HostSpeed host;
    const std::vector<serve::Request> mix = requestMix();
    serve::ServeOptions sopt;
    // One service thread, and the whole run pinned to the core it
    // starts on, which also runs the client and the host-speed kernel.
    // With nproc - 1 threads spread over the cores, batch turnaround
    // spread by 32 % over ten runs on a shared 4-core host while the
    // per-request times spread by 2.6 %: a batch waits for every core
    // the host is slow to give back, and the kernel samples one core.
    sopt.threads = 1;
    pinToCurrentCore(report);

    // Each set-up drops the previous one's service and cache and builds
    // new ones. The window serves from the last set-up before it; the
    // set-ups between its batches build spares it never touches.
    std::optional<WarmService> built;
    SetupTimer setup(
        [&](ReferenceTimer &timer) {
            built.reset();
            built.emplace(setUp(mix, sopt, timer));
        },
        kServeSetupShare, host);
    setup.run(5);
    WarmService live = std::move(*built);
    built.reset();
    const std::vector<serve::ServeOutcome> &warm = live.warm;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        checker.op("prewarm " + mix[i].name,
                   checkServed(warm[i], warm[i], mix[i]));
    }

    const Window w = runWindow(*live.service, mix, opt, host, setup);
    built.reset();
    const std::vector<serve::ServeOutcome> outcomes = live.service->finish();
    live.service.reset();
    const Served s = checkOutcomes(outcomes, w, mix, warm, checker);

    Quality q;
    Deterministic det;
    verifyRequests(mix, warm, live.cc.get(), checker, &q, &det);
    det.addHex("sequence", w.sequence);
    report->deterministic = det.json();

    if (!opt.trace) {
        const std::vector<double> plain = plainBatches(w, true);
        Timings t;
        t.compileS = perRequestGeomean(s);
        t.compiles = s.execS.size();
        t.turnaroundP50Ms = median(plain);
        t.turnaroundTailMs = tail(plain);
        t.turnarounds = plain.size();
        t.wallP50Ms = median(plainBatches(w, false));
        endToEnd(report, setup, t, q, host);
        return;
    }
    std::map<std::string, double> m;
    const double units = static_cast<double>(w.traced.size());
    ilpMetrics(units, &m);
    spanMetrics(opt, w.traced, units, &m, report);
    double wall = 0.0, exec = 0.0;
    for (std::size_t b = 0; b < w.batchMs.size(); ++b) {
        wall += w.batchMs[b] / 1e3;
        exec += batchExecS(w, s, b);
    }
    std::vector<double> execMs;
    for (double x : s.execS)
        execMs.push_back(1e3 * x);
    const double hits = static_cast<double>(w.cacheHits);
    const double misses = static_cast<double>(w.cacheMisses);
    m["cache.hits"] = hits / units;
    m["cache.misses"] = misses / units;
    m["cache.hit_rate"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    m["cache.bytes"] = static_cast<double>(live.store->bytesInMemory());
    m["sim.events"] = tallyValue("sim.events") / units;
    m["sim.events_per_s"] =
        m["sim.s"] > 0.0 ? m["sim.events"] / m["sim.s"] : 0.0;
    m["serve.exec_p50_ms"] = median(execMs);
    m["serve.exec_p99_ms"] = tail(execMs);
    m["serve.sched_overhead_frac"] = 1.0 - exec / (sopt.threads * wall);
    m["serve.shed"] = static_cast<double>(w.shed);
    m["serve.retries"] = s.retries;
    m["trace.overhead_frac"] = batchOverhead(w);
    perLayer(report, m);
}

} // namespace perfbench
