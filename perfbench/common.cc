#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "apps/stencil.hh"
#include "common/logging.hh"
#include "network/cluster.hh"
#include "spans.hh"

using namespace tapacs;

namespace perfbench
{

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * (v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
tail(std::vector<double> v)
{
    if (v.size() < 11)
        return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    const double q = std::min(0.99, (v.size() - 11.0) / (v.size() - 1.0));
    return quantile(std::move(v), q);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logs = 0.0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / v.size());
}

int
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
hex(std::uint64_t v)
{
    return strprintf("%016llx", static_cast<unsigned long long>(v));
}

CompileOptions
nodeBudgetOptions(int fpgas)
{
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = fpgas;
    opt.inter.solver.timeLimitSeconds = 0.0;
    opt.intra.solver.timeLimitSeconds = 0.0;
    return opt;
}

void
warmUpCompile()
{
    apps::AppDesign design =
        apps::buildStencil(apps::StencilConfig::scaled(64, 2));
    CompileOptions opt = nodeBudgetOptions(2);
    opt.numThreads = 1;
    const CompileResult r =
        compileProgram(design.graph, design.tasks, makePaperTestbed(2), opt);
    if (!r.routable)
        fatal("warm-up compile failed: %s", r.failureReason.c_str());
}

void
Checker::op(const std::string &what, const std::vector<std::string> &problems)
{
    ++report_->attempted;
    fail(what, problems);
}

void
Checker::op(const std::string &what, const std::string &problem)
{
    op(what, problem.empty() ? std::vector<std::string>{}
                             : std::vector<std::string>{problem});
}

void
Checker::fail(const std::string &what, const std::vector<std::string> &problems)
{
    if (problems.empty())
        return;
    report_->failed = std::min(report_->attempted, report_->failed + 1);
    for (const std::string &p : problems) {
        if (report_->failures.size() < 50)
            report_->failures.push_back(what + ": " + p);
    }
}

void
Deterministic::add(const std::string &key, double value)
{
    body_ += strprintf("%s\"%s\": %.17g", body_.empty() ? "" : ", ",
                       key.c_str(), value);
}

void
Deterministic::addHex(const std::string &key, std::uint64_t value)
{
    body_ += strprintf("%s\"%s\": \"%s\"", body_.empty() ? "" : ", ",
                       key.c_str(), hex(value).c_str());
}

HostSpeed::HostSpeed() : matrix_(kRows * kCols)
{
    // The first run faults the matrix's pages in.
    kernel();
    sample();
}

double
HostSpeed::kernel()
{
    // Each pass blends every row with a pivot row, so the values stay
    // between 1 and 2 (no denormals, no overflow). Reading the pivot
    // row through a volatile pointer keeps the loop scalar: vectorized,
    // it tracked the compile times less closely (see README.md).
    std::vector<double> &m = matrix_;
    const double t0 = now();
    for (int i = 0; i < kRows * kCols; ++i)
        m[i] = 1.0 + (i * 7919 % 1009) * 1e-3;
    for (int p = 0; p < 24; ++p) {
        const volatile double *pivot = &m[(p * 37 % kRows) * kCols];
        for (int r = 0; r < kRows; ++r) {
            double *row = &m[r * kCols];
            if (row == pivot)
                continue;
            for (int c = 0; c < kCols; ++c)
                row[c] = 0.75 * row[c] + 0.25 * pivot[c];
        }
    }
    const double ms = 1e3 * (now() - t0);
    checksum_ += static_cast<std::uint64_t>(m[kCols + 5] * 1e3);
    return ms;
}

void
HostSpeed::sample()
{
    ms_.push_back(kernel());
}

double
HostSpeed::atReference(double seconds) const
{
    const std::size_t n = ms_.size();
    const double ms = n < 2 ? ms_.back() : 0.5 * (ms_[n - 2] + ms_[n - 1]);
    return seconds * kReferenceMs / ms;
}

std::string
HostSpeed::note() const
{
    return strprintf("host_speed_ref_ms %.6f (n=%zu, quartiles %.6f-%.6f, "
                     "reference %.1f; printed, not bounded)",
                     median(ms_), ms_.size(), quantile(ms_, 0.25),
                     quantile(ms_, 0.75), kReferenceMs);
}

ReferenceTimer::ReferenceTimer(HostSpeed &host) : host_(host), start_(now())
{
}

void
ReferenceTimer::lap()
{
    const double wall = now() - start_;
    host_.sample();
    seconds_ += host_.atReference(wall);
    start_ = now();
}

SetupTimer::SetupTimer(std::function<void(ReferenceTimer &)> setup,
                       double share, HostSpeed &host)
    : setup_(std::move(setup)), share_(share), host_(host)
{
}

void
SetupTimer::run(int reps)
{
    for (int i = 0; i < reps; ++i) {
        ReferenceTimer timer(host_);
        setup_(timer);
        timer.lap();
        seconds_.push_back(timer.seconds());
    }
}

void
SetupTimer::keepUp(double windowStart)
{
    // Each set-up adds its whole time to inWindow_ and only share_ of
    // it to the allowance, so this ends.
    while (inWindow_ < share_ * (now() - windowStart)) {
        const double t0 = now();
        run(1);
        inWindow_ += now() - t0;
    }
}

double
SetupTimer::median() const
{
    return perfbench::median(seconds_);
}

void
endToEnd(Report *report, const SetupTimer &setup, const Timings &t,
         const Quality &q, const HostSpeed &host)
{
    // The tail swings with what else shares the host, too much for a
    // bound, so it is printed only.
    report->notes.push_back(strprintf(
        "turnaround_p99_ms %.6f ms (n=%zu; printed, not bounded)",
        t.turnaroundTailMs, t.turnarounds));
    report->notes.push_back(strprintf(
        "turnaround_p50_wall_ms %.6f ms (n=%zu; wall clock, printed, not "
        "bounded)",
        t.wallP50Ms, t.turnarounds));
    report->notes.push_back(host.note());
    report->metrics = {
        {"setup_s", setup.median(), "s", setup.reps()},
        {"turnaround_p50_ms", t.turnaroundP50Ms, "ms", t.turnarounds},
        {"compile_s_geomean", t.compileS, "s", t.compiles},
        {"cut_cost_geomean", geomean(q.cutCost), "bit-hops"},
        {"fmax_mhz_geomean", geomean(q.fmaxMhz), "MHz"},
        {"sim_latency_ms_geomean", geomean(q.simLatencyMs), "sim-ms"},
    };
}

void
ilpMetrics(double units, std::map<std::string, double> *m)
{
    for (const std::string prefix : {"ilp.l1", "ilp.l2"}) {
        const double nodes = tallyValue(prefix + ".nodes");
        const double pivots = tallyValue(prefix + ".pivots");
        const double wall = tallyValue(prefix + ".wall_s");
        const double solves = tallyValue(prefix + ".solves");
        (*m)[prefix + ".nodes"] = nodes / units;
        (*m)[prefix + ".pivots"] = pivots / units;
        (*m)[prefix + ".pivots_per_node"] = nodes > 0.0 ? pivots / nodes : 0.0;
        (*m)[prefix + ".pivots_per_s"] = wall > 0.0 ? pivots / wall : 0.0;
        (*m)[prefix + ".optimal_frac"] =
            solves > 0.0 ? tallyValue(prefix + ".optimal") / solves : 0.0;
    }
}

namespace
{

/** Every per-layer metric, in BENCHMARK.json order, with its unit. */
const std::vector<std::pair<std::string, std::string>> &
perLayerNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"ilp.l1.nodes", "count"},
        {"ilp.l1.pivots", "count"},
        {"ilp.l1.pivots_per_node", "count"},
        {"ilp.l1.pivots_per_s", "1/s"},
        {"ilp.l1.optimal_frac", "frac"},
        {"ilp.l2.nodes", "count"},
        {"ilp.l2.pivots", "count"},
        {"ilp.l2.pivots_per_node", "count"},
        {"ilp.l2.pivots_per_s", "1/s"},
        {"ilp.l2.optimal_frac", "frac"},
        {"floorplan.l1_s", "s"},
        {"floorplan.l2_s", "s"},
        {"floorplan.hbm_s", "s"},
        {"compile.stencil64_f4.s", "s"},
        {"compile.pagerank_f3.s", "s"},
        {"compile.knn1m_f2.s", "s"},
        {"compile.cnn13x4_f3.s", "s"},
        {"compile.cnn13x4_f2.s", "s"},
        {"hls.synth_s", "s"},
        {"cache.fingerprint_s", "s"},
        {"cache.get_s", "s"},
        {"cache.put_s", "s"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.hit_rate", "frac"},
        {"cache.bytes", "bytes"},
        {"explore.point_p50_s", "s"},
        {"explore.dup_solve_ratio", "ratio"},
        {"pipeline.plan_s", "s"},
        {"timing.estimate_s", "s"},
        {"apps.build_s", "s"},
        {"sim.events", "count"},
        {"sim.s", "s"},
        {"sim.events_per_s", "1/s"},
        {"serve.exec_p50_ms", "ms"},
        {"serve.exec_p99_ms", "ms"},
        {"serve.sched_overhead_frac", "frac"},
        {"serve.shed", "count"},
        {"serve.retries", "count"},
        {"compiler.self_s", "s"},
        {"trace.overhead_frac", "frac"},
        {"trace.attributed_frac", "frac"},
    };
    return names;
}

} // namespace

void
spanMetrics(const RunOptions &opt,
            const std::vector<std::pair<double, double>> &traced, double units,
            std::map<std::string, double> *m, Report *report)
{
    std::vector<Span> inside = collect();
    computeSelfTimes(inside);
    const double from = traced.empty() ? 0.0 : traced.front().first;
    const double to = traced.empty() ? 0.0 : traced.back().second;
    inside.erase(std::remove_if(inside.begin(), inside.end(),
                                [&](const Span &s) {
                                    return s.start < from || s.start >= to;
                                }),
                 inside.end());
    double wall = 0.0;
    for (const auto &[a, b] : traced)
        wall += b - a;
    // Spans are only recorded inside the traced intervals, so the
    // main thread's coverage of [from, to) is its coverage of those.
    const double covered = coveredFraction(inside, 0, from, to) * (to - from);
    const auto byName = nameTotals(inside, from, to);
    auto self = [&](const std::string &name) {
        const auto it = byName.find(name);
        return it == byName.end() ? 0.0 : it->second.self / units;
    };
    auto selfMatching = [&](const char *needle) {
        double total = 0.0;
        for (const auto &[name, t] : byName) {
            if (name.find(needle) != std::string::npos)
                total += t.self;
        }
        return total / units;
    };
    (*m)["floorplan.l1_s"] = self("partition::solveL1");
    (*m)["floorplan.l2_s"] = self("floorplanIntraDevice");
    (*m)["floorplan.hbm_s"] = self("bindHbmDevice");
    (*m)["hls.synth_s"] = self("hls::synthesizeAll");
    (*m)["cache.fingerprint_s"] = self("cache::solverFingerprint");
    (*m)["cache.get_s"] = selfMatching("CompileCache::get");
    (*m)["cache.put_s"] = selfMatching("CompileCache::put");
    (*m)["pipeline.plan_s"] = self("planPipelining");
    (*m)["timing.estimate_s"] = self("estimateTiming");
    (*m)["sim.s"] = self("sim::trySimulate");
    (*m)["apps.build_s"] = selfMatching("apps::build");
    (*m)["compiler.self_s"] = self("compileProgram");
    (*m)["trace.attributed_frac"] = wall > 0.0 ? covered / wall : 0.0;

    // Per-layer table: count, total, self, self share of the traced
    // wall time (worker threads can push the shares past 100 %).
    std::string table = strprintf("%-36s %9s %12s %12s %8s\n", "layer",
                                  "count", "total_s", "self_s", "share");
    auto rows = [&](const std::map<std::string, LayerTotals> &totals) {
        std::vector<std::pair<std::string, LayerTotals>> sorted(totals.begin(),
                                                               totals.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.second.self > b.second.self;
                  });
        for (const auto &[name, t] : sorted) {
            table += strprintf("%-36s %9lld %12.6f %12.6f %7.2f%%\n",
                               name.c_str(), static_cast<long long>(t.count),
                               t.total, t.self,
                               wall > 0.0 ? 100.0 * t.self / wall : 0.0);
        }
    };
    rows(layerTotals(inside, from, to));
    table += "by entry point:\n";
    rows(byName);
    table += strprintf("traced wall %.6f s, attributed to layers %.2f%%\n",
                       wall, wall > 0.0 ? 100.0 * covered / wall : 0.0);
    report->layerTable = table;

    const std::string base =
        strprintf("%s/%s-seed%llu", opt.outDir.c_str(), opt.workload.c_str(),
                  static_cast<unsigned long long>(opt.seed));
    if (FILE *f = std::fopen((base + ".trace.json").c_str(), "w")) {
        // A warm serving run records many thousands of spans; keep the
        // file loadable by writing only the earliest ones.
        constexpr std::size_t kMaxWritten = 50000;
        std::vector<Span> written = inside;
        if (written.size() > kMaxWritten) {
            std::nth_element(written.begin(), written.begin() + kMaxWritten,
                             written.end(), [](const Span &a, const Span &b) {
                                 return a.start < b.start;
                             });
            written.resize(kMaxWritten);
        }
        const std::string json = chromeTrace(written);
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
    }
    if (FILE *f = std::fopen((base + ".layers.txt").c_str(), "w")) {
        std::fwrite(table.data(), 1, table.size(), f);
        std::fclose(f);
    }
}

void
perLayer(Report *report, const std::map<std::string, double> &m)
{
    report->metrics.clear();
    for (const auto &[name, unit] : perLayerNames()) {
        const auto it = m.find(name);
        report->metrics.push_back({name, it == m.end() ? 0.0 : it->second, unit});
    }
}

} // namespace perfbench
