/**
 * @file
 * Benchmark program: runs one workload and prints every metric with its
 * unit, then one JSON result line (the last line of stdout):
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--commit ID]
 *   perfbench --selfcheck-corruption
 *
 * --trace 1 needs the perfbench_traced build (the same program linked
 * with the layer wrappers of wrap.cc) and reports the per-layer
 * metrics instead of the end-to-end ones. Any failed output check
 * makes the exit code 1. run.py builds both binaries and picks one.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID]\n"
                 "       perfbench --selfcheck-corruption\n",
                 why);
    return 2;
}

using Workload = void (*)(const RunOptions &, Report *);

Workload
findWorkload(const std::string &name)
{
    if (name == "compile_cold")
        return compileCold;
    if (name == "explore_sweep")
        return exploreSweep;
    if (name == "serve_warm")
        return serveWarm;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    // The main thread must be the recorder's thread 0.
    threadIndex();

    RunOptions opt;
    std::string commit = "unknown";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selfcheck-corruption") {
            const std::vector<std::string> missed = selfCheckCorruption();
            for (const std::string &m : missed)
                std::printf("selfcheck: %s\n", m.c_str());
            std::printf("selfcheck corruption: %s\n",
                        missed.empty() ? "ok" : "FAILED");
            return missed.empty() ? 0 : 1;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
            haveWorkload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
            haveSeed = end != value && *end == '\0';
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value, &end);
            haveSeconds = end != value && *end == '\0' && opt.seconds > 0.0;
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(value, "1") == 0;
            haveTrace = opt.trace || std::strcmp(value, "0") == 0;
        } else if (arg == "--out-dir") {
            opt.outDir = value;
        } else if (arg == "--commit") {
            commit = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    if (opt.trace && !kTraced)
        return usage("--trace 1 needs the perfbench_traced build");
    const Workload workload = findWorkload(opt.workload);
    if (workload == nullptr)
        return usage(("unknown workload " + opt.workload).c_str());
    // The library tracer would add its own spans inside the flow.
    tapacs::obs::Tracer::instance().disable();

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("host: {\"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"commit\": \"%s\", "
                "\"seed\": %llu}\n",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, commit.c_str(),
                static_cast<unsigned long long>(opt.seed));
    std::fflush(stdout);

    Report report;
    workload(opt, &report);

    for (const std::string &f : report.failures)
        std::printf("check failed: %s\n", f.c_str());
    if (!report.layerTable.empty())
        std::printf("%s", report.layerTable.c_str());
    std::string metrics;
    for (const Metric &m : report.metrics) {
        std::printf("metric %-28s %18.6f %s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.samples > 0)
            std::printf(" (n=%zu)", m.samples);
        std::printf("\n");
        metrics += tapacs::strprintf(
            "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
            metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
            m.unit.c_str());
    }
    for (const std::string &note : report.notes)
        std::printf("%s\n", note.c_str());
    // A failed share of 0 on a healthy tree cannot carry a relative
    // bound, so it is printed, not reported as a metric.
    std::printf("failed_share %.6f (%lld of %lld operations failed; "
                "printed, not bounded)\n",
                report.attempted > 0
                    ? static_cast<double>(report.failed) / report.attempted
                    : 1.0,
                static_cast<long long>(report.failed),
                static_cast<long long>(report.attempted));
    // Peak RSS moves from run to run with how the allocator's
    // per-thread arenas grow, so it is printed, not bounded.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("peak_rss_mb %.3f (printed, not bounded)\n",
                ru.ru_maxrss / 1024.0);
    std::printf("deterministic: %s\n", report.deterministic.c_str());
    const bool correct = report.failed == 0 && report.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed), metrics.c_str());
    std::fflush(stdout);
    // Skip exit-time destructors of the process-wide pools and caches.
    std::_Exit(correct ? 0 : 1);
}
