/**
 * @file
 * The three benchmark workloads. Each sets up several times, measures
 * for the requested seconds, checks every output it timed and reports
 * named metrics (README.md lists them and why).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: report the per-layer metrics instead of the
     *  end-to-end ones. Needs the wrappers of perfbench_traced. */
    bool trace = false;
    /** Where a traced run writes its trace and layer table. */
    std::string outDir = ".";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind a timing (0 = not a sampled timing). */
    std::size_t samples = 0;
};

struct Report
{
    /** Operations attempted (compiles, sweep points, requests). */
    std::int64_t attempted = 0;
    /** Operations that failed or failed an output check. */
    std::int64_t failed = 0;
    /** One line per failed check (capped). */
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /** JSON object of the values that must repeat exactly for a seed:
     *  solver counts, result quality, digests and the input order. */
    std::string deterministic;
    /** Per-layer table of a traced run. */
    std::string layerTable;
    /** Figures printed but not reported as metrics (see README). */
    std::vector<std::string> notes;
};

void compileCold(const RunOptions &opt, Report *report);
void exploreSweep(const RunOptions &opt, Report *report);
void serveWarm(const RunOptions &opt, Report *report);

/**
 * Harness self-check of the output checks: corrupt real compile and
 * serve results and confirm each corruption is rejected. Returns the
 * problems found (empty = the checks caught everything).
 */
std::vector<std::string> selfCheckCorruption();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
