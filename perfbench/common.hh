/**
 * @file
 * Helpers the workloads share: statistics, operation accounting, the
 * compile options every solve-timing workload uses, set-up timing,
 * the host-speed reference and metric assembly.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compiler.hh"
#include "workloads.hh"

namespace perfbench
{

double quantile(std::vector<double> v, double q);
double median(const std::vector<double> &v);
/**
 * The tail figure: the 99th percentile when at least ten samples lie
 * beyond it, otherwise the highest percentile that still has ten
 * samples beyond it (the maximum below 11 samples).
 */
double tail(std::vector<double> v);
double geomean(const std::vector<double> &v);
int hostThreads();
std::string hex(std::uint64_t v);

/**
 * Options of every compile whose solver work the benchmark times:
 * node budgets end the solves, never the wall clock, so a run does
 * the same work however loaded the host is (the mode runExplore
 * uses). This is the only place the wall-clock cap fields are set.
 */
tapacs::CompileOptions nodeBudgetOptions(int fpgas);

/**
 * A small single-threaded compile (stencil-64 @2, about 15 ms) that
 * set-up runs so lazy state exists before timing starts. It also keeps
 * set-up from being a sub-millisecond, allocation-bound figure that
 * moves by half with what shares the host.
 */
void warmUpCompile();

/** Records operations and check failures. */
class Checker
{
  public:
    explicit Checker(Report *report) : report_(report) {}

    /** Count one operation; it failed when @p problems is non-empty. */
    void op(const std::string &what, const std::vector<std::string> &problems);
    void op(const std::string &what, const std::string &problem);
    /** Fail an operation already counted (a check made after it). */
    void fail(const std::string &what, const std::vector<std::string> &problems);

  private:
    Report *report_;
};

/** Deterministic values of a run, rendered as one JSON object. */
class Deterministic
{
  public:
    void add(const std::string &key, double value);
    void addHex(const std::string &key, std::uint64_t value);
    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Quality samples, one per distinct operation. */
struct Quality
{
    std::vector<double> cutCost;
    std::vector<double> fmaxMhz;
    std::vector<double> simLatencyMs;
};

/**
 * Host speed, read from a fixed reference kernel that shares no code
 * with src/: scalar row updates of a 512 KiB dense matrix, as a
 * simplex tableau gets. The benchmark's figures are meant for shared hosts,
 * where other tenants slow a run down by up to 1.8x for stretches of
 * a second to minutes by competing for the caches and memory.
 *
 * A workload samples once before its first timed step and once after
 * every timed step (an operation or a set-up), so each step lies
 * between two samples. atReference() scales the step's wall time by
 * kReferenceMs over the mean of those two samples: the time the step
 * would take on a host where the kernel takes kReferenceMs. The
 * kernel runs no program code, so a change to src/ moves the scaled
 * time by the same share as the wall time.
 */
class HostSpeed
{
  public:
    /** The kernel's time that sets the scale, in ms: near its time on
     *  an unloaded 4-core Xeon host. */
    static constexpr double kReferenceMs = 1.5;

    /** Warms the kernel up and takes the first sample. */
    HostSpeed();

    /** Time the kernel once. */
    void sample();
    /** @p seconds of wall time between the last two samples, scaled
     *  to the reference host speed. */
    double atReference(double seconds) const;
    std::string note() const;

  private:
    static constexpr int kRows = 128, kCols = 512;

    double kernel();

    std::vector<double> matrix_;
    std::vector<double> ms_;
    /** Keeps the kernel's result alive. */
    std::uint64_t checksum_ = 0;
};

/**
 * The wall time of a series of steps at the reference host speed:
 * lap() ends a step, samples the host and adds the step's scaled time.
 * A step is scaled by the host's speed at its two ends only, so a long
 * operation laps between its parts.
 */
class ReferenceTimer
{
  public:
    /** Starts the first step; the host's last sample is its start. */
    explicit ReferenceTimer(HostSpeed &host);

    void lap();
    double seconds() const { return seconds_; }

  private:
    HostSpeed &host_;
    double start_;
    double seconds_ = 0.0;
};

/** Share of the window compile_cold and explore_sweep spend setting
 *  up again; their set-up takes 10-25 ms, so this is about a hundred
 *  set-ups in a 35-s window. */
constexpr double kSetupShare = 0.05;

/**
 * A workload's set-up, timed on every repetition at the reference host
 * speed; setup_s is the median. A set-up may lap the timer it is given
 * between its parts. A workload sets up before its window
 * and again between operations inside it (keepUp), so the median spans
 * the same stretch of host time as the operations. Every repetition
 * builds the same state.
 */
class SetupTimer
{
  public:
    /**
     * @p share is the part of the window's wall time that keepUp may
     * spend on set-ups, each timed on @p host.
     */
    SetupTimer(std::function<void(ReferenceTimer &)> setup, double share,
               HostSpeed &host);

    /** Set up @p reps times. */
    void run(int reps);
    /**
     * Between operations of the window that began at @p windowStart
     * (a now() time): set up again while the set-ups inside the window
     * take under their share of it.
     */
    void keepUp(double windowStart);

    double median() const;
    std::size_t reps() const { return seconds_.size(); }

  private:
    std::function<void(ReferenceTimer &)> setup_;
    double share_;
    HostSpeed &host_;
    double inWindow_ = 0.0;
    std::vector<double> seconds_;
};

/** The timings behind the end-to-end metrics, at the reference host
 *  speed unless named wall. */
struct Timings
{
    double compileS = 0.0;
    std::size_t compiles = 0;
    double turnaroundP50Ms = 0.0;
    double turnaroundTailMs = 0.0;
    std::size_t turnarounds = 0;
    /** The median turnaround in wall-clock ms, printed only. */
    double wallP50Ms = 0.0;
};

/** The six end-to-end metrics plus the unbounded notes. */
void endToEnd(Report *report, const SetupTimer &setup, const Timings &t,
              const Quality &q, const HostSpeed &host);

/**
 * ILP effort of the solves that ran while tracing was on (the L1 and
 * L2 wrappers tally each returned SolverStats; a cache hit runs no
 * solve), divided by @p units, into ilp.l1.* and ilp.l2.*.
 */
void ilpMetrics(double units, std::map<std::string, double> *m);

/**
 * Span-derived per-layer metrics over the traced intervals, divided by
 * @p units (passes, sweeps or batches). Writes the per-layer table to
 * the report and the Chrome trace to the output directory.
 */
void spanMetrics(const RunOptions &opt,
                 const std::vector<std::pair<double, double>> &traced,
                 double units, std::map<std::string, double> *m,
                 Report *report);

/** Report every per-layer metric, in BENCHMARK.json order. */
void perLayer(Report *report, const std::map<std::string, double> &m);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
