/**
 * @file
 * In-memory span recorder for the traced benchmark binary.
 *
 * A span is one call into a layer's public entry point, recorded by
 * the linker wrappers in wrap.cc. Each thread appends to its own
 * buffer; collect() merges them after the run, so nothing is written
 * while the workload is being timed.
 * Recording is off until setTracing(true): the untraced half of a
 * traced run pays one relaxed load per wrapped call.
 *
 * Self time. A span's self time is its duration minus the union of
 * the intervals of its children. Children on the same thread are the
 * spans directly nested in it. A span that starts with an empty stack
 * on a worker thread (a per-device solve on the pool, a point of a
 * parallel sweep, a request on a service worker) is a child of the
 * innermost span on another thread that encloses it; when several
 * concurrent spans enclose it the latest-starting one is chosen, so
 * self times under concurrent parents are approximate.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One finished span. Times are seconds since the recorder epoch. */
struct Span
{
    const char *layer = "";
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int thread = 0;
    /** Nesting depth on its own thread (0 = the thread's root). */
    int depth = 0;
    /** Filled by computeSelfTimes(). */
    double self = 0.0;
};

extern std::atomic<bool> gTracing;

inline bool
tracing()
{
    return gTracing.load(std::memory_order_relaxed);
}

void setTracing(bool on);

/** Seconds since the recorder epoch (steady clock). */
double now();

/** RAII span; a no-op when tracing is off at construction. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *layer, const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *layer_;
    const char *name_;
    double start_ = -1.0;
};

/** Move every recorded span out of the thread buffers. */
std::vector<Span> collect();

/** Fill Span::self (see file comment). */
void computeSelfTimes(std::vector<Span> &spans);

/** Per-layer aggregate over [from, to). */
struct LayerTotals
{
    std::int64_t count = 0;
    double total = 0.0;
    double self = 0.0;
};

/** Aggregate spans that start inside [from, to) by layer. */
std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans, double from, double to);

/** Aggregate spans that start inside [from, to) by entry point. */
std::map<std::string, LayerTotals>
nameTotals(const std::vector<Span> &spans, double from, double to);

/**
 * Share of [from, to) covered by root spans of thread @p thread —
 * the part of the main thread's wall time spent inside named layers.
 */
double coveredFraction(const std::vector<Span> &spans, int thread,
                       double from, double to);

/** Index of the calling thread in the recorder (0 = first seen). */
int threadIndex();

/**
 * Tallies the wrappers keep next to their spans while tracing is on,
 * summed by name (e.g. simulator events).
 */
void tally(const std::string &name, double value);
/** Summed value of @p name so far. */
double tallyValue(const std::string &name);

/** Chrome trace_event JSON of @p spans. */
std::string chromeTrace(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
