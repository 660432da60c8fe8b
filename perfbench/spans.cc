#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench
{

std::atomic<bool> gTracing{false};

namespace
{

const auto kEpoch = std::chrono::steady_clock::now();

struct Buffer
{
    std::mutex mutex;
    std::vector<Span> spans;
    int index = 0;
    int depth = 0;
};

std::mutex gRegistryMutex;
std::vector<std::unique_ptr<Buffer>> gBuffers;

std::mutex gTallyMutex;
std::map<std::string, double> gTallies;

Buffer &
localBuffer()
{
    thread_local Buffer *buffer = [] {
        std::lock_guard<std::mutex> lock(gRegistryMutex);
        gBuffers.push_back(std::make_unique<Buffer>());
        gBuffers.back()->index = static_cast<int>(gBuffers.size()) - 1;
        return gBuffers.back().get();
    }();
    return *buffer;
}

/** Length of the union of @p intervals clipped to [lo, hi]. */
double
unionLength(std::vector<std::pair<double, double>> &intervals, double lo,
            double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (auto [a, b] : intervals) {
        a = std::max(a, reach);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return covered;
}

} // namespace

void
setTracing(bool on)
{
    gTracing.store(on, std::memory_order_relaxed);
}

double
now()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kEpoch)
        .count();
}

int
threadIndex()
{
    return localBuffer().index;
}

ScopedSpan::ScopedSpan(const char *layer, const char *name)
    : layer_(layer), name_(name)
{
    if (!tracing())
        return;
    ++localBuffer().depth;
    start_ = now();
}

ScopedSpan::~ScopedSpan()
{
    if (start_ < 0.0)
        return;
    const double end = now();
    Buffer &b = localBuffer();
    --b.depth;
    std::lock_guard<std::mutex> lock(b.mutex);
    b.spans.push_back(Span{layer_, name_, start_, end, b.index, b.depth});
}

std::vector<Span>
collect()
{
    std::vector<Span> out;
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    for (auto &b : gBuffers) {
        std::lock_guard<std::mutex> bl(b->mutex);
        out.insert(out.end(), b->spans.begin(), b->spans.end());
        b->spans.clear();
    }
    return out;
}

void
computeSelfTimes(std::vector<Span> &spans)
{
    // Order by thread, then start, longest first, so a parent precedes
    // the spans nested in it.
    std::sort(spans.begin(), spans.end(), [](const Span &a, const Span &b) {
        if (a.thread != b.thread)
            return a.thread < b.thread;
        if (a.start != b.start)
            return a.start < b.start;
        return a.end > b.end;
    });
    const std::size_t n = spans.size();
    std::vector<std::vector<std::pair<double, double>>> children(n);

    // Main-thread spans by start, for adopting worker roots.
    std::vector<std::size_t> mainSpans;
    for (std::size_t i = 0; i < n; ++i) {
        if (spans[i].thread == 0)
            mainSpans.push_back(i);
    }

    std::vector<std::size_t> stack;
    int thread = -1;
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = spans[i];
        if (s.thread != thread) {
            stack.clear();
            thread = s.thread;
        }
        while (!stack.empty() && spans[stack.back()].end <= s.start)
            stack.pop_back();
        if (!stack.empty()) {
            children[stack.back()].emplace_back(s.start, s.end);
        } else if (s.thread != 0) {
            // Innermost main-thread span enclosing this worker root: the
            // latest-starting one that has not ended before it ends.
            auto it = std::upper_bound(
                mainSpans.begin(), mainSpans.end(), s.start,
                [&](double t, std::size_t j) { return t < spans[j].start; });
            while (it != mainSpans.begin()) {
                --it;
                if (spans[*it].end >= s.end) {
                    children[*it].emplace_back(s.start, s.end);
                    break;
                }
                if (spans[*it].depth == 0)
                    break;
            }
        }
        stack.push_back(i);
    }
    for (std::size_t i = 0; i < n; ++i) {
        Span &s = spans[i];
        s.self = (s.end - s.start) -
                 unionLength(children[i], s.start, s.end);
    }
}

namespace
{

template <typename KeyFn>
std::map<std::string, LayerTotals>
totalsBy(const std::vector<Span> &spans, double from, double to, KeyFn key)
{
    std::map<std::string, LayerTotals> out;
    for (const Span &s : spans) {
        if (s.start < from || s.start >= to)
            continue;
        LayerTotals &t = out[key(s)];
        ++t.count;
        t.total += s.end - s.start;
        t.self += s.self;
    }
    return out;
}

} // namespace

std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans, double from, double to)
{
    return totalsBy(spans, from, to,
                    [](const Span &s) { return std::string(s.layer); });
}

std::map<std::string, LayerTotals>
nameTotals(const std::vector<Span> &spans, double from, double to)
{
    return totalsBy(spans, from, to,
                    [](const Span &s) { return std::string(s.name); });
}

double
coveredFraction(const std::vector<Span> &spans, int thread, double from,
                double to)
{
    std::vector<std::pair<double, double>> roots;
    for (const Span &s : spans) {
        if (s.thread == thread && s.depth == 0)
            roots.emplace_back(s.start, s.end);
    }
    return to > from ? unionLength(roots, from, to) / (to - from) : 0.0;
}

void
tally(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(gTallyMutex);
    gTallies[name] += value;
}

double
tallyValue(const std::string &name)
{
    std::lock_guard<std::mutex> lock(gTallyMutex);
    const auto it = gTallies.find(name);
    return it == gTallies.end() ? 0.0 : it->second;
}

std::string
chromeTrace(const std::vector<Span> &spans)
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    bool first = true;
    for (const Span &s : spans) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                      "\"args\":{\"self_us\":%.3f}}",
                      first ? "" : ",", s.name, s.layer, s.start * 1e6,
                      (s.end - s.start) * 1e6, s.thread, s.self * 1e6);
        out += buf;
        first = false;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
