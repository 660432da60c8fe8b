/**
 * @file
 * CompileService: the one serving scheduler, behind tapacs-serve.
 *
 * The scheduler owns admission, the request queue, retries, the
 * circuit breaker, the request journal and drain; each of its slots
 * hands one request at a time to a per-slot executor (SlotExecutor):
 *
 *  - in-thread slot: executeRequest() on the slot's own thread under
 *    the request's deadline Context, with session retention of
 *    routable results as `base=` candidates for incremental requests;
 *  - worker-process slot (serve/worker): the same executeRequest() in
 *    a child process spoken to over the CRC-checked wire. A crash,
 *    hang or deadline overrun kills and restarts the worker (bounded
 *    backoff, quarantine past the restart limit) and comes back as a
 *    typed, retryable outcome.
 *
 * Every stage produces a *typed* outcome; nothing reachable from a
 * request may call fatal():
 *
 *  - Admission: Request::repeat expands into independent copies; a
 *    full queue sheds with ResourceExhausted (or blocks, when
 *    backpressure is configured); an open circuit breaker sheds at
 *    dispatch, letting a periodic probe through to test recovery.
 *    The effective deadline is resolved here, once.
 *  - Execution: the compile flow polls the request's deadline
 *    cooperatively and falls back ILP -> greedy, so an expired
 *    request still yields a feasible degraded result whenever one
 *    exists. In-thread slots also run a watchdog that cancels (never
 *    kills) any attempt past its deadline.
 *  - Retries: DeadlineExceeded/Internal outcomes (a dead worker's
 *    included) are retried up to a budget, sleeping the same
 *    bounded-exponential backoff curve the reliable transport uses on
 *    the wire (network/protocols). Compiles are deterministic and
 *    idempotent through the content-addressed cache, so a retry is
 *    bit-identical (ServeOutcome::resultDigest).
 *  - Journal: with a path configured, every admission writes a
 *    durable begin record and every final outcome an end record
 *    (serve/journal). Construction replays an existing journal:
 *    completed ids resolve from their stored outcome, incomplete ones
 *    re-enter the queue, so a crashed server loses no request and
 *    double-reports none. finish() compacts the journal to the
 *    requests that never ran.
 *  - Drain: requestDrain() stops dispatching; queued requests resolve
 *    ResourceExhausted but keep their begin records, so a restarted
 *    server replays them.
 *
 * Counters: tapacs.serve.{admitted,rejected,retries,deadline_exceeded,
 * degraded,breaker_open,breaker_shed,watchdog_cancels,drained,
 * journal_replayed,journal_resubmitted,journal_corrupt_skipped} plus
 * the worker-process slots' tapacs.fleet.* (serve/worker); each
 * request runs under a "serve" trace span.
 */

#ifndef TAPACS_SERVE_SERVICE_HH
#define TAPACS_SERVE_SERVICE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/context.hh"
#include "common/status.hh"
#include "common/units.hh"
#include "network/protocols.hh"
#include "serve/chaos.hh"
#include "serve/journal.hh"
#include "serve/manifest.hh"

namespace tapacs::cache
{
class CompileCache;
} // namespace tapacs::cache

namespace tapacs::serve
{

/** Service-wide policy. */
struct ServeOptions
{
    /** Slots: concurrent requests in flight (0 = the shared pool's
     *  size). With workerExe set, each slot is one worker process. */
    int threads = 0;
    /** Waiting-queue bound; 0 = unbounded. */
    int maxQueue = 0;
    /** With a full queue: true = submit() blocks until space
     *  (backpressure), false = shed with ResourceExhausted. */
    bool blockOnFull = false;
    /** Per-attempt deadline for requests that do not carry their own
     *  (Request::deadlineMs < 0): < 0 = none, 0 = already expired
     *  (deterministic degraded path), > 0 = seconds of budget. */
    double defaultDeadlineSeconds = -1.0;
    /** Extra attempts after a retryable outcome (DeadlineExceeded /
     *  Internal, which is what a dead worker yields). Each attempt
     *  gets a fresh deadline slice. */
    int maxRetries = 0;
    /**
     * Backoff curve slept before each retry and before each worker
     * restart — the transport's own policy type, so serving retries
     * and wire retransmissions follow the same bounded-exponential
     * shape (boundedBackoff). Jitter is zeroed: serving sleeps must
     * be deterministic.
     */
    ReliableTransportConfig backoff = defaultBackoff();
    /** Consecutive failed requests that open the circuit breaker;
     *  0 disables the breaker. */
    int breakerThreshold = 0;
    /** While open, every Nth shed candidate runs anyway as a probe;
     *  a successful probe closes the breaker. */
    int breakerProbeEvery = 8;
    /** Family warm-start hints (CompileOptions::cacheWarmStart). */
    bool warmStart = false;
    /** Shared compile cache; nullptr = uncached. Worker processes
     *  open their own store over its directory (none when the cache
     *  is memory-only). */
    cache::CompileCache *cache = nullptr;
    /**
     * Session-scoped retention (in-thread slots): keep up to this
     * many completed routable results, by request name, as `base=`
     * candidates for incremental= requests (insertion-order eviction
     * past the cap; 0 disables retention entirely). A pure serving
     * knob — like the thread counts, it never reaches a compile-cache
     * key, so incremental and cold compiles address the same entries.
     */
    int retainResults = 64;
    /** Durable request journal path; empty = no journal. */
    std::string journalPath;
    /** Worker executable; empty = in-thread slots, otherwise every
     *  slot spawns this binary in `--worker` mode. */
    std::string workerExe;
    /** Worker silence longer than this kills the worker. */
    double heartbeatTimeoutSeconds = 1.0;
    /** Worker restarts per slot before quarantine. */
    int restartLimit = 4;
    /** Worker fault injection (empty plan in production). */
    ChaosPlan chaos;

    static ReliableTransportConfig
    defaultBackoff()
    {
        ReliableTransportConfig c;
        c.ackTimeout = 0.0;
        c.maxRetries = 16;
        c.backoffBase = 5.0e-3;
        c.backoffCap = 0.25;
        c.backoffJitterFrac = 0.0;
        return c;
    }
};

/** Typed result of one admitted request. */
struct ServeOutcome
{
    /** Admission id: the journal record id, stable across restarts. */
    std::uint64_t id = 0;
    std::string name;
    /** Ok whenever a result was produced — including degraded ones;
     *  otherwise the typed reason (InvalidInput, Infeasible,
     *  DeadlineExceeded, Cancelled, ResourceExhausted, Internal). */
    Status status;
    bool routable = false;
    /** A deadline/cancel forced a fallback somewhere in the flow. */
    bool degraded = false;
    std::string degradedReason;
    std::string failureReason;
    int tasks = 0;
    /** Attempts spent in this run, re-dispatches after a worker
     *  failure included (1 = no retries); 0 = resolved without
     *  running (breaker shed, drain, journal replay). */
    int attempts = 0;
    /** Resolved from a journal end record, not executed in this run. */
    bool replayed = false;
    /** Wall seconds across all attempts, excluding queue wait. */
    double seconds = 0.0;
    Hertz fmax = 0.0;
    double cutTrafficBytes = 0.0;
    /** simulate=1 and the sim ran to a result (possibly a partial one
     *  under a deadline/cancel — then status carries the reason). */
    bool simulated = false;
    /** Simulated makespan in seconds (partial when !status.ok()). */
    double simMakespan = 0.0;
    /** For incremental= requests: the one-line CompileDelta report
     *  (what carried over from the base). Empty otherwise. */
    std::string deltaSummary;
    /** explore=1 and the sweep ran (its spec was valid). */
    bool explored = false;
    /** Grid points evaluated (trace length). */
    int explorePoints = 0;
    /** Pareto-frontier size; for explore outcomes, routable/fmax
     *  describe the best-fmax frontier point. */
    int exploreFrontier = 0;
    /** Compile-cache hit rate measured across the sweep. */
    double exploreHitRate = 0.0;
    /**
     * CRC64 over the deterministic fields of the produced design
     * (serve/execute resultDigest); 0 until a compile or sweep ran.
     * Two executions of the same request — on an in-thread slot, in a
     * worker process, or re-dispatched after a crash — agree on this
     * value iff they produced bit-identical designs.
     */
    std::uint64_t resultDigest = 0;
};

/** Runs one attempt of one request on one scheduler slot. */
class SlotExecutor
{
  public:
    SlotExecutor() = default;
    virtual ~SlotExecutor() = default;

    SlotExecutor(const SlotExecutor &) = delete;
    SlotExecutor &operator=(const SlotExecutor &) = delete;

    /**
     * Run one attempt of @p req (admission id @p id) into @p out.
     * False = the slot can run nothing any more (quarantined): @p out
     * is untouched and the scheduler hands the request to another
     * slot.
     */
    virtual bool run(const Request &req, std::uint64_t id,
                     ServeOutcome *out) = 0;
};

/**
 * The serving scheduler. Construct (replays the journal, starts the
 * slots), submit() requests (slots start draining immediately), then
 * finish() to close the queue and collect every admitted request's
 * outcome in admission order — replayed ids first. finish() is
 * terminal; the destructor calls it if the caller did not.
 */
class CompileService
{
  public:
    explicit CompileService(const ServeOptions &options);
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /** Ok, or why the journal could not be replayed or opened (then
     *  every submit() fails with the same status). */
    const Status &startStatus() const { return startStatus_; }

    /**
     * Admission control, per copy of a repeated request. Ok = queued
     * (an outcome will exist for it); ResourceExhausted = shed on a
     * full queue. With blockOnFull the call instead waits for space
     * and always admits. With a journal, each copy's begin record is
     * durable before it can run.
     */
    Status submit(Request req);

    /** Requests admitted so far (journal replays included). */
    std::size_t admitted() const;

    /** Requests resolved so far. */
    std::size_t completedCount() const;

    /**
     * Block until every request admitted so far has an outcome. The
     * service stays open — more can be submitted afterwards. This is
     * what lets an edit-trace replay submit strictly sequentially, so
     * each incremental request finds its base already retained.
     */
    void drain();

    /**
     * Graceful drain: stop dispatching. Queued requests, and any
     * submitted from now on, resolve ResourceExhausted without
     * running; with a journal they keep their begin records, so a
     * restarted service replays them — deferred, never dropped.
     */
    void requestDrain();

    /** Slots quarantined so far (worker processes that kept dying). */
    int quarantinedWorkers() const;

    /** Close the queue, drain, stop the slots, compact the journal,
     *  return all outcomes in admission order. */
    std::vector<ServeOutcome> finish();

  private:
    class InThreadSlot;

    struct Entry
    {
        std::uint64_t id = 0;
        Request req;
        /** The journaled begin line; empty when not journaled. */
        std::string line;
        bool journaledEnd = false;
    };

    Status replayJournal();
    Status admit(Request req);
    void slotLoop(SlotExecutor &slot);
    void watchdogLoop();
    /** Attempts with retries; false = the slot is quarantined. */
    bool execute(SlotExecutor &slot, const Entry &entry,
                 ServeOutcome *out);
    /** Record a final outcome: journal end record, breaker vote. */
    void record(std::size_t idx, std::uint64_t id, ServeOutcome out);
    /** Store @p out as entry @p idx's outcome. Caller holds mutex_. */
    void resolveLocked(std::size_t idx, ServeOutcome out);
    /** Resolve every queued request, unrun, with @p status (no end
     *  record: a journal replays them). Caller holds mutex_. */
    void deferQueuedLocked(const Status &status);
    /** Retain a routable result as a `base=` candidate (no-op when
     *  retainResults == 0; evicts the oldest name past the cap). */
    void retain(const std::string &name, const CompileResult &result);
    /** Copy the retained result for @p name, if still held. */
    bool findRetained(const std::string &name, CompileResult *out) const;

    ServeOptions options_;
    Status startStatus_;
    RequestJournal journal_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_; ///< slots: work or closed
    std::condition_variable spaceCv_; ///< producers: queue has space
    std::condition_variable drainCv_; ///< drain(): an outcome landed
    std::deque<std::size_t> queue_;   ///< indices into entries_
    /** Admission order. A deque so references stay valid while a
     *  slot executes one entry and submit() appends more. */
    std::deque<Entry> entries_;
    std::vector<ServeOutcome> outcomes_;
    /** Outcomes recorded so far (drain() waits on it). */
    std::size_t completed_ = 0;
    std::uint64_t nextId_ = 1;
    bool closed_ = false;
    bool draining_ = false;
    bool finished_ = false;
    int activeSlots_ = 0;
    int quarantined_ = 0;

    // Session-scoped base retention (own mutex: retained results are
    // read/written mid-attempt, while mutex_ guards the queue).
    mutable std::mutex retainedMutex_;
    std::unordered_map<std::string, CompileResult> retained_;
    std::deque<std::string> retainedOrder_; ///< insertion order

    // Circuit breaker (guarded by mutex_).
    int consecutiveFailures_ = 0;
    bool breakerOpen_ = false;
    std::size_t shedSinceOpen_ = 0;

    // Watchdog registry of in-flight in-thread attempt contexts.
    std::mutex inflightMutex_;
    std::list<Context> inflight_;
    std::condition_variable watchdogCv_;
    bool watchdogStop_ = false;

    std::vector<std::unique_ptr<SlotExecutor>> slots_;
    std::vector<std::thread> threads_;
    std::thread watchdog_;
};

} // namespace tapacs::serve

#endif // TAPACS_SERVE_SERVICE_HH
