#include "serve/service.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "serve/execute.hh"
#include "serve/wire.hh"
#include "serve/worker.hh"

namespace tapacs::serve
{

namespace
{

/** Watchdog scan period. */
constexpr double kWatchdogPeriodSeconds = 0.002;

/** Why a request resolves without running. */
constexpr const char *kDraining = "draining; request deferred";
constexpr const char *kAllQuarantined = "all worker slots quarantined";

obs::MetricsRegistry &
reg()
{
    return obs::MetricsRegistry::global();
}

/** A typed outcome for a request resolved without running. */
ServeOutcome
unrun(const std::string &name, const Status &status)
{
    ServeOutcome out;
    out.name = name;
    out.status = status;
    out.failureReason = status.message();
    return out;
}

} // namespace

/** executeRequest() on the slot's own thread, watched and retaining. */
class CompileService::InThreadSlot final : public SlotExecutor
{
  public:
    explicit InThreadSlot(CompileService &service) : service_(service)
    {
        policy_.cache = service.options_.cache;
        policy_.warmStart = service.options_.warmStart;
        policy_.findRetained = [&service](const std::string &name,
                                          CompileResult *result) {
            return service.findRetained(name, result);
        };
        policy_.retain = [&service](const std::string &name,
                                    const CompileResult &result) {
            service.retain(name, result);
        };
    }

    bool
    run(const Request &req, std::uint64_t, ServeOutcome *out) override
    {
        // Each attempt gets a fresh deadline slice; the watchdog
        // observes the attempt for as long as it runs.
        const Context ctx = req.deadlineMs < 0.0
                                ? Context()
                                : Context::withTimeout(req.deadlineMs /
                                                       1000.0);
        std::list<Context>::iterator watched;
        const bool watch = ctx.cancellable_token() && ctx.hasDeadline();
        if (watch) {
            std::lock_guard<std::mutex> lock(service_.inflightMutex_);
            watched = service_.inflight_.insert(
                service_.inflight_.end(), ctx);
        }
        *out = executeRequest(req, ctx, policy_);
        if (watch) {
            std::lock_guard<std::mutex> lock(service_.inflightMutex_);
            service_.inflight_.erase(watched);
        }
        return true;
    }

  private:
    CompileService &service_;
    ExecutePolicy policy_;
};

CompileService::CompileService(const ServeOptions &options)
    : options_(options), journal_(options.journalPath)
{
    if (!options_.journalPath.empty())
        startStatus_ = replayJournal();
    const bool processes = !options_.workerExe.empty();
    // A worker that dies mid-frame must surface as a typed write
    // error, not kill the server.
    if (processes)
        std::signal(SIGPIPE, SIG_IGN);
    const int slots = options_.threads > 0
                          ? options_.threads
                          : ThreadPool::defaultThreadCount();
    activeSlots_ = slots;
    slots_.reserve(slots);
    threads_.reserve(slots);
    for (int i = 0; i < slots; ++i) {
        if (processes)
            slots_.push_back(makeProcessSlot(i, options_));
        else
            slots_.push_back(std::make_unique<InThreadSlot>(*this));
    }
    for (int i = 0; i < slots; ++i)
        threads_.emplace_back([this, i]() { slotLoop(*slots_[i]); });
    if (!processes)
        watchdog_ = std::thread([this]() { watchdogLoop(); });
}

CompileService::~CompileService()
{
    finish();
}

Status
CompileService::replayJournal()
{
    const RequestJournal::ScanResult scanned =
        RequestJournal::scan(options_.journalPath);
    if (scanned.corruptSkipped > 0) {
        reg().counter("tapacs.serve.journal_corrupt_skipped")
            .add(scanned.corruptSkipped);
        warn("serve: journal '%s': skipped %d corrupt record(s)",
             options_.journalPath.c_str(), scanned.corruptSkipped);
    }
    if (scanned.tornTail)
        warn("serve: journal '%s': torn tail truncated (crash "
             "mid-append)", options_.journalPath.c_str());

    // First-seen admission order; ends overwrite forward.
    std::vector<std::uint64_t> order;
    std::map<std::uint64_t, std::string> begins;
    std::map<std::uint64_t, std::string> ends;
    for (const RequestJournal::Record &record : scanned.records) {
        nextId_ = std::max(nextId_, record.id + 1);
        if (begins.count(record.id) == 0 && ends.count(record.id) == 0)
            order.push_back(record.id);
        if (record.end)
            ends[record.id] = record.payload;
        else
            begins.emplace(record.id, record.payload);
    }

    // No slot runs yet, so nothing here needs the lock.
    std::vector<RequestJournal::Record> compacted;
    for (const std::uint64_t id : order) {
        Entry entry;
        entry.id = id;
        const auto beginIt = begins.find(id);
        if (beginIt != begins.end()) {
            entry.line = beginIt->second;
            compacted.push_back({id, false, entry.line});
        }
        const std::size_t idx = entries_.size();
        const auto endIt = ends.find(id);
        if (endIt != ends.end()) {
            // Completed before the crash: the stored outcome IS the
            // resolution — exactly-once means never re-reporting a
            // different one.
            ServeOutcome out;
            if (!decodeOutcome(endIt->second, &out))
                out = unrun("", Status::internal(
                                    "journal: end record for id %llu "
                                    "did not decode",
                                    (unsigned long long)id));
            out.attempts = 0;
            out.replayed = true;
            entry.journaledEnd = true;
            compacted.push_back({id, true, endIt->second});
            entries_.push_back(std::move(entry));
            outcomes_.emplace_back();
            resolveLocked(idx, std::move(out));
            reg().counter("tapacs.serve.journal_replayed").add();
            continue;
        }
        // Begun but never resolved: re-execute. Determinism + cache
        // idempotence make this safe.
        const ParsedManifest manifest = parseManifest(entry.line);
        entries_.push_back(std::move(entry));
        outcomes_.emplace_back();
        if (manifest.requests.size() != 1) {
            resolveLocked(
                idx, unrun(strprintf("journal-%llu",
                                     (unsigned long long)id),
                           Status::internal(
                               "journal: begin record for id %llu did "
                               "not re-parse",
                               (unsigned long long)id)));
            continue;
        }
        entries_[idx].req = manifest.requests[0];
        queue_.push_back(idx);
        reg().counter("tapacs.serve.journal_resubmitted").add();
    }
    // Compact: drop the corrupt junk and torn tail for good, then
    // reopen for this run's appends.
    Status st = RequestJournal::rewrite(options_.journalPath, compacted);
    if (st.ok())
        st = journal_.open();
    if (!st.ok())
        deferQueuedLocked(st); // no journal: run nothing
    return st;
}

Status
CompileService::submit(Request req)
{
    if (!startStatus_.ok())
        return startStatus_;
    const int copies = std::max(req.repeat, 1);
    req.repeat = 1;
    // Resolve the effective deadline once, at admission, so every
    // executor enforces — and the journal records — the same budget.
    if (req.deadlineMs < 0.0 && options_.defaultDeadlineSeconds >= 0.0)
        req.deadlineMs = options_.defaultDeadlineSeconds * 1000.0;
    for (int copy = 1; copy < copies; ++copy) {
        const Status st = admit(req);
        if (!st.ok())
            return st;
    }
    return admit(std::move(req));
}

Status
CompileService::admit(Request req)
{
    std::string line;
    if (!options_.journalPath.empty())
        line = renderRequestLine(req);
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_)
        return Status::internal("submit() after finish()");
    if (options_.maxQueue > 0 &&
        static_cast<int>(queue_.size()) >= options_.maxQueue) {
        if (options_.blockOnFull) {
            spaceCv_.wait(lock, [&]() {
                return closed_ || static_cast<int>(queue_.size()) <
                                      options_.maxQueue;
            });
            if (closed_)
                return Status::internal(
                    "service closed while blocked on a full queue");
        } else {
            reg().counter("tapacs.serve.rejected").add();
            return Status::resourceExhausted(
                "queue full (%d waiting): request '%s' shed",
                options_.maxQueue, req.name.c_str());
        }
    }
    const std::uint64_t id = nextId_++;
    if (journal_.isOpen()) {
        // The begin record must be durable before the request can
        // possibly execute — otherwise a crash could lose an admitted
        // request, which is the one thing the journal exists to
        // prevent. (The fsync runs under mutex_; next to a compile
        // that is noise.)
        const Status st = journal_.appendBegin(id, line);
        if (!st.ok())
            return st;
    }
    const std::size_t idx = entries_.size();
    entries_.push_back({id, std::move(req), std::move(line), false});
    outcomes_.emplace_back();
    reg().counter("tapacs.serve.admitted").add();
    queue_.push_back(idx);
    if (draining_ || activeSlots_ == 0) {
        // Nothing will dispatch it in this run: resolve it now; a
        // journal keeps its begin record for the next one.
        deferQueuedLocked(Status::resourceExhausted(
            "serve: %s", draining_ ? kDraining : kAllQuarantined));
    } else {
        queueCv_.notify_one();
    }
    return Status();
}

std::size_t
CompileService::admitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t
CompileService::completedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

void
CompileService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drainCv_.wait(lock,
                  [&]() { return completed_ == entries_.size(); });
}

void
CompileService::requestDrain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    deferQueuedLocked(Status::resourceExhausted("serve: %s", kDraining));
    spaceCv_.notify_all(); // the queue is empty now
}

int
CompileService::quarantinedWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_;
}

void
CompileService::resolveLocked(std::size_t idx, ServeOutcome out)
{
    out.id = entries_[idx].id;
    outcomes_[idx] = std::move(out);
    ++completed_;
    drainCv_.notify_all();
}

void
CompileService::deferQueuedLocked(const Status &status)
{
    if (draining_)
        reg().counter("tapacs.serve.drained").add(queue_.size());
    for (const std::size_t idx : queue_)
        resolveLocked(idx, unrun(entries_[idx].req.name, status));
    queue_.clear();
}

void
CompileService::record(std::size_t idx, std::uint64_t id,
                       ServeOutcome out)
{
    if (journal_.isOpen()) {
        // End record first: a crash after the append but before the
        // in-memory completion replays the stored outcome, which is
        // the same one — still exactly-once.
        const Status st = journal_.appendEnd(id, encodeOutcome(out));
        if (!st.ok())
            warn("serve: journal end for id %llu failed: %s",
                 (unsigned long long)id, st.message().c_str());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[idx].journaledEnd = true;
    const bool failure = !out.status.ok();
    resolveLocked(idx, std::move(out));
    if (failure) {
        ++consecutiveFailures_;
        if (options_.breakerThreshold > 0 && !breakerOpen_ &&
            consecutiveFailures_ >= options_.breakerThreshold) {
            breakerOpen_ = true;
            shedSinceOpen_ = 0;
            reg().counter("tapacs.serve.breaker_open").add();
        }
    } else {
        consecutiveFailures_ = 0;
        breakerOpen_ = false; // success (or probe) closes it
    }
}

std::vector<ServeOutcome>
CompileService::finish()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (finished_)
            return {};
        finished_ = true;
        closed_ = true;
    }
    queueCv_.notify_all();
    spaceCv_.notify_all(); // wake submitters blocked on a full queue
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();
    {
        // Slot threads can all exit via quarantine with work still
        // queued; nothing will run it now.
        std::lock_guard<std::mutex> lock(mutex_);
        deferQueuedLocked(Status::resourceExhausted(
            "serve: shut down before dispatch"));
    }
    slots_.clear(); // reaps worker processes
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        watchdogStop_ = true;
    }
    watchdogCv_.notify_all();
    if (watchdog_.joinable())
        watchdog_.join();

    if (journal_.isOpen()) {
        journal_.close();
        // Compact to exactly the unresolved begins (deferred
        // requests): the next run replays those and nothing else. A
        // fully-delivered batch leaves an empty journal.
        std::vector<RequestJournal::Record> keep;
        for (const Entry &entry : entries_) {
            if (!entry.journaledEnd && !entry.line.empty())
                keep.push_back({entry.id, false, entry.line});
        }
        const Status st =
            RequestJournal::rewrite(options_.journalPath, keep);
        if (!st.ok())
            warn("serve: journal compaction failed: %s",
                 st.message().c_str());
    }
    return std::move(outcomes_);
}

void
CompileService::slotLoop(SlotExecutor &slot)
{
    while (true) {
        std::size_t idx = 0;
        bool shed = false;
        const Entry *entry = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queueCv_.wait(lock, [&]() {
                return closed_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // closed and drained
            idx = queue_.front();
            queue_.pop_front();
            // Resolve the element reference while still holding the
            // lock: deque references survive submit()'s push_back, but
            // operator[] walks internal state that push_back mutates.
            entry = &entries_[idx];
            spaceCv_.notify_one();
            if (breakerOpen_) {
                ++shedSinceOpen_;
                const int probe = options_.breakerProbeEvery;
                shed = probe <= 0 || shedSinceOpen_ % probe != 0;
            }
        }

        ServeOutcome out;
        if (shed) {
            out = unrun(entry->req.name,
                        Status::resourceExhausted(
                            "circuit breaker open: request '%s' shed",
                            entry->req.name.c_str()));
            reg().counter("tapacs.serve.breaker_shed").add();
        } else if (!execute(slot, *entry, &out)) {
            // This slot just went dark; give the request back so a
            // healthy slot (if any) picks it up.
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_front(idx);
            ++quarantined_;
            if (--activeSlots_ == 0)
                deferQueuedLocked(Status::resourceExhausted(
                    "serve: %s", kAllQuarantined));
            else
                queueCv_.notify_one();
            return;
        }
        record(idx, entry->id, std::move(out));
    }
}

void
CompileService::watchdogLoop()
{
    std::unique_lock<std::mutex> lock(inflightMutex_);
    while (!watchdogStop_) {
        watchdogCv_.wait_for(
            lock, std::chrono::duration<double>(kWatchdogPeriodSeconds),
            [&]() { return watchdogStop_; });
        if (watchdogStop_)
            return;
        for (const Context &ctx : inflight_) {
            if (ctx.expired() && !ctx.cancelled()) {
                // Cancel, never kill: the solve drains cooperatively
                // with its best incumbent and still reports a typed
                // (DeadlineExceeded — expiry outranks the cancel)
                // outcome.
                ctx.cancel();
                reg().counter("tapacs.serve.watchdog_cancels").add();
            }
        }
    }
}

bool
CompileService::execute(SlotExecutor &slot, const Entry &entry,
                        ServeOutcome *out)
{
    using clock = std::chrono::steady_clock;
    const Request &req = entry.req;
    double totalSeconds = 0.0;
    bool deadlineFired = false;
    const int maxAttempts = std::max(options_.maxRetries, 0) + 1;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        if (attempt > 0) {
            reg().counter("tapacs.serve.retries").add();
            const Seconds backoff =
                boundedBackoff(options_.backoff, attempt - 1);
            if (backoff > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
        }
        const clock::time_point t0 = clock::now();
        if (!slot.run(req, entry.id, out))
            return false;
        totalSeconds += out->seconds;
        out->attempts = attempt + 1;
        deadlineFired =
            deadlineFired ||
            (req.deadlineMs >= 0.0 &&
             std::chrono::duration<double, std::milli>(clock::now() - t0)
                     .count() >= req.deadlineMs);
        const StatusCode code = out->status.code();
        const bool retryable = code == StatusCode::DeadlineExceeded ||
                               code == StatusCode::Internal;
        if (out->status.ok() || !retryable)
            break;
    }
    out->seconds = totalSeconds;
    if (deadlineFired)
        reg().counter("tapacs.serve.deadline_exceeded").add();
    if (out->degraded)
        reg().counter("tapacs.serve.degraded").add();
    return true;
}

void
CompileService::retain(const std::string &name,
                       const CompileResult &result)
{
    if (options_.retainResults <= 0)
        return;
    std::lock_guard<std::mutex> lock(retainedMutex_);
    const auto it = retained_.find(name);
    if (it != retained_.end()) {
        it->second = result; // refresh in place, keep its age
        return;
    }
    retainedOrder_.push_back(name);
    retained_.emplace(name, result);
    while (retained_.size() >
           static_cast<std::size_t>(options_.retainResults)) {
        retained_.erase(retainedOrder_.front());
        retainedOrder_.pop_front();
    }
}

bool
CompileService::findRetained(const std::string &name,
                             CompileResult *out) const
{
    std::lock_guard<std::mutex> lock(retainedMutex_);
    const auto it = retained_.find(name);
    if (it == retained_.end())
        return false;
    *out = it->second;
    return true;
}

} // namespace tapacs::serve
