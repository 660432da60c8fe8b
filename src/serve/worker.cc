#include "serve/worker.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cache/compile_cache.hh"
#include "cache/store.hh"
#include "common/context.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/execute.hh"
#include "serve/manifest.hh"
#include "serve/wire.hh"

extern char **environ;

namespace tapacs::serve
{

namespace
{

/** Worker heartbeat emission period. */
constexpr double kHeartbeatPeriodSeconds = 0.05;
/** Slack past the request deadline before the slot stops trusting
 *  the worker to enforce it and kills instead. */
constexpr double kDeadlineGraceSeconds = 2.0;
/** Budget for a fresh worker's Hello frame. */
constexpr double kHelloTimeoutSeconds = 30.0;

/** Split a Request/Response payload: "<id> <rest>". */
bool
parseIdPayload(const std::string &payload, std::uint64_t *id,
               std::string *rest)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(payload.c_str(), &end, 10);
    if (errno == ERANGE || end == payload.c_str() || *end != ' ')
        return false;
    *id = parsed;
    rest->assign(payload, (end + 1) - payload.c_str(),
                 std::string::npos);
    return true;
}

} // namespace

int
runWorker(const WorkerConfig &config)
{
    // A dead server must surface as a typed write error, not a
    // process kill.
    std::signal(SIGPIPE, SIG_IGN);

    std::unique_ptr<cache::CacheStore> store;
    std::unique_ptr<cache::CompileCache> cache;
    if (!config.cacheDir.empty()) {
        cache::CacheStore::Options opt;
        opt.directory = config.cacheDir;
        store = std::make_unique<cache::CacheStore>(opt);
        cache = std::make_unique<cache::CompileCache>(*store);
    }

    // One writer mutex for the response fd: heartbeats come from a
    // second thread and must never interleave inside a frame.
    std::mutex writeMu;
    auto send = [&](FrameType type, const std::string &payload) {
        std::lock_guard<std::mutex> lock(writeMu);
        return writeFrame(config.outFd, type, payload);
    };

    if (!send(FrameType::Hello, strprintf("%d", (int)getpid())).ok())
        return 1;

    // Heartbeat thread: paused only by a chaos Hang (that is the
    // fault's entire point — the slot must see silence).
    std::mutex hbMu;
    std::condition_variable hbCv;
    bool hbStop = false;
    bool hbPaused = false;
    std::thread heartbeat([&]() {
        std::unique_lock<std::mutex> lock(hbMu);
        while (!hbStop) {
            hbCv.wait_for(lock,
                          std::chrono::duration<double>(
                              kHeartbeatPeriodSeconds),
                          [&]() { return hbStop; });
            if (hbStop)
                return;
            if (hbPaused)
                continue;
            lock.unlock();
            send(FrameType::Heartbeat, "");
            lock.lock();
        }
    });
    auto stopHeartbeat = [&]() {
        {
            std::lock_guard<std::mutex> lock(hbMu);
            hbStop = true;
        }
        hbCv.notify_all();
        heartbeat.join();
    };

    WorkerFault fault = config.fault;
    int served = 0;
    int exitCode = 0;
    while (true) {
        Frame frame;
        const Status st = readFrame(config.inFd, -1.0, &frame);
        if (!st.ok()) {
            // EOF is the server's normal "we're done" signal.
            exitCode =
                st.message() == "wire: peer closed the stream" ? 0 : 1;
            break;
        }
        if (frame.type == FrameType::Shutdown)
            break;
        if (frame.type != FrameType::Request)
            continue; // tolerate unexpected-but-valid frames

        std::uint64_t id = 0;
        std::string line;
        const bool parsed =
            parseIdPayload(frame.payload, &id, &line);

        // Chaos self-faults fire at request receipt, before any
        // compile work: deterministic, and observationally identical
        // to dying mid-compile (the request is begun, not resolved).
        if (parsed && fault.kind != WorkerFaultKind::None &&
            served >= fault.afterRequests) {
            if (fault.kind == WorkerFaultKind::Kill) {
                // _Exit: no destructors, no flushing — the abrupt
                // death the server must survive.
                _Exit(137);
            }
            const double naptime = std::min(fault.seconds, 3600.0);
            if (fault.kind == WorkerFaultKind::Hang) {
                {
                    std::lock_guard<std::mutex> lock(hbMu);
                    hbPaused = true;
                }
                // Sleep silent; the slot SIGKILLs us when its
                // heartbeat timeout fires.
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(naptime));
                {
                    std::lock_guard<std::mutex> lock(hbMu);
                    hbPaused = false;
                }
            } else { // Stall: alive but late
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(naptime));
            }
            fault.kind = WorkerFaultKind::None; // one-shot
        }
        ++served;

        ServeOutcome out;
        if (!parsed) {
            out.status = Status::invalidInput(
                "worker: malformed request payload (%zu bytes)",
                frame.payload.size());
            out.failureReason = out.status.message();
        } else {
            const ParsedManifest manifest = parseManifest(line);
            if (manifest.requests.size() != 1) {
                out.status = Status::invalidInput(
                    "worker: request line did not parse: %s",
                    manifest.diagnostics.empty()
                        ? "(no request)"
                        : manifest.diagnostics[0].message.c_str());
                out.failureReason = out.status.message();
            } else {
                const Request &req = manifest.requests[0];
                const Context ctx =
                    req.deadlineMs < 0.0
                        ? Context()
                        : Context::withTimeout(req.deadlineMs /
                                               1000.0);
                ExecutePolicy policy;
                policy.cache = cache.get();
                policy.warmStart = config.warmStart;
                out = executeRequest(req, ctx, policy);
                out.attempts = 1;
            }
        }
        const std::string payload =
            strprintf("%llu ", (unsigned long long)id) +
            encodeOutcome(out);
        if (!send(FrameType::Response, payload).ok()) {
            exitCode = 1;
            break;
        }
    }
    stopHeartbeat();
    return exitCode;
}

namespace
{

obs::MetricsRegistry &
reg()
{
    return obs::MetricsRegistry::global();
}

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
sleepSeconds(double seconds)
{
    if (seconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
}

/** Move @p fd off the child's protocol fds (0 and 3) so the spawn
 *  dup2s cannot clobber it. */
int
moveOffProtocolFds(int fd)
{
    if (fd != 0 && fd != 3)
        return fd;
    const int moved = fcntl(fd, F_DUPFD_CLOEXEC, 10);
    close(fd);
    return moved;
}

/** Parse a Response payload: "<id> <outcome-bytes>". */
bool
parseResponsePayload(const std::string &payload, std::uint64_t *id,
                     ServeOutcome *out)
{
    std::string bytes;
    return parseIdPayload(payload, id, &bytes) &&
           decodeOutcome(bytes, out);
}

/** One scheduler slot backed by one worker process at a time. */
class ProcessSlot final : public SlotExecutor
{
  public:
    ProcessSlot(int index, const ServeOptions &options)
        : index_(index), options_(options)
    {
        if (options_.cache != nullptr)
            cacheDir_ = options_.cache->store().directory();
    }

    ~ProcessSlot() override { reapGracefully(); }

    bool
    run(const Request &req, std::uint64_t id, ServeOutcome *out) override
    {
        obs::TraceSpan span("fleet", "dispatch." + req.name);
        span.arg("slot", static_cast<std::int64_t>(index_));
        // Not Ok => this slot just became quarantined; no worker ever
        // saw the request.
        if (!ensureWorker().ok())
            return false;
        if (options_.chaos.wireDelaySeconds > 0.0)
            sleepSeconds(options_.chaos.wireDelaySeconds);

        reg().counter("tapacs.fleet.dispatches").add();
        const double t0 = monotonicSeconds();
        Status failure;
        if (dispatch(req, id, out, &failure)) {
            span.arg("status", toString(out->status.code()));
            return true;
        }
        span.arg("status", "DISPATCH_FAILED");
        *out = ServeOutcome();
        out->name = req.name;
        out->status = failure;
        out->failureReason = failure.message();
        out->seconds = monotonicSeconds() - t0;
        return true;
    }

  private:
    /** Make sure the slot has a live, Hello'd worker. Not Ok => the
     *  slot is quarantined. */
    Status
    ensureWorker()
    {
        if (quarantined_)
            return Status::resourceExhausted(
                "fleet: slot %d quarantined", index_);
        while (pid_ == 0) {
            if (spawns_ > options_.restartLimit) {
                quarantined_ = true;
                reg().counter("tapacs.fleet.quarantined").add();
                warn("fleet: slot %d quarantined after %d spawn "
                     "attempt(s)", index_, spawns_);
                return Status::resourceExhausted(
                    "fleet: slot %d quarantined", index_);
            }
            if (spawns_ > 0) {
                reg().counter("tapacs.fleet.worker_restarts").add();
                sleepSeconds(
                    boundedBackoff(options_.backoff, spawns_ - 1));
            }
            ++spawns_;
            const Status st = spawnWorker();
            if (!st.ok())
                warn("%s", st.message().c_str());
        }
        return Status();
    }

    Status
    spawnWorker()
    {
        int request[2];  // slot writes -> worker fd 0
        int response[2]; // worker fd 3 -> slot reads
        if (pipe2(request, O_CLOEXEC) != 0)
            return Status::internal("fleet: pipe2 failed: %s",
                                    std::strerror(errno));
        if (pipe2(response, O_CLOEXEC) != 0) {
            close(request[0]);
            close(request[1]);
            return Status::internal("fleet: pipe2 failed: %s",
                                    std::strerror(errno));
        }
        int childIn = moveOffProtocolFds(request[0]);
        int childOut = moveOffProtocolFds(response[1]);
        if (childIn < 0 || childOut < 0) {
            close(request[1]);
            close(response[0]);
            if (childIn >= 0)
                close(childIn);
            if (childOut >= 0)
                close(childOut);
            return Status::internal("fleet: fcntl failed: %s",
                                    std::strerror(errno));
        }

        // Faults apply only to the slot's first process (this spawn
        // is already counted): the restarted worker is healthy, so
        // every chaos scenario converges.
        WorkerFault fault;
        if (spawns_ <= 1)
            fault = options_.chaos.faultFor(index_);

        const std::string &exe = options_.workerExe;
        const std::string cacheArg = "--cache-dir=" + cacheDir_;
        const std::string warmArg =
            strprintf("--warm-start=%d", options_.warmStart ? 1 : 0);
        const std::string faultArg =
            "--fault=" + encodeWorkerFault(fault);
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(exe.c_str()));
        argv.push_back(const_cast<char *>("--worker"));
        argv.push_back(const_cast<char *>(cacheArg.c_str()));
        argv.push_back(const_cast<char *>(warmArg.c_str()));
        argv.push_back(const_cast<char *>(faultArg.c_str()));
        argv.push_back(nullptr);

        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        // dup2 clears O_CLOEXEC on the new fds; everything else in
        // this process is CLOEXEC, so the child sees only its two
        // pipe ends.
        posix_spawn_file_actions_adddup2(&actions, childIn, 0);
        posix_spawn_file_actions_adddup2(&actions, childOut, 3);

        pid_t pid = 0;
        const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        close(childIn);
        close(childOut);
        if (rc != 0) {
            close(request[1]);
            close(response[0]);
            return Status::internal("fleet: cannot spawn '%s': %s",
                                    exe.c_str(), std::strerror(rc));
        }
        pid_ = pid;
        toChild_ = request[1];
        fromChild_ = response[0];
        reg().counter("tapacs.fleet.worker_spawns").add();

        // The worker leads with Hello; a binary that is not a tapacs
        // worker (or dies on startup) fails here and counts toward
        // quarantine.
        Frame hello;
        const Status st =
            readFrame(fromChild_, kHelloTimeoutSeconds, &hello);
        if (!st.ok() || hello.type != FrameType::Hello) {
            killWorker();
            return Status::internal(
                "fleet: worker on slot %d sent no Hello: %s", index_,
                st.ok() ? "unexpected frame" : st.message().c_str());
        }
        return Status();
    }

    /** SIGKILL + reap + close fds. */
    void
    killWorker()
    {
        if (toChild_ >= 0) {
            close(toChild_);
            toChild_ = -1;
        }
        if (fromChild_ >= 0) {
            close(fromChild_);
            fromChild_ = -1;
        }
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
            pid_ = 0;
        }
    }

    /** Shutdown frame, EOF, bounded wait, then SIGKILL. */
    void
    reapGracefully()
    {
        if (pid_ > 0 && toChild_ >= 0) {
            writeFrame(toChild_, FrameType::Shutdown, "");
            close(toChild_); // EOF backstops the Shutdown frame
            toChild_ = -1;
            const double deadline = monotonicSeconds() + 2.0;
            while (monotonicSeconds() < deadline) {
                const pid_t reaped = waitpid(pid_, nullptr, WNOHANG);
                if (reaped == pid_ || (reaped < 0 && errno == ECHILD)) {
                    pid_ = 0;
                    break;
                }
                sleepSeconds(0.01);
            }
        }
        killWorker();
    }

    /** One wire round-trip. False => @p failure explains; the worker
     *  has been killed. */
    bool
    dispatch(const Request &req, std::uint64_t id, ServeOutcome *out,
             Status *failure)
    {
        const std::string payload =
            strprintf("%llu ", (unsigned long long)id) +
            renderRequestLine(req);
        Status st = writeFrame(toChild_, FrameType::Request, payload);
        if (!st.ok()) {
            reg().counter("tapacs.fleet.worker_deaths").add();
            killWorker();
            *failure = Status::internal(
                "fleet: worker on slot %d rejected the request: %s",
                index_, st.message().c_str());
            return false;
        }

        const double now = monotonicSeconds();
        const double attemptDeadline =
            req.deadlineMs >= 0.0
                ? now + req.deadlineMs / 1000.0 + kDeadlineGraceSeconds
                : -1.0;
        double heartbeatDeadline = now + options_.heartbeatTimeoutSeconds;

        while (true) {
            const double tick = monotonicSeconds();
            double budget = heartbeatDeadline - tick;
            if (attemptDeadline >= 0.0)
                budget = std::min(budget, attemptDeadline - tick);
            budget = std::max(budget, 0.0);

            Frame frame;
            bool corrupt = false;
            st = readFrame(fromChild_, budget, &frame, &corrupt);
            if (st.ok()) {
                if (frame.type == FrameType::Heartbeat) {
                    heartbeatDeadline = monotonicSeconds() +
                                        options_.heartbeatTimeoutSeconds;
                    continue;
                }
                if (frame.type == FrameType::Response) {
                    std::uint64_t gotId = 0;
                    if (!parseResponsePayload(frame.payload, &gotId,
                                              out) ||
                        gotId != id) {
                        reg().counter("tapacs.fleet.wire_crc_errors")
                            .add();
                        killWorker();
                        *failure = Status::internal(
                            "fleet: slot %d returned a malformed or "
                            "mismatched response", index_);
                        return false;
                    }
                    return true;
                }
                continue; // stray Hello etc.: valid frame, keep reading
            }
            if (st.code() == StatusCode::DeadlineExceeded) {
                const double late = monotonicSeconds();
                if (attemptDeadline >= 0.0 && late >= attemptDeadline) {
                    reg().counter("tapacs.fleet.deadline_kills").add();
                    killWorker();
                    *failure = Status::deadlineExceeded(
                        "fleet: slot %d overran the request deadline "
                        "(+%.1fs grace)", index_, kDeadlineGraceSeconds);
                    return false;
                }
                if (late >= heartbeatDeadline) {
                    reg().counter("tapacs.fleet.heartbeat_timeouts")
                        .add();
                    killWorker();
                    *failure = Status::internal(
                        "fleet: slot %d went silent for %.2fs", index_,
                        options_.heartbeatTimeoutSeconds);
                    return false;
                }
                continue; // spurious wake: budget math rounds
            }
            if (corrupt)
                reg().counter("tapacs.fleet.wire_crc_errors").add();
            else
                reg().counter("tapacs.fleet.worker_deaths").add();
            killWorker();
            *failure = Status::internal(
                "fleet: slot %d connection failed: %s", index_,
                st.message().c_str());
            return false;
        }
    }

    const int index_;
    const ServeOptions &options_;
    std::string cacheDir_;
    pid_t pid_ = 0;
    int toChild_ = -1;
    int fromChild_ = -1;
    /** Spawn attempts so far (first spawn included). */
    int spawns_ = 0;
    bool quarantined_ = false;
};

} // namespace

std::unique_ptr<SlotExecutor>
makeProcessSlot(int index, const ServeOptions &options)
{
    return std::make_unique<ProcessSlot>(index, options);
}

} // namespace tapacs::serve
