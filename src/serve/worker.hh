/**
 * @file
 * The process tier: the worker-process slot and the worker it runs.
 *
 * makeProcessSlot() is the scheduler's (serve/service) executor for a
 * slot backed by an out-of-process worker. The slot spawns the worker
 * binary lazily on its first request, waits for its Hello, and sends
 * each attempt over the CRC-checked frame protocol (serve/wire),
 * watching it with two independent kill paths:
 *
 *   heartbeat timeout   the worker went silent (crash, hang, kill
 *                       -9): SIGKILL, restart on the next attempt.
 *   deadline overrun    the worker is alive (heartbeating) but has
 *                       blown the request deadline plus a grace
 *                       window — the healthy path is that the worker
 *                       enforces the deadline itself and returns a
 *                       typed degraded outcome; the kill is the
 *                       backstop for a wedged solve.
 *
 * Either way the attempt comes back as a typed, retryable outcome
 * (Internal / DeadlineExceeded). Restarts sleep the scheduler's
 * bounded-backoff curve; a slot that keeps dying past the restart
 * limit is quarantined. Counters: tapacs.fleet.{dispatches,
 * worker_spawns,worker_restarts,worker_deaths,heartbeat_timeouts,
 * deadline_kills,wire_crc_errors,quarantined}; each dispatch runs
 * under a "fleet" trace span.
 *
 * runWorker() is the whole child process after `tapacs-serve
 * --worker` parses its flags: announce Hello, then loop — read a
 * Request frame, execute it with the same executeRequest() core the
 * in-thread slots use, write the Response frame. A background thread
 * emits Heartbeat frames on a timer so the slot can tell "long
 * compile" from "wedged process" without guessing.
 *
 * Frames arrive on inFd (fd 0) and leave on outFd (fd 3): keeping
 * stdout/stderr out of the protocol means worker logging can never
 * corrupt the stream. All writes to outFd go through one mutex —
 * a heartbeat must never land inside a response frame.
 *
 * The worker owns a private CacheStore/CompileCache over the
 * server's cache directory; the *disk* tier is the shared medium, so
 * a request re-dispatched to a different worker after a crash reuses
 * every artifact the dead worker managed to publish (temp + rename
 * makes partially-written entries invisible, CRC64 makes torn ones
 * typed misses). That, plus deterministic compiles, is why a retried
 * request is bit-identical to an uninterrupted one.
 *
 * Chaos faults (serve/chaos) are self-injected deterministically
 * when configured — see chaos.hh for the kill/hang/stall semantics.
 */

#ifndef TAPACS_SERVE_WORKER_HH
#define TAPACS_SERVE_WORKER_HH

#include <memory>
#include <string>

#include "serve/chaos.hh"
#include "serve/service.hh"

namespace tapacs::serve
{

struct WorkerConfig
{
    /** Request frames in (the spawn wires the slot's pipe here). */
    int inFd = 0;
    /** Response/heartbeat frames out. */
    int outFd = 3;
    /** Disk cache directory shared with the other workers; empty =
     *  uncached. */
    std::string cacheDir;
    /** Family warm-start hints for the compile flow. */
    bool warmStart = false;
    /** Self-injected chaos fault (None in production). */
    WorkerFault fault;
};

/**
 * Serve requests until EOF or a Shutdown frame; returns the process
 * exit code (0 = clean shutdown, 1 = wire failure).
 */
int runWorker(const WorkerConfig &config);

/**
 * The executor for scheduler slot @p index, backed by a worker
 * process running @p options.workerExe. @p options must outlive it;
 * destroying it shuts the worker down.
 */
std::unique_ptr<SlotExecutor> makeProcessSlot(int index,
                                              const ServeOptions &options);

} // namespace tapacs::serve

#endif // TAPACS_SERVE_WORKER_HH
