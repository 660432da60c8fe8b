/**
 * @file
 * tapacs-serve — serve a manifest of compile requests through the
 * admission-controlled CompileService over one shared compile cache.
 *
 * Every request yields a *typed* outcome (ok / degraded /
 * INVALID_INPUT / INFEASIBLE / DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED
 * / ...): malformed manifest lines become per-line diagnostics,
 * expired requests still return their best degraded result, and an
 * open circuit breaker sheds load. Requests run on in-thread slots by
 * default; --workers N runs them in N worker processes instead, so a
 * worker crash, hang or deadline overrun is detected, the worker
 * restarted (bounded backoff, quarantine past the restart limit) and
 * the request retried — deterministic compiles plus the
 * content-addressed disk cache make the retry bit-identical.
 *
 * With --journal, every admission is durable before it can execute: a
 * killed server restarted on the same journal replays completed
 * requests from their stored outcomes and re-runs incomplete ones.
 * Run with a journal and no manifest to drain a previous run's
 * leftovers.
 *
 * SIGTERM/SIGINT drain gracefully: admission stops, in-flight
 * requests finish, queued ones resolve with a typed "deferred"
 * outcome but keep their journal begin records for the next run.
 *
 * Manifest format: see serve/manifest.hh (request NAME key=value...,
 * including per-request deadline_ms=, solver=, replicate= and
 * coarse_limit=).
 *
 * Usage:
 *   tapacs-serve [MANIFEST] [--threads N] [--workers N] [--repeat N]
 *                [--warm-start] [--no-cache] [--cache-dir DIR]
 *                [--deadline-ms N] [--max-queue N] [--block-on-full]
 *                [--retries N] [--breaker-threshold N] [--replay]
 *                [--retain N] [--journal PATH] [--worker-exe PATH]
 *                [--heartbeat-timeout-ms N] [--restart-limit N]
 *                [--chaos-seed N] [--strict]
 *
 *   --threads N             in-thread slots (default: pool size)
 *   --workers N             run requests in N worker processes
 *                           instead of in-thread slots
 *   --repeat N              global multiplier on every request
 *   --warm-start            family warm-start hints (see
 *                           CompileOptions::cacheWarmStart; changes
 *                           results on near-miss requests)
 *   --no-cache              drop the cache entirely (baseline timing)
 *   --cache-dir D           disk cache tier at D (TAPACS_CACHE_DIR);
 *                           worker processes share it, so a retry
 *                           reuses every artifact a dead worker
 *                           published
 *   --deadline-ms N         default per-attempt deadline for requests
 *                           without their own deadline_ms=; 0 =
 *                           already expired (deterministic degraded
 *                           path), negative = none (the default)
 *   --max-queue N           waiting-queue bound; submissions beyond it
 *                           are shed with RESOURCE_EXHAUSTED (0 =
 *                           unbounded)
 *   --block-on-full         block submission instead of shedding
 *   --retries N             extra attempts after DEADLINE_EXCEEDED /
 *                           INTERNAL (a dead worker included), with
 *                           bounded exponential backoff
 *   --breaker-threshold N   consecutive failures that open the
 *                           circuit breaker (0 = disabled)
 *   --replay                edit-trace replay: drain after every
 *                           submission, so each incremental= request
 *                           finds its base= already retained
 *   --retain N              keep up to N routable results as base=
 *                           candidates (default 64; 0 disables)
 *   --journal P             durable request journal (crash recovery)
 *   --worker-exe P          worker binary (default: this binary via
 *                           TAPACS_WORKER_EXE / /proc/self/exe)
 *   --heartbeat-timeout-ms  silence budget before a worker is
 *                           declared dead (default 1000)
 *   --restart-limit N       worker restarts per slot before
 *                           quarantine (default 4)
 *   --chaos-seed N          seeded fault-injection plan over the
 *                           worker processes (tests/CI only)
 *   --strict                exit 1 if any manifest line was malformed,
 *                           any request was shed, or any typed
 *                           outcome is a failure (default: exit 0
 *                           whenever every request resolved)
 *
 * Worker mode (internal; spawned by a worker-process slot):
 *   tapacs-serve --worker [--cache-dir=D] [--warm-start=0|1]
 *                [--fault=SPEC]
 * speaks the serve/wire frame protocol on fds 0 (in) and 3 (out).
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cache/compile_cache.hh"
#include "cache/store.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "obs/metrics.hh"
#include "serve/chaos.hh"
#include "serve/manifest.hh"
#include "serve/service.hh"
#include "serve/worker.hh"

using namespace tapacs;

namespace
{

volatile std::sig_atomic_t gDrainRequested = 0;

void
onSignal(int)
{
    gDrainRequested = 1;
}

struct CliOptions
{
    std::string manifest;
    int threads = 0;
    int workers = 0;
    int repeat = 1;
    bool warmStart = false;
    bool noCache = false;
    std::string cacheDir;
    double deadlineMs = -1.0;
    int maxQueue = 0;
    bool blockOnFull = false;
    int retries = 0;
    int breakerThreshold = 0;
    bool replay = false;
    /** Retained-result cap override (< 0 = service default). */
    int retain = -1;
    std::string journalPath;
    std::string workerExe;
    double heartbeatTimeoutMs = 1000.0;
    int restartLimit = 4;
    bool haveChaosSeed = false;
    std::uint64_t chaosSeed = 0;
    bool strict = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: tapacs-serve [MANIFEST] [--threads N] [--workers N] "
        "[--repeat N] [--warm-start] [--no-cache] [--cache-dir DIR] "
        "[--deadline-ms N] [--max-queue N] [--block-on-full] "
        "[--retries N] [--breaker-threshold N] [--replay] "
        "[--retain N] [--journal PATH] [--worker-exe PATH] "
        "[--heartbeat-timeout-ms N] [--restart-limit N] "
        "[--chaos-seed N] [--strict]\n"
        "       tapacs-serve --worker [--cache-dir=D] "
        "[--warm-start=0|1] [--fault=SPEC]\n");
    std::exit(2);
}

/** Internal --worker mode: flags are `--key=value` (the process slot
 *  builds the argv; no human types these). */
int
workerMain(int argc, char **argv)
{
    serve::WorkerConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--worker")
            continue;
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
            std::fprintf(stderr, "worker: bad flag '%s'\n",
                         arg.c_str());
            return 2;
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (key == "--cache-dir") {
            config.cacheDir = value;
        } else if (key == "--warm-start") {
            config.warmStart = value == "1";
        } else if (key == "--fault") {
            if (!serve::decodeWorkerFault(value, &config.fault)) {
                std::fprintf(stderr, "worker: bad fault '%s'\n",
                             value.c_str());
                return 2;
            }
        } else {
            std::fprintf(stderr, "worker: unknown flag '%s'\n",
                         key.c_str());
            return 2;
        }
    }
    return serve::runWorker(config);
}

/**
 * Worker-executable resolution: @p configured if non-empty, else
 * $TAPACS_WORKER_EXE, else /proc/self/exe, else "". No existence
 * check — a missing binary surfaces as spawn failures and ends in
 * quarantine, which is itself a tested path.
 */
std::string
resolveWorkerExe(const std::string &configured)
{
    if (!configured.empty())
        return configured;
    if (const char *env = std::getenv("TAPACS_WORKER_EXE"))
        if (*env != '\0')
            return env;
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--threads")
            opt.threads = std::atoi(next().c_str());
        else if (arg == "--workers")
            opt.workers = std::atoi(next().c_str());
        else if (arg == "--repeat")
            opt.repeat = std::atoi(next().c_str());
        else if (arg == "--warm-start")
            opt.warmStart = true;
        else if (arg == "--no-cache")
            opt.noCache = true;
        else if (arg == "--cache-dir")
            opt.cacheDir = next();
        else if (arg == "--deadline-ms")
            opt.deadlineMs = std::atof(next().c_str());
        else if (arg == "--max-queue")
            opt.maxQueue = std::atoi(next().c_str());
        else if (arg == "--block-on-full")
            opt.blockOnFull = true;
        else if (arg == "--retries")
            opt.retries = std::atoi(next().c_str());
        else if (arg == "--breaker-threshold")
            opt.breakerThreshold = std::atoi(next().c_str());
        else if (arg == "--replay")
            opt.replay = true;
        else if (arg == "--retain") {
            opt.retain = std::atoi(next().c_str());
            if (opt.retain < 0) {
                std::fprintf(stderr, "--retain must be >= 0\n");
                std::exit(2);
            }
        } else if (arg == "--journal")
            opt.journalPath = next();
        else if (arg == "--worker-exe")
            opt.workerExe = next();
        else if (arg == "--heartbeat-timeout-ms")
            opt.heartbeatTimeoutMs = std::atof(next().c_str());
        else if (arg == "--restart-limit")
            opt.restartLimit = std::atoi(next().c_str());
        else if (arg == "--chaos-seed") {
            opt.haveChaosSeed = true;
            opt.chaosSeed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--strict")
            opt.strict = true;
        else if (arg == "--help" || arg == "-h")
            usage();
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
        } else if (opt.manifest.empty())
            opt.manifest = arg;
        else
            usage();
    }
    if (opt.manifest.empty() && opt.journalPath.empty()) {
        std::fprintf(stderr, "need a MANIFEST, a --journal with "
                             "leftovers to replay, or both\n");
        usage();
    }
    if (opt.workers < 0 || opt.workers > 64) {
        std::fprintf(stderr, "--workers must be in [0, 64] (0 = "
                             "in-thread slots)\n");
        std::exit(2);
    }
    // Mirror the manifest's per-request repeat cap so the combined
    // repeat (computed in 64-bit below) stays bounded.
    if (opt.repeat < 1 || opt.repeat > 10'000) {
        std::fprintf(stderr, "--repeat must be in [1, 10000]\n");
        std::exit(2);
    }
    return opt;
}

const char *
statusLabel(const serve::ServeOutcome &o)
{
    if (o.status.ok())
        return o.degraded ? "degraded" : "ok";
    return toString(o.status.code());
}

void
printMetrics(const obs::MetricsSnapshot &snap, const char *prefix)
{
    const obs::MetricsSnapshot part = snap.filterPrefix(prefix);
    if (!part.counters.empty() || !part.gauges.empty())
        std::printf("\n%s", part.renderTable().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--worker") == 0)
            return workerMain(argc, argv);

    const CliOptions opt = parseArgs(argc, argv);

    serve::ParsedManifest manifest;
    if (!opt.manifest.empty()) {
        std::ifstream in(opt.manifest);
        if (!in) {
            std::fprintf(stderr, "cannot open manifest '%s'\n",
                         opt.manifest.c_str());
            return 2;
        }
        std::ostringstream body;
        body << in.rdbuf();
        manifest = serve::parseManifest(body.str());
        for (const serve::ManifestDiagnostic &d : manifest.diagnostics)
            std::fprintf(stderr, "%s:%d: %s\n", opt.manifest.c_str(),
                         d.line, d.message.c_str());
        if (manifest.requests.empty() && opt.journalPath.empty()) {
            std::fprintf(stderr,
                         "manifest '%s' contains no usable requests\n",
                         opt.manifest.c_str());
            return opt.strict || manifest.diagnostics.empty() ? 2 : 0;
        }
    }

    std::unique_ptr<cache::CacheStore> diskStore;
    std::unique_ptr<cache::CompileCache> diskCache;
    cache::CompileCache *cc = nullptr;
    if (!opt.cacheDir.empty()) {
        cache::CacheStore::Options storeOpt;
        storeOpt.directory = opt.cacheDir;
        diskStore = std::make_unique<cache::CacheStore>(storeOpt);
        diskCache = std::make_unique<cache::CompileCache>(*diskStore);
        cc = diskCache.get();
    } else if (!opt.noCache) {
        cc = &cache::CompileCache::global();
    }

    serve::ServeOptions sopt;
    sopt.threads = opt.workers > 0   ? opt.workers
                   : opt.threads > 0 ? opt.threads
                                     : ThreadPool::defaultThreadCount();
    sopt.maxQueue = opt.maxQueue;
    sopt.blockOnFull = opt.blockOnFull;
    sopt.defaultDeadlineSeconds =
        opt.deadlineMs < 0.0 ? -1.0 : opt.deadlineMs / 1000.0;
    sopt.maxRetries = opt.retries;
    sopt.breakerThreshold = opt.breakerThreshold;
    sopt.warmStart = opt.warmStart;
    sopt.cache = cc;
    if (opt.retain >= 0)
        sopt.retainResults = opt.retain;
    sopt.journalPath = opt.journalPath;
    sopt.heartbeatTimeoutSeconds = opt.heartbeatTimeoutMs / 1000.0;
    sopt.restartLimit = opt.restartLimit;
    if (opt.workers > 0) {
        sopt.workerExe = resolveWorkerExe(opt.workerExe);
        if (sopt.workerExe.empty()) {
            std::fprintf(stderr, "tapacs-serve: no worker executable: "
                                 "pass --worker-exe or set "
                                 "TAPACS_WORKER_EXE\n");
            return 2;
        }
    }

    std::int64_t executions = 0;
    for (const serve::Request &req : manifest.requests)
        executions += static_cast<std::int64_t>(req.repeat) * opt.repeat;
    if (opt.haveChaosSeed) {
        sopt.chaos = serve::randomPlan(
            opt.chaosSeed, opt.workers,
            static_cast<int>(std::max<std::int64_t>(executions, 1)));
        inform("tapacs-serve: chaos seed %llu armed",
               (unsigned long long)opt.chaosSeed);
    }

    // Graceful drain on SIGTERM/SIGINT: the handler only sets a flag;
    // the admission and wait loops below turn it into requestDrain().
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = onSignal;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);

    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    serve::CompileService service(sopt);
    if (!service.startStatus().ok()) {
        std::fprintf(stderr, "tapacs-serve: %s\n",
                     service.startStatus().message().c_str());
        return 2;
    }

    inform("tapacs-serve: %zu replayed/resubmitted from journal, "
           "%lld manifest execution(s), %d %s, cache %s",
           service.admitted(), (long long)executions, sopt.threads,
           opt.workers > 0 ? "worker process(es)" : "in-thread slot(s)",
           cc == nullptr ? "off"
                         : (cc->store().directory().empty()
                                ? "memory"
                                : cc->store().directory().c_str()));

    std::int64_t shed = 0;
    for (const serve::Request &req : manifest.requests) {
        if (gDrainRequested)
            break; // stop admitting; admitted work still resolves
        serve::Request expanded = req;
        expanded.repeat = req.repeat * opt.repeat;
        const std::size_t before = service.admitted();
        const Status st = service.submit(expanded);
        if (st.code() == StatusCode::ResourceExhausted) {
            // Copies past the first shed one are not submitted.
            shed += expanded.repeat -
                    static_cast<std::int64_t>(service.admitted() - before);
            std::fprintf(stderr, "tapacs-serve: %s\n",
                         st.message().c_str());
        } else if (!st.ok()) {
            std::fprintf(stderr, "tapacs-serve: submit '%s': %s\n",
                         req.name.c_str(), st.message().c_str());
            return 2;
        }
        // Replay mode serializes the trace: every request finishes
        // before the next is submitted, so a later incremental=
        // request always finds its base= result already retained.
        if (opt.replay)
            service.drain();
    }

    // Interruptible wait: block in small slices so a signal turns
    // into a drain request promptly.
    bool drained = false;
    while (service.completedCount() < service.admitted()) {
        if (gDrainRequested && !drained) {
            inform("tapacs-serve: draining (signal); queued requests "
                   "are deferred");
            service.requestDrain();
            drained = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const int quarantined = service.quarantinedWorkers();
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
    const double wall =
        std::chrono::duration<double>(clock::now() - t0).count();

    std::printf("%-6s %-20s %-18s %3s %2s %6s %9s %12s %14s %12s %16s\n",
                "id", "request", "status", "att", "rp", "tasks",
                "seconds", "fmax", "cut", "sim", "digest");
    int failures = 0;
    for (const serve::ServeOutcome &o : outcomes) {
        if (!o.status.ok())
            ++failures;
        std::printf(
            "%-6llu %-20s %-18s %3d %2s %6d %9.3f %12s %14s %12s "
            "%016llx\n",
            (unsigned long long)o.id,
            o.name.empty() ? "-" : o.name.c_str(), statusLabel(o),
            o.attempts, o.replayed ? "R" : "-", o.tasks, o.seconds,
            o.routable ? formatFrequency(o.fmax).c_str() : "-",
            o.routable ? formatBytes(o.cutTrafficBytes).c_str() : "-",
            o.simulated ? formatSeconds(o.simMakespan).c_str() : "-",
            (unsigned long long)o.resultDigest);
        if (!o.failureReason.empty())
            std::printf("  reason: %s\n", o.failureReason.c_str());
        if (!o.deltaSummary.empty())
            std::printf("  delta: %s\n", o.deltaSummary.c_str());
        if (o.explored)
            std::printf("  explore: %d point(s), %d on the frontier, "
                        "cache hit rate %.1f%%\n",
                        o.explorePoints, o.exploreFrontier,
                        100.0 * o.exploreHitRate);
        if (o.degradedReason.find("incremental:") != std::string::npos)
            std::printf("  note:  %s\n", o.degradedReason.c_str());
    }
    std::printf("\n%zu outcome(s) in %.3fs wall; %d failure(s), "
                "%lld shed, %d worker(s) quarantined%s\n",
                outcomes.size(), wall, failures, (long long)shed,
                quarantined,
                drained ? "; drained early (queued requests deferred)"
                        : "");

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    printMetrics(snap, "tapacs.serve.");
    printMetrics(snap, "tapacs.fleet.");
    // Worker processes keep their own cache counters: show this
    // process's only when its cache did any work.
    const std::int64_t hits = snap.hasCounter("tapacs.cache.hits")
                                  ? snap.counterValue("tapacs.cache.hits")
                                  : 0;
    const std::int64_t lookups =
        hits + (snap.hasCounter("tapacs.cache.misses")
                    ? snap.counterValue("tapacs.cache.misses")
                    : 0);
    if (lookups > 0) {
        printMetrics(snap, "tapacs.cache.");
        std::printf("cache hit rate: %.1f%% (%lld/%lld)\n",
                    100.0 * static_cast<double>(hits) /
                        static_cast<double>(lookups),
                    (long long)hits, (long long)lookups);
    }

    if (opt.strict && (failures > 0 || shed > 0 || !manifest.clean()))
        return 1;
    return 0;
}
