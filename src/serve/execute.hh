/**
 * @file
 * The request-execution core shared by every serving tier.
 *
 * executeRequest() is the one function that turns a manifest Request
 * into a typed ServeOutcome: build/parse the task graph, compile (or
 * recompile against a retained base), optionally simulate or sweep
 * the design space, all under the caller's Context. CompileService's
 * in-thread slots call it on their own threads; a worker process
 * (serve/worker) calls the same function, which is what makes a
 * re-dispatched request bit-identical to an uninterrupted one — both
 * executors run literally the same code against the same
 * content-addressed cache.
 *
 * ExecutePolicy carries the service-level hooks the core needs
 * (cache, warm-start flag, retained-result lookup/store) without
 * coupling it to CompileService; a process with no retention just
 * leaves the callbacks empty.
 *
 * resultDigest() folds the deterministic fields of a CompileResult —
 * mapping, placement, binding, pipeline totals, clocks — into a
 * CRC64. Wall-clock and solver-statistics fields are excluded, so
 * two runs of the same request agree on the digest iff they produced
 * the same design. The chaos suite compares digests across
 * fault-free and faulted runs to prove crash-retry idempotence.
 */

#ifndef TAPACS_SERVE_EXECUTE_HH
#define TAPACS_SERVE_EXECUTE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/context.hh"
#include "compiler/compiler.hh"
#include "serve/service.hh"

namespace tapacs::serve
{

/** Service-level hooks executeRequest() needs; all optional. */
struct ExecutePolicy
{
    /** Shared compile cache; nullptr = uncached. */
    cache::CompileCache *cache = nullptr;
    /** Family warm-start hints (CompileOptions::cacheWarmStart). */
    bool warmStart = false;
    /** Look up a retained result for incremental `base=` resolution;
     *  empty = nothing is ever retained (cold compiles only). */
    std::function<bool(const std::string &, CompileResult *)>
        findRetained;
    /** Offer a routable result for retention; empty = drop it. */
    std::function<void(const std::string &, const CompileResult &)>
        retain;
};

/**
 * Execute one attempt of @p req under @p ctx. Total: every failure
 * mode comes back as a typed ServeOutcome::status.
 */
ServeOutcome executeRequest(const Request &req, const Context &ctx,
                            const ExecutePolicy &policy);

/**
 * CRC64 over the deterministic fields of @p result (see file
 * comment). Pure function of the produced design.
 */
std::uint64_t resultDigest(const CompileResult &result);

} // namespace tapacs::serve

#endif // TAPACS_SERVE_EXECUTE_HH
