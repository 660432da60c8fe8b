/**
 * @file
 * Reuse signatures and deltas for incremental recompilation.
 *
 * A compile that runs with caching enabled records, per solver-heavy
 * phase, the exact content key and entry bytes of every artifact it
 * produced or reused: one "hls" artifact per task, one "l1" artifact
 * for the inter-FPGA solve, and per device one "l2place" artifact (its
 * level-2 placement) and one "l2bind" artifact (its HBM binding). The
 * bundle — a CompileSignature — is attached to the CompileResult and
 * can be saved to a file (`tapacs-compile --state`) or retained
 * in-process (`CompileService`).
 *
 * recompile() seeds those artifacts back into a cache store and runs
 * the ordinary compile flow, so reuse is purely content-addressed:
 * an artifact is reused iff the edited graph re-derives the same key,
 * which is exactly the condition under which the stored bytes are
 * bit-identical to what a cold solve would produce. The CompileDelta
 * reports, per phase, how much of the prior compile carried over.
 */

#ifndef TAPACS_CACHE_DELTA_HH
#define TAPACS_CACHE_DELTA_HH

#include <string>
#include <vector>

#include "cache/key.hh"

namespace tapacs::cache
{

/** Artifact tier names (Artifact::tier). */
inline constexpr const char *kTierHls = "hls";
inline constexpr const char *kTierL1 = "l1";
inline constexpr const char *kTierL2Place = "l2place";
inline constexpr const char *kTierL2Bind = "l2bind";

/** One reusable artifact: tier, exact content key, entry bytes. */
struct Artifact
{
    std::string tier;
    CacheKey key;
    std::string blob;
};

/**
 * Reuse signature of one compile. `solverFp` is the solver-scoped
 * structural fingerprint of the compiled graph — a cheap equality
 * probe ("nothing the floorplanner sees changed") used by the delta
 * report, not a validity condition: seeding is content-addressed, so
 * a partially-stale signature still yields partial reuse.
 */
struct CompileSignature
{
    /** Mirrors kSchemaVersion at capture time; a mismatched prior is
     *  rejected with a typed degradedReason instead of being seeded
     *  (its keys could not hit anyway). */
    int schemaVersion = 0;
    /** L1Backend the prior ran (0 = exact, 1 = multilevel), for the
     *  typed backend-mismatch fallback. */
    int l1Backend = 0;
    CacheKey solverFp;
    std::vector<Artifact> artifacts;

    bool empty() const { return artifacts.empty(); }
};

/**
 * What an incremental recompile reused versus re-ran. Computed after
 * the fact by comparing the new compile's artifact keys against the
 * prior's, so it is informational: under a shared pre-populated
 * cache it can over-report reuse (a "re-run" phase may itself have
 * hit the shared cache).
 */
struct CompileDelta
{
    /** True when the recompile() path ran (even if it degraded to a
     *  cold compile); false on a plain compile(). */
    bool attempted = false;
    int hlsTotal = 0;
    int hlsReused = 0;
    bool l1Reused = false;
    int devicesTotal = 0;
    int devicesReused = 0;

    /** One-line human-readable report. */
    std::string summary() const;
};

/** Serialize a signature to the %a-exact text form (state files). */
std::string serializeSignature(const CompileSignature &sig);

/** Total parse; false on any malformation (callers degrade to cold
 *  compile, never crash). */
bool parseSignature(const std::string &text, CompileSignature *out);

} // namespace tapacs::cache

#endif // TAPACS_CACHE_DELTA_HH
