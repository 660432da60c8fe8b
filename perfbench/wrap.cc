/**
 * @file
 * Linker wrappers of the traced benchmark binary: one span around every call
 * into a layer's public entry point, with no probe inside src/.
 *
 * The traced executable links with `--wrap=SYM` for every SYM named
 * in a PB_WRAP line below (CMakeLists.txt extracts them). The linker
 * then resolves each cross-object reference to SYM as __wrap_SYM,
 * which records a span and calls __real_SYM, the original definition.
 * Calls inside the defining object file are not redirected.
 *
 * A wrapper is declared with the entry point's own C++ parameter and
 * return types; member functions take `this` as the first parameter,
 * which is how the Itanium C++ ABI passes it. The static_asserts pin
 * every signature, so a changed entry point fails to compile here
 * instead of miscalling; a renamed one fails to link (__real_SYM is
 * then undefined).
 */

#include <type_traits>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "cache/compile_cache.hh"
#include "cache/key.hh"
#include "compiler/compiler.hh"
#include "explore/explore.hh"
#include "floorplan/hbm_binding.hh"
#include "floorplan/intra_fpga.hh"
#include "hls/synthesis.hh"
#include "network/cluster.hh"
#include "partition/multilevel.hh"
#include "pipeline/pipelining.hh"
#include "serve/execute.hh"
#include "serve/service.hh"
#include "sim/dataflow_sim.hh"
#include "spans.hh"
#include "timing/frequency.hh"

using namespace tapacs;
using perfbench::ScopedSpan;

#define PB_EXPAND(...) __VA_ARGS__

/** Free function FN with mangled name SYM. */
#define PB_WRAP(SYM, LAYER, FN, RET, PARAMS, ARGS, AFTER)                 \
    static_assert(std::is_same_v<decltype(&FN), RET(*) PARAMS>);          \
    extern "C" RET __real_##SYM PARAMS;                                   \
    extern "C" RET __wrap_##SYM PARAMS                                    \
    {                                                                     \
        ScopedSpan span(LAYER, #FN);                                      \
        RET result = __real_##SYM ARGS;                                   \
        AFTER;                                                            \
        return result;                                                    \
    }

/** Member function CLS::FN with mangled name SYM. */
#define PB_WRAP_METHOD(SYM, LAYER, CLS, FN, RET, PARAMS, ARGS)            \
    static_assert(std::is_same_v<decltype(&CLS::FN), RET(CLS::*) PARAMS>); \
    extern "C" RET __real_##SYM(CLS *self, PB_EXPAND PARAMS);             \
    extern "C" RET __wrap_##SYM(CLS *self, PB_EXPAND PARAMS)              \
    {                                                                     \
        ScopedSpan span(LAYER, #CLS "::" #FN);                            \
        return __real_##SYM(self, PB_EXPAND ARGS);                        \
    }

namespace
{

void
noteSimulation(const StatusOr<sim::SimResult> &r)
{
    if (perfbench::tracing() && r.ok())
        perfbench::tally("sim.events", r.value().stats.get("events"));
}

/** Tally one solve that ran (a cache hit calls no solver). */
void
noteSolve(const char *level, const ilp::SolverStats &s)
{
    if (!perfbench::tracing() || (s.nodesExplored == 0 && s.lpIterations == 0))
        return;
    const std::string p = level;
    perfbench::tally(p + ".nodes", s.nodesExplored);
    perfbench::tally(p + ".pivots", s.lpIterations);
    perfbench::tally(p + ".wall_s", s.wallSeconds);
    perfbench::tally(p + ".solves", 1.0);
    perfbench::tally(p + ".optimal", s.provenOptimal ? 1.0 : 0.0);
}

} // namespace

// ---- hls ------------------------------------------------------------
PB_WRAP(_ZN6tapacs3hls13synthesizeAllERKSt6vectorINS0_6TaskIrESaIS2_EEi,
        "hls", hls::synthesizeAll, hls::ProgramSynthesis,
        (const std::vector<hls::TaskIr> &tasks, int maxThreads),
        (tasks, maxThreads), )

// ---- floorplan ------------------------------------------------------
PB_WRAP(_ZN6tapacs9partition7solveL1ERKNS_9TaskGraphERKNS_7ClusterERKNS_16InterFpgaOptionsE,
        "floorplan", partition::solveL1, InterFpgaResult,
        (const TaskGraph &g, const Cluster &cluster,
         const InterFpgaOptions &options),
        (g, cluster, options), noteSolve("ilp.l1", result.solverStats))
PB_WRAP(_ZN6tapacs20floorplanIntraDeviceERKNS_9TaskGraphERKNS_11DeviceModelERKSt6vectorIiSaIiEERKNS_16IntraFpgaOptionsE,
        "floorplan", floorplanIntraDevice, IntraDeviceResult,
        (const TaskGraph &g, const DeviceModel &dev,
         const std::vector<VertexId> &verts,
         const IntraFpgaOptions &options),
        (g, dev, verts, options), noteSolve("ilp.l2", result.stats))
PB_WRAP(_ZN6tapacs13bindHbmDeviceERKNS_9TaskGraphERKNS_11DeviceModelERKNS_13SlotPlacementERKSt6vectorIiSaIiEEb,
        "floorplan", bindHbmDevice, HbmDeviceBinding,
        (const TaskGraph &g, const DeviceModel &dev,
         const SlotPlacement &placement,
         const std::vector<VertexId> &users, bool sweep),
        (g, dev, placement, users, sweep), )

// ---- pipeline / timing ----------------------------------------------
PB_WRAP(_ZN6tapacs14planPipeliningERKNS_9TaskGraphERKNS_7ClusterERKNS_15DevicePartitionERKNS_13SlotPlacementERKNS_15PipelineOptionsE,
        "pipeline", planPipelining, PipelinePlan,
        (const TaskGraph &g, const Cluster &cluster,
         const DevicePartition &partition, const SlotPlacement &placement,
         const PipelineOptions &options),
        (g, cluster, partition, placement, options), )
PB_WRAP(_ZN6tapacs14estimateTimingERKNS_9TaskGraphERKNS_7ClusterERKNS_15DevicePartitionERKNS_13SlotPlacementERKNS_12PipelinePlanERKSt6vectorIdSaIdEERKNS_14ResourceVectorERKNS_13TimingOptionsEPKNS_10HbmBindingE,
        "timing", estimateTiming, TimingResult,
        (const TaskGraph &g, const Cluster &cluster,
         const DevicePartition &partition, const SlotPlacement &placement,
         const PipelinePlan &plan, const std::vector<Hertz> &fmaxCeiling,
         const ResourceVector &reserved, const TimingOptions &options,
         const HbmBinding *binding),
        (g, cluster, partition, placement, plan, fmaxCeiling, reserved,
         options, binding), )

// ---- cache ----------------------------------------------------------
PB_WRAP(_ZN6tapacs5cache17solverFingerprintERKNS_9TaskGraphE, "cache",
        cache::solverFingerprint, cache::GraphFingerprint,
        (const TaskGraph &g), (g), )
PB_WRAP(_ZN6tapacs5cache10hlsTaskKeyERKNS_3hls6TaskIrE, "cache",
        cache::hlsTaskKey, cache::CacheKey, (const hls::TaskIr &task),
        (task), )
PB_WRAP(_ZN6tapacs5cache8interKeyERKNS0_16GraphFingerprintERKNS_7ClusterEiRKNS_16InterFpgaOptionsE,
        "cache", cache::interKey, cache::CacheKey,
        (const cache::GraphFingerprint &fp, const Cluster &cluster,
         int numFpgas, const InterFpgaOptions &options),
        (fp, cluster, numFpgas, options), )
PB_WRAP(_ZN6tapacs5cache14intraDeviceKeyERKNS_9TaskGraphERKNS_15DevicePartitionEiRKNS_11DeviceModelERKNS_16IntraFpgaOptionsERKNS_17HbmBindingOptionsE,
        "cache", cache::intraDeviceKey, cache::CacheKey,
        (const TaskGraph &g, const DevicePartition &partition,
         DeviceId device, const DeviceModel &dev,
         const IntraFpgaOptions &options,
         const HbmBindingOptions &bindOptions),
        (g, partition, device, dev, options, bindOptions), )
PB_WRAP_METHOD(_ZN6tapacs5cache12CompileCache6getHlsERKNS0_8CacheKeyEPNS_3hls15SynthesisResultE,
               "cache", cache::CompileCache, getHls, bool,
               (const cache::CacheKey &key, hls::SynthesisResult *out),
               (key, out))
PB_WRAP_METHOD(_ZN6tapacs5cache12CompileCache6putHlsERKNS0_8CacheKeyERKNS_3hls15SynthesisResultE,
               "cache", cache::CompileCache, putHls, void,
               (const cache::CacheKey &key,
                const hls::SynthesisResult &result),
               (key, result))
PB_WRAP_METHOD(_ZN6tapacs5cache12CompileCache8getInterERKNS0_8CacheKeyERKNS0_16GraphFingerprintEPNS_15InterFpgaResultE,
               "cache", cache::CompileCache, getInter, bool,
               (const cache::CacheKey &key,
                const cache::GraphFingerprint &fp, InterFpgaResult *out),
               (key, fp, out))
PB_WRAP_METHOD(_ZN6tapacs5cache12CompileCache8putInterERKNS0_8CacheKeyERKNS0_16GraphFingerprintERKNS_15InterFpgaResultE,
               "cache", cache::CompileCache, putInter, void,
               (const cache::CacheKey &key,
                const cache::GraphFingerprint &fp,
                const InterFpgaResult &result),
               (key, fp, result))
PB_WRAP_METHOD(_ZN6tapacs5cache12CompileCache18getFamilyPartitionERKNS0_8CacheKeyERKNS0_16GraphFingerprintEPSt6vectorIiSaIiEE,
               "cache", cache::CompileCache, getFamilyPartition, bool,
               (const cache::CacheKey &key,
                const cache::GraphFingerprint &fp,
                std::vector<DeviceId> *deviceOf),
               (key, fp, deviceOf))
PB_WRAP_METHOD(_ZN6tapacs5cache12CompileCache18putFamilyPartitionERKNS0_8CacheKeyERKNS0_16GraphFingerprintERKNS_15DevicePartitionE,
               "cache", cache::CompileCache, putFamilyPartition, void,
               (const cache::CacheKey &key,
                const cache::GraphFingerprint &fp,
                const DevicePartition &partition),
               (key, fp, partition))
PB_WRAP_METHOD(_ZN6tapacs5cache12CompileCache14getIntraDeviceERKNS0_8CacheKeyEPNS0_16IntraDeviceEntryE,
               "cache", cache::CompileCache, getIntraDevice, bool,
               (const cache::CacheKey &key,
                cache::IntraDeviceEntry *out),
               (key, out))
PB_WRAP_METHOD(_ZN6tapacs5cache12CompileCache14putIntraDeviceERKNS0_8CacheKeyERKNS0_16IntraDeviceEntryE,
               "cache", cache::CompileCache, putIntraDevice, void,
               (const cache::CacheKey &key,
                const cache::IntraDeviceEntry &entry),
               (key, entry))

// ---- sim / explore / compiler ---------------------------------------
PB_WRAP(_ZN6tapacs3sim11trySimulateERKNS_9TaskGraphERKNS_7ClusterERKNS_15DevicePartitionERKNS_10HbmBindingERKNS_12PipelinePlanERKSt6vectorIdSaIdEERKNS0_10SimOptionsE,
        "sim", sim::trySimulate, StatusOr<sim::SimResult>,
        (const TaskGraph &g, const Cluster &cluster,
         const DevicePartition &partition, const HbmBinding &binding,
         const PipelinePlan &plan, const std::vector<Hertz> &deviceFmax,
         const sim::SimOptions &options),
        (g, cluster, partition, binding, plan, deviceFmax, options),
        noteSimulation(result))
PB_WRAP(_ZN6tapacs7explore10runExploreERKNS_9TaskGraphERKSt6vectorINS_3hls6TaskIrESaIS6_EERKNS0_11ExploreSpecERKNS0_14ExploreOptionsE,
        "explore", explore::runExplore, explore::ExploreResult,
        (const TaskGraph &g, const std::vector<hls::TaskIr> &tasks,
         const explore::ExploreSpec &spec,
         const explore::ExploreOptions &options),
        (g, tasks, spec, options), )
PB_WRAP(_ZN6tapacs14compileProgramERNS_9TaskGraphERKSt6vectorINS_3hls6TaskIrESaIS4_EERKNS_7ClusterERKNS_14CompileOptionsE,
        "compiler", compileProgram, CompileResult,
        (TaskGraph &g, const std::vector<hls::TaskIr> &tasks,
         const Cluster &cluster, const CompileOptions &options),
        (g, tasks, cluster, options), )

// ---- apps / network -------------------------------------------------
PB_WRAP(_ZN6tapacs4apps12buildStencilERKNS0_13StencilConfigE, "apps",
        apps::buildStencil, apps::AppDesign,
        (const apps::StencilConfig &config), (config), )
PB_WRAP(_ZN6tapacs4apps13buildPageRankERKNS0_14PageRankConfigE, "apps",
        apps::buildPageRank, apps::AppDesign,
        (const apps::PageRankConfig &config), (config), )
PB_WRAP(_ZN6tapacs4apps8buildKnnERKNS0_9KnnConfigE, "apps",
        apps::buildKnn, apps::AppDesign, (const apps::KnnConfig &config),
        (config), )
PB_WRAP(_ZN6tapacs4apps8buildCnnERKNS0_9CnnConfigE, "apps",
        apps::buildCnn, apps::AppDesign, (const apps::CnnConfig &config),
        (config), )
PB_WRAP(_ZN6tapacs19tryMakePaperTestbedEiPNS_7ClusterE, "network",
        tryMakePaperTestbed, Status, (int numFpgas, Cluster *out),
        (numFpgas, out), )

// ---- serve ----------------------------------------------------------
PB_WRAP(_ZN6tapacs5serve14executeRequestERKNS0_7RequestERKNS_7ContextERKNS0_13ExecutePolicyE,
        "serve", serve::executeRequest, serve::ServeOutcome,
        (const serve::Request &req, const Context &ctx,
         const serve::ExecutePolicy &policy),
        (req, ctx, policy), )
PB_WRAP_METHOD(_ZN6tapacs5serve14CompileService6submitENS0_7RequestE,
               "serve", serve::CompileService, submit, Status,
               (serve::Request req), (std::move(req)))

// drain() takes no arguments, which PB_WRAP_METHOD cannot spell.
static_assert(std::is_same_v<decltype(&serve::CompileService::drain),
                             void (serve::CompileService::*)()>);
extern "C" void
__real__ZN6tapacs5serve14CompileService5drainEv(serve::CompileService *self);
extern "C" void
__wrap__ZN6tapacs5serve14CompileService5drainEv(serve::CompileService *self)
{
    ScopedSpan span("serve", "serve::CompileService::drain");
    __real__ZN6tapacs5serve14CompileService5drainEv(self);
}
