/**
 * @file
 * Compile-cache tests: canonical-key properties (relabeling
 * invariance, mutation sensitivity), store mechanics (LRU, metrics,
 * disk tier), the cold/warm differential (a cache hit never changes a
 * compile result), family warm-starts, the split level-2 placement and
 * binding tiers, and shared-cache concurrency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>

#include "apps/knn.hh"
#include "cache/compile_cache.hh"
#include "cache/delta.hh"
#include "cache/entry_io.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "compile_identity.hh"
#include "compiler/compiler.hh"
#include "hls/task_ir.hh"
#include "network/cluster.hh"
#include "network/topology.hh"
#include "obs/metrics.hh"
#include "serve/execute.hh"

namespace tapacs
{
namespace
{

constexpr int kPropertyCases = 200;

TEST(CacheKeyProperty, RelabelingHashesIdenticallyAndHitsTheCache)
{
    for (int seed = 0; seed < kPropertyCases; ++seed) {
        TaskGraph g = randomDesign(9000 + seed, 3 + seed % 3, 4);
        std::vector<VertexId> new_id;
        TaskGraph h = relabel(g, 77 + seed, &new_id);

        const cache::GraphFingerprint fg = cache::fingerprintGraph(g);
        const cache::GraphFingerprint fh = cache::fingerprintGraph(h);
        ASSERT_EQ(fg.structural, fh.structural) << "seed " << seed;

        const int fpgas = 2 + seed % 3;
        Cluster cluster = makePaperTestbed(fpgas);
        const InterFpgaOptions opts;
        ASSERT_EQ(cache::interKey(fg, cluster, fpgas, opts),
                  cache::interKey(fh, cluster, fpgas, opts))
            << "seed " << seed;

        // The relabeled twin must not just hash alike, it must *hit*:
        // a partition stored under g's key comes back under h's key
        // with every assignment transported through the isomorphism.
        cache::CacheStore store;
        cache::CompileCache cc(store);
        InterFpgaResult stored;
        stored.feasible = true;
        stored.cost = 123.5;
        stored.partition.deviceOf.resize(g.numVertices());
        for (VertexId v = 0; v < g.numVertices(); ++v)
            stored.partition.deviceOf[v] = v % fpgas;
        const cache::CacheKey key =
            cache::interKey(fg, cluster, fpgas, opts);
        cc.putInter(key, fg, stored);

        InterFpgaResult loaded;
        ASSERT_TRUE(cc.getInter(cache::interKey(fh, cluster, fpgas, opts),
                                fh, &loaded))
            << "seed " << seed;
        EXPECT_EQ(loaded.cost, stored.cost);
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            EXPECT_EQ(loaded.partition.deviceOf[new_id[v]],
                      stored.partition.deviceOf[v])
                << "seed " << seed << " vertex " << v;
        }
    }
}

TEST(CacheKeyProperty, AnySingleMutationChangesTheKey)
{
    for (int seed = 0; seed < kPropertyCases; ++seed) {
        Rng rng(31000 + seed);
        TaskGraph g = randomDesign(9000 + seed, 3 + seed % 3, 4);
        const int fpgas = 2 + seed % 3;
        Cluster cluster = makePaperTestbed(fpgas);
        InterFpgaOptions opts;
        const cache::CacheKey base = cache::interKey(
            cache::fingerprintGraph(g), cluster, fpgas, opts);

        // One random mutation per case, spread over every input class
        // the key must be sensitive to.
        const int kind = static_cast<int>(rng.uniformInt(0, 9));
        Cluster mutated_cluster = cluster;
        switch (kind) {
          case 0: { // FIFO width
            EdgeId e = rng.uniformInt(0, g.numEdges() - 1);
            g.edge(e).widthBits *= 2;
            break;
          }
          case 1: { // FIFO traffic volume
            EdgeId e = rng.uniformInt(0, g.numEdges() - 1);
            g.edge(e).totalBytes += 1.0;
            break;
          }
          case 2: { // FIFO depth
            EdgeId e = rng.uniformInt(0, g.numEdges() - 1);
            g.edge(e).depth += 1;
            break;
          }
          case 3: { // one resource-vector component
            VertexId v = rng.uniformInt(0, g.numVertices() - 1);
            g.vertex(v).area[ResourceKind::Lut] += 1.0;
            break;
          }
          case 4: { // work profile
            VertexId v = rng.uniformInt(0, g.numVertices() - 1);
            g.vertex(v).work.computeOps += 1.0;
            break;
          }
          case 5: { // memory channel demand
            VertexId v = rng.uniformInt(0, g.numVertices() - 1);
            g.vertex(v).work.memChannels += 1;
            break;
          }
          case 6: // topology
            mutated_cluster =
                Cluster(cluster.device(),
                        Topology(TopologyKind::Chain, fpgas));
            break;
          case 7: // threshold
            opts.threshold += 0.01;
            break;
          case 8: // solver budget
            opts.solver.timeLimitSeconds *= 2.0;
            break;
          case 9: // coarsening seed
            opts.seed += 1;
            break;
        }
        const cache::CacheKey mutated = cache::interKey(
            cache::fingerprintGraph(g), mutated_cluster, fpgas, opts);
        EXPECT_NE(base, mutated) << "seed " << seed << " kind " << kind;
    }
}

TEST(CacheKeyProperty, SolverFingerprintIgnoresTimingOnlyAttributes)
{
    // The incremental dirty-set computation keys the floorplan tiers
    // on solverFingerprint, which must be blind to attributes only
    // pipelining/timing/simulation read — an edit touching those
    // reuses the whole L1/L2 solution — while staying sensitive to
    // everything the solvers actually consume.
    for (int seed = 0; seed < kPropertyCases; ++seed) {
        Rng rng(47000 + seed);
        TaskGraph g = randomDesign(9000 + seed, 3 + seed % 3, 4);
        const cache::CacheKey base =
            cache::solverFingerprint(g).structural;

        // Timing-only edits: the solver fingerprint must not move.
        const int quiet = static_cast<int>(rng.uniformInt(0, 5));
        TaskGraph q = g;
        switch (quiet) {
          case 0:
            q.vertex(rng.uniformInt(0, q.numVertices() - 1))
                .work.computeOps += 1.0;
            break;
          case 1:
            q.vertex(rng.uniformInt(0, q.numVertices() - 1))
                .work.opsPerCycle *= 2.0;
            break;
          case 2:
            q.vertex(rng.uniformInt(0, q.numVertices() - 1))
                .work.numBlocks += 1;
            break;
          case 3:
            q.vertex(rng.uniformInt(0, q.numVertices() - 1))
                .work.memPortWidthBits *= 2;
            break;
          case 4:
            q.edge(rng.uniformInt(0, q.numEdges() - 1)).depth += 1;
            break;
          case 5:
            q.edge(rng.uniformInt(0, q.numEdges() - 1))
                .initialTokens += 1;
            break;
        }
        EXPECT_EQ(base, cache::solverFingerprint(q).structural)
            << "seed " << seed << " quiet kind " << quiet;

        // Solver-visible edits: the fingerprint must move.
        const int loud = static_cast<int>(rng.uniformInt(0, 5));
        TaskGraph m = g;
        switch (loud) {
          case 0:
            m.vertex(rng.uniformInt(0, m.numVertices() - 1))
                .area[ResourceKind::Lut] += 1.0;
            break;
          case 1:
            m.vertex(rng.uniformInt(0, m.numVertices() - 1))
                .work.memChannels += 1;
            break;
          case 2:
            m.vertex(rng.uniformInt(0, m.numVertices() - 1))
                .work.memReadBytes += 1.0;
            break;
          case 3:
            m.vertex(rng.uniformInt(0, m.numVertices() - 1))
                .work.memWriteBytes += 1.0;
            break;
          case 4:
            m.edge(rng.uniformInt(0, m.numEdges() - 1)).widthBits *= 2;
            break;
          case 5:
            m.edge(rng.uniformInt(0, m.numEdges() - 1)).totalBytes +=
                1.0;
            break;
        }
        EXPECT_NE(base, cache::solverFingerprint(m).structural)
            << "seed " << seed << " loud kind " << loud;

        // Same relabeling invariance as the full fingerprint.
        std::vector<VertexId> new_id;
        TaskGraph h = relabel(g, 311 + seed, &new_id);
        EXPECT_EQ(base, cache::solverFingerprint(h).structural)
            << "seed " << seed;
    }
}

TEST(CacheKeyProperty, ThreadAndServingKnobsNeverReachSolverKeys)
{
    // Thread counts are excluded from keys (results are invariant),
    // and the incremental serving knobs (`--incremental`, base=,
    // result retention) live outside CompileOptions entirely — the
    // observable contract is that a recompile-seeded flow and a cold
    // flow address identical artifact keys. Guard both halves.
    TaskGraph g = randomDesign(8181, 4, 4);
    Cluster cluster = makePaperTestbed(2);
    const cache::GraphFingerprint fp = cache::solverFingerprint(g);

    InterFpgaOptions serial;
    InterFpgaOptions wide = serial;
    wide.numThreads = 4;
    EXPECT_EQ(cache::interKey(fp, cluster, 2, serial),
              cache::interKey(fp, cluster, 2, wide));

    // Cold compile vs incremental recompile of the unchanged graph:
    // the signatures must list exactly the same keys — same count,
    // every cold key re-derived (full reuse), under a different
    // thread count on the recompile side.
    TaskGraph g1 = randomDesign(8181, 4, 4);
    TaskGraph g2 = randomDesign(8181, 4, 4);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    const CompileResult cold = compile(g1, cluster, opt);
    ASSERT_TRUE(cold.routable) << cold.failureReason;
    ASSERT_FALSE(cold.signature.empty());

    CompileOptions opt4 = opt;
    opt4.numThreads = 4;
    const CompileResult inc = recompile(cold, g2, cluster, opt4);
    ASSERT_TRUE(inc.routable) << inc.failureReason;
    EXPECT_TRUE(inc.delta.attempted);
    EXPECT_TRUE(inc.delta.l1Reused);
    EXPECT_EQ(inc.delta.devicesReused, inc.delta.devicesTotal);
    ASSERT_EQ(inc.signature.artifacts.size(),
              cold.signature.artifacts.size());
    std::vector<cache::CacheKey> a, b;
    for (const cache::Artifact &art : cold.signature.artifacts)
        a.push_back(art.key);
    for (const cache::Artifact &art : inc.signature.artifacts)
        b.push_back(art.key);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_TRUE(a == b);
}

TEST(CacheKeyProperty, DeviceCountAndWiringSeparateFamilies)
{
    TaskGraph g = randomDesign(1234, 4, 4);
    const cache::GraphFingerprint fp = cache::fingerprintGraph(g);
    Cluster two = makePaperTestbed(2);
    Cluster four = makePaperTestbed(4);
    EXPECT_NE(cache::interFamilyKey(fp, two, 2),
              cache::interFamilyKey(fp, four, 4));
    EXPECT_NE(cache::clusterKey(two), cache::clusterKey(four));
}

TEST(CacheStore, LruEvictsWithinBudgetAndCountsMetrics)
{
    obs::MetricsRegistry::global().resetPrefix("tapacs.cache.");
    cache::CacheStore::Options opt;
    opt.capacityBytes = 4096;
    opt.shards = 1; // single shard so the LRU order is observable
    cache::CacheStore store(std::move(opt));

    auto key = [](int i) {
        cache::KeyBuilder b;
        b.i64(i);
        return b.build();
    };
    const std::string blob(512, 'x');
    for (int i = 0; i < 32; ++i)
        store.put(key(i), blob);
    EXPECT_LE(store.bytesInMemory(), 4096u);

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_GT(snap.counterValue("tapacs.cache.evictions"), 0);
    EXPECT_EQ(snap.gaugeValue("tapacs.cache.bytes"),
              static_cast<double>(store.bytesInMemory()));

    // The most recent entries survived; the oldest were evicted.
    EXPECT_NE(store.get(key(31)), nullptr);
    EXPECT_EQ(store.get(key(0)), nullptr);
    const obs::MetricsSnapshot snap2 =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_GE(snap2.counterValue("tapacs.cache.hits"), 1);
    EXPECT_GE(snap2.counterValue("tapacs.cache.misses"), 1);
}

TEST(CacheStore, DiskTierRoundTripsAcrossStoreInstances)
{
    const std::string dir =
        testing::TempDir() + "/tapacs_cache_disk_test";
    std::filesystem::remove_all(dir);

    cache::CacheKey key;
    key.hi = 0x1234;
    key.lo = 0x5678;
    {
        cache::CacheStore::Options opt;
        opt.directory = dir;
        cache::CacheStore store(std::move(opt));
        store.put(key, "payload");
    }
    // A brand-new store over the same directory serves the entry from
    // disk and promotes it into memory.
    cache::CacheStore::Options opt;
    opt.directory = dir;
    cache::CacheStore store(std::move(opt));
    auto blob = store.get(key);
    ASSERT_NE(blob, nullptr);
    EXPECT_EQ(*blob, "payload");
    EXPECT_GT(store.bytesInMemory(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(CacheStore, MalformedEntryDegradesToMiss)
{
    cache::CacheStore store;
    cache::CompileCache cc(store);
    cache::CacheKey key;
    key.hi = 7;
    store.put(key, "hls1 garbage that does not parse");
    hls::SynthesisResult out;
    EXPECT_FALSE(cc.getHls(key, &out));
    store.put(key, "");
    EXPECT_FALSE(cc.getHls(key, &out));
}

TEST(CompileCache, HlsEntryRoundTripsExactly)
{
    cache::CacheStore store;
    cache::CompileCache cc(store);
    hls::SynthesisResult r;
    r.taskName = "task with spaces";
    r.area = ResourceVector(1234.5, 0.125, 3e-7, 42.0, 1.0);
    r.fmaxCeiling = 312.5e6;
    r.fsmStates = 17;
    r.pipelineDepth = 9;
    cache::CacheKey key;
    key.lo = 99;
    cc.putHls(key, r);
    hls::SynthesisResult out;
    ASSERT_TRUE(cc.getHls(key, &out));
    EXPECT_EQ(out.taskName, r.taskName);
    EXPECT_TRUE(out.area == r.area);
    EXPECT_EQ(out.fmaxCeiling, r.fmaxCeiling); // bit-exact, not approx
    EXPECT_EQ(out.fsmStates, r.fsmStates);
    EXPECT_EQ(out.pipelineDepth, r.pipelineDepth);
}

TEST(CompileCache, WarmCompileIsByteIdenticalToColdAndUncached)
{
    TaskGraph g1 = randomDesign(4242, 4, 4);
    TaskGraph g2 = randomDesign(4242, 4, 4);
    TaskGraph g3 = randomDesign(4242, 4, 4);
    Cluster cluster = makePaperTestbed(3);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 3;
    dropWallClockSolverLimits(&opt); // uncached vs cold: fresh solves

    const CompileResult uncached = compile(g1, cluster, opt);
    ASSERT_TRUE(uncached.routable) << uncached.failureReason;

    cache::CacheStore store;
    cache::CompileCache cc(store);
    opt.cache = &cc;
    const CompileResult cold = compile(g2, cluster, opt);
    const CompileResult warm = compile(g3, cluster, opt);

    expectResultsIdentical(uncached, cold, "cold vs uncached");
    expectResultsIdentical(cold, warm, "warm vs cold");
    // The warm run was served from the cache: both solver phases hit.
    EXPECT_GT(store.bytesInMemory(), 0u);
}

TEST(CompileCache, HlsPhaseMemoizesPerTask)
{
    obs::MetricsRegistry::global().resetPrefix("tapacs.cache.");
    Cluster cluster = makePaperTestbed(2);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    cache::CacheStore store;
    cache::CompileCache cc(store);
    opt.cache = &cc;

    // Two programs sharing task IRs: the second compile's phase 2 must
    // be served per-task from the cache.
    TaskGraph g1 = randomDesign(5555, 3, 3);
    std::vector<hls::TaskIr> tasks;
    for (VertexId v = 0; v < g1.numVertices(); ++v) {
        hls::TaskIr t;
        t.name = g1.vertex(v).name;
        t.intAluUnits = 4 + v;
        t.fsmStates = 3;
        tasks.push_back(t);
    }
    const CompileResult r1 = compileProgram(g1, tasks, cluster, opt);
    const std::int64_t misses_after_cold =
        obs::MetricsRegistry::global()
            .snapshot()
            .counterValue("tapacs.cache.misses");

    TaskGraph g2 = randomDesign(5555, 3, 3);
    const CompileResult r2 = compileProgram(g2, tasks, cluster, opt);
    expectResultsIdentical(r1, r2, "recompile");
    for (VertexId v = 0; v < g1.numVertices(); ++v)
        EXPECT_TRUE(g1.vertex(v).area == g2.vertex(v).area);

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    // Warm run added hits but no new HLS misses.
    EXPECT_EQ(snap.counterValue("tapacs.cache.misses"),
              misses_after_cold);
    EXPECT_GE(snap.counterValue("tapacs.cache.hits"),
              static_cast<std::int64_t>(tasks.size()));
}

TEST(CompileCache, FamilyEntryWarmStartsNearMissRequests)
{
    obs::MetricsRegistry::global().resetPrefix("tapacs.cache.");
    TaskGraph g1 = randomDesign(7777, 4, 4);
    TaskGraph g2 = randomDesign(7777, 4, 4);
    Cluster cluster = makePaperTestbed(2);
    cache::CacheStore store;
    cache::CompileCache cc(store);

    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    opt.cache = &cc;
    const CompileResult cold = compile(g1, cluster, opt);
    ASSERT_TRUE(cold.routable) << cold.failureReason;

    // Same design, different solver budget: the exact key misses, the
    // family entry supplies warm-start hints.
    opt.cacheWarmStart = true;
    opt.inter.solver.timeLimitSeconds *= 2.0;
    const CompileResult near = compile(g2, cluster, opt);
    ASSERT_TRUE(near.routable) << near.failureReason;
    EXPECT_TRUE(respectsThreshold(g2, cluster, near.partition,
                                  near.reservedPerDevice, opt.threshold));
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .snapshot()
                  .counterValue("tapacs.cache.warm_starts"),
              1);
}

// ---------------------------------------------------------------
// Level-2 tiers: one entry per device for the placement, one for the
// HBM binding computed from it.

/** Devices whose level-2 placement the compiler has solved so far
 *  (the counter is process-wide, so tests read differences). */
std::int64_t
l2Solves()
{
    return obs::MetricsRegistry::global()
        .counter("tapacs.compile.l2_solves")
        .value();
}

apps::AppDesign
knn2()
{
    return apps::buildKnn(apps::KnnConfig::scaled(1'000'000, 2, 2));
}

CompileOptions
knnOptions(bool bindingSweep)
{
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    opt.hbmBindingSweep = bindingSweep;
    dropWallClockSolverLimits(&opt); // node budgets only: reproducible
    return opt;
}

/** The artifacts of one tier in a compile's reuse signature. */
std::vector<cache::Artifact>
artifactsOf(const CompileResult &r, const char *tier)
{
    std::vector<cache::Artifact> out;
    for (const cache::Artifact &a : r.signature.artifacts) {
        if (a.tier == tier)
            out.push_back(a);
    }
    return out;
}

TEST(CompileCache, BindingPolicyChangeRebindsTheCachedPlacement)
{
    // The bisection never reads the binding policy, so a request that
    // flips only hbmBindingSweep must reuse every device's placement
    // and re-run just the binder — and still equal a cold compile.
    Cluster cluster = makePaperTestbed(2);
    cache::CacheStore store;
    cache::CompileCache cc(store);
    CompileOptions opt = knnOptions(true);
    opt.cache = &cc;
    apps::AppDesign a = knn2();
    const CompileResult swept =
        compileProgram(a.graph, a.tasks, cluster, opt);
    ASSERT_TRUE(swept.routable) << swept.failureReason;

    const std::int64_t solves = l2Solves();
    opt.hbmBindingSweep = false;
    apps::AppDesign b = knn2();
    const CompileResult nearest =
        compileProgram(b.graph, b.tasks, cluster, opt);
    ASSERT_TRUE(nearest.routable) << nearest.failureReason;
    EXPECT_EQ(l2Solves(), solves) << "a placement was re-solved";

    apps::AppDesign c = knn2();
    const CompileResult cold =
        compileProgram(c.graph, c.tasks, cluster, knnOptions(false));
    ASSERT_TRUE(cold.routable) << cold.failureReason;
    EXPECT_GT(l2Solves(), solves); // the cold compile did solve
    EXPECT_EQ(serve::resultDigest(nearest), serve::resultDigest(cold));
    expectResultsIdentical(cold, nearest, "rebound vs cold");

    // Same placements, one binding entry per policy.
    const auto places = artifactsOf(nearest, cache::kTierL2Place);
    const auto binds = artifactsOf(nearest, cache::kTierL2Bind);
    ASSERT_EQ(places.size(), 2u);
    ASSERT_EQ(binds.size(), 2u);
    for (std::size_t d = 0; d < places.size(); ++d) {
        EXPECT_EQ(places[d].key,
                  artifactsOf(swept, cache::kTierL2Place)[d].key);
        EXPECT_NE(binds[d].key,
                  artifactsOf(swept, cache::kTierL2Bind)[d].key);
    }
}

TEST(CompileCache, MismatchedBindingEntryIsRecomputedFromThePlacement)
{
    Cluster cluster = makePaperTestbed(2);
    cache::CacheStore store;
    cache::CompileCache cc(store);
    CompileOptions opt = knnOptions(true);
    opt.cache = &cc;
    apps::AppDesign a = knn2();
    const CompileResult cold =
        compileProgram(a.graph, a.tasks, cluster, opt);
    ASSERT_TRUE(cold.routable) << cold.failureReason;

    // Give every device's binding entry one grant more than the device
    // has memory users.
    const auto binds = artifactsOf(cold, cache::kTierL2Bind);
    ASSERT_EQ(binds.size(), 2u);
    std::vector<std::size_t> users;
    for (const cache::Artifact &art : binds) {
        HbmDeviceBinding hb;
        ASSERT_TRUE(cc.getHbmBinding(art.key, &hb));
        users.push_back(hb.grants.size());
        hb.grants.push_back({0});
        cc.putHbmBinding(art.key, hb);
    }
    ASSERT_GT(users[0] + users[1], 0u);

    const std::int64_t solves = l2Solves();
    apps::AppDesign b = knn2();
    const CompileResult warm =
        compileProgram(b.graph, b.tasks, cluster, opt);
    EXPECT_EQ(l2Solves(), solves) << "a placement was re-solved";
    expectResultsIdentical(cold, warm, "rebound vs cold");
    // The recomputed binding replaced the mismatched entry.
    for (std::size_t d = 0; d < binds.size(); ++d) {
        HbmDeviceBinding hb;
        ASSERT_TRUE(cc.getHbmBinding(binds[d].key, &hb));
        EXPECT_EQ(hb.grants.size(), users[d]) << "device " << d;
    }
}

/** A device's phase-5 artifacts in the combined schema-3 `intradev1`
 *  layout, which stored placement and binding in one entry. */
std::string
intradev1Blob(const cache::IntraDeviceEntry &place,
              const HbmDeviceBinding &bind)
{
    cache::EntryWriter w;
    w.tag("intradev1");
    w.i64(static_cast<std::int64_t>(place.slots.size()));
    w.i64(static_cast<std::int64_t>(bind.grants.size()));
    w.i64(static_cast<std::int64_t>(bind.usersPerChannel.size()));
    w.f64(bind.displacement);
    w.i64(place.allIlpOptimal ? 1 : 0);
    cache::writeStats(w, place.stats);
    for (const SlotCoord &s : place.slots) {
        w.i64(s.col);
        w.i64(s.row);
    }
    for (const auto &channels : bind.grants) {
        w.i64(static_cast<std::int64_t>(channels.size()));
        for (int c : channels)
            w.i64(c);
    }
    for (int u : bind.usersPerChannel)
        w.i64(u);
    return w.take();
}

TEST(CompileCache, SchemaThreeArtifactsAreNeverMisread)
{
    Cluster cluster = makePaperTestbed(2);
    cache::CacheStore store;
    cache::CompileCache cc(store);
    CompileOptions opt = knnOptions(true);
    opt.cache = &cc;
    apps::AppDesign a = knn2();
    const CompileResult cold =
        compileProgram(a.graph, a.tasks, cluster, opt);
    ASSERT_TRUE(cold.routable) << cold.failureReason;
    const auto places = artifactsOf(cold, cache::kTierL2Place);
    const auto binds = artifactsOf(cold, cache::kTierL2Bind);
    ASSERT_EQ(places.size(), 2u);
    ASSERT_EQ(binds.size(), 2u);

    // Overwrite both tiers with the combined schema-3 entry: neither
    // reader may accept it, so every placement is solved again.
    std::vector<std::string> legacy;
    for (std::size_t d = 0; d < places.size(); ++d) {
        cache::IntraDeviceEntry place;
        HbmDeviceBinding bind;
        ASSERT_TRUE(cc.getIntraDevice(places[d].key, &place));
        ASSERT_TRUE(cc.getHbmBinding(binds[d].key, &bind));
        legacy.push_back(intradev1Blob(place, bind));
        store.put(places[d].key, legacy.back());
        store.put(binds[d].key, legacy.back());
        EXPECT_FALSE(cc.getIntraDevice(places[d].key, &place));
        EXPECT_FALSE(cc.getHbmBinding(binds[d].key, &bind));
    }
    const std::int64_t solves = l2Solves();
    apps::AppDesign b = knn2();
    const CompileResult warm =
        compileProgram(b.graph, b.tasks, cluster, opt);
    EXPECT_EQ(l2Solves(), solves + 2);
    expectResultsIdentical(cold, warm, "legacy entries vs cold");

    // A schema-3 state file (per-device `l2dev` artifacts holding
    // `intradev1` blobs) takes the typed cold-compile fallback.
    cache::CompileSignature old_sig = cold.signature;
    old_sig.schemaVersion = 3;
    old_sig.artifacts.erase(
        std::remove_if(old_sig.artifacts.begin(), old_sig.artifacts.end(),
                       [](const cache::Artifact &art) {
                           return art.tier == cache::kTierL2Place ||
                                  art.tier == cache::kTierL2Bind;
                       }),
        old_sig.artifacts.end());
    for (std::size_t d = 0; d < places.size(); ++d)
        old_sig.artifacts.push_back(
            cache::Artifact{"l2dev", places[d].key, legacy[d]});
    CompileResult prior = cold;
    ASSERT_TRUE(cache::parseSignature(cache::serializeSignature(old_sig),
                                      &prior.signature));
    apps::AppDesign c = knn2();
    const CompileResult inc = recompileProgram(
        prior, c.graph, c.tasks, cluster, knnOptions(true));
    expectResultsIdentical(cold, inc, "schema-3 prior vs cold");
    EXPECT_FALSE(inc.degraded);
    EXPECT_NE(inc.degradedReason.find("cache schema 3"), std::string::npos)
        << inc.degradedReason;
    EXPECT_EQ(inc.delta.devicesReused, 0);
    EXPECT_FALSE(inc.delta.l1Reused);
}

TEST(CacheConcurrency, SharedCacheBatchMatchesSerialBitExactly)
{
    // Overlapping requests: 3 distinct designs, 4 executions each,
    // interleaved. The serial uncached pass is the reference; the
    // 4-thread pass shares one cache, so most executions are hits —
    // and every result must still be bit-identical.
    constexpr int kDesigns = 3;
    constexpr int kRepeats = 4;
    Cluster cluster = makePaperTestbed(2);
    CompileOptions base;
    base.mode = CompileMode::TapaCs;
    base.numFpgas = 2;
    // Reference vs cold-miss executions are fresh-solve comparisons.
    dropWallClockSolverLimits(&base);

    std::vector<CompileResult> reference(kDesigns);
    for (int d = 0; d < kDesigns; ++d) {
        TaskGraph g = randomDesign(6000 + d, 4, 4);
        reference[d] = compile(g, cluster, base);
        ASSERT_TRUE(reference[d].routable)
            << reference[d].failureReason;
    }

    cache::CacheStore store;
    cache::CompileCache cc(store);
    std::vector<CompileResult> parallel(kDesigns * kRepeats);
    std::atomic<std::size_t> next{0};
    ThreadPool pool(4);
    TaskGroup group(pool);
    for (int t = 0; t < 4; ++t) {
        group.run([&]() {
            while (true) {
                const std::size_t i = next.fetch_add(1);
                if (i >= parallel.size())
                    return;
                TaskGraph g = randomDesign(
                    6000 + static_cast<int>(i) % kDesigns, 4, 4);
                CompileOptions opt = base;
                opt.cache = &cc;
                parallel[i] = compile(g, cluster, opt);
            }
        });
    }
    group.wait();

    for (std::size_t i = 0; i < parallel.size(); ++i) {
        expectResultsIdentical(reference[i % kDesigns], parallel[i],
                               strprintf("execution %zu", i).c_str());
    }
}

} // namespace
} // namespace tapacs
