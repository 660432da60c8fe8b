#include "cache/compile_cache.hh"

#include <cstdlib>
#include <cstring>

#include "cache/entry_io.hh"
#include "common/logging.hh"

namespace tapacs::cache
{

namespace
{

/** Fold the solver knobs that can change which solution comes back
 *  (thread count included: the parallel search may return a different
 *  tied-optimal point than the serial one). */
void
mixSolver(KeyBuilder &b, const ilp::SolverOptions &s)
{
    b.i64(s.maxNodes)
        .f64(s.timeLimitSeconds)
        .f64(s.intTol)
        .f64(s.relativeGap)
        .i64(s.numThreads)
        .f64(s.lp.tol)
        .i64(s.lp.maxIterations);
}

/** Per-vertex values reordered into canonical rank order. */
template <typename T>
std::vector<T>
byRank(const GraphFingerprint &fp, const std::vector<T> &byVertex)
{
    std::vector<T> out(byVertex.size());
    for (std::size_t v = 0; v < byVertex.size(); ++v)
        out[fp.rankOf[v]] = byVertex[v];
    return out;
}

/** Inverse mapping: canonical-rank values back onto vertex ids. */
template <typename T>
std::vector<T>
fromRank(const GraphFingerprint &fp, const std::vector<T> &ranked)
{
    std::vector<T> out(ranked.size());
    for (std::size_t v = 0; v < ranked.size(); ++v)
        out[v] = ranked[fp.rankOf[v]];
    return out;
}

} // namespace

CacheKey
hlsTaskKey(const hls::TaskIr &task)
{
    KeyBuilder b;
    b.i64(kSchemaVersion).str("hls").str(task.name);
    b.i64(task.fp32AddUnits)
        .i64(task.fp32MulUnits)
        .i64(task.fp32CmpUnits)
        .i64(task.intAluUnits)
        .i64(task.fsmStates)
        .f64(static_cast<double>(task.localBufferBytes))
        .i64(task.preferUram ? 1 : 0)
        .i64(task.bufferBanks);
    b.i64(static_cast<std::int64_t>(task.streamPorts.size()));
    for (const auto &p : task.streamPorts)
        b.str(p.name).i64(p.widthBits).i64(p.isInput ? 1 : 0);
    b.i64(static_cast<std::int64_t>(task.memPorts.size()));
    for (const auto &p : task.memPorts)
        b.str(p.name).i64(p.widthBits).f64(
            static_cast<double>(p.burstBufferBytes));
    return b.build();
}

CacheKey
interKey(const GraphFingerprint &fp, const Cluster &cluster, int numFpgas,
         const InterFpgaOptions &options)
{
    KeyBuilder b;
    b.i64(kSchemaVersion).str("inter");
    b.key(fp.structural).key(clusterKey(cluster)).i64(numFpgas);
    b.f64(options.threshold)
        .vec(options.reserved)
        .i64(options.coarseLimit)
        .f64(options.balanceSlack)
        .i64(options.channelsPerDevice)
        .i64(options.useIlp ? 1 : 0)
        .i64(static_cast<std::int64_t>(options.seed));
    // Engine selection changes the artifact, so it is content.
    // InterFpgaOptions::numThreads is deliberately absent: the
    // multilevel backend is bit-identical at any thread count.
    b.i64(options.backend == L1Backend::Multilevel ? 1 : 0)
        .i64(options.replicate ? 1 : 0)
        .i64(options.mlIlpVertexLimit);
    b.i64(static_cast<std::int64_t>(options.deviceAllowed.size()));
    for (char a : options.deviceAllowed)
        b.i64(a ? 1 : 0);
    // Hints are runtime state, not content; a hinted solve is keyed
    // apart (it can land on a different tied-optimal point) and the
    // compiler never stores hinted results under exact keys anyway.
    b.i64(static_cast<std::int64_t>(options.hint.size()));
    if (!options.hint.empty()) {
        for (DeviceId d : options.hint)
            b.i64(d);
        b.f64(options.hintWeight);
    }
    mixSolver(b, options.solver);
    return b.build();
}

CacheKey
interFamilyKey(const GraphFingerprint &fp, const Cluster &cluster,
               int numFpgas)
{
    KeyBuilder b;
    b.i64(kSchemaVersion).str("family");
    b.key(fp.structural).key(clusterKey(cluster)).i64(numFpgas);
    return b.build();
}

CacheKey
intraPlacementKey(const TaskGraph &g, const DevicePartition &partition,
                  DeviceId device, const DeviceModel &dev,
                  const IntraFpgaOptions &options)
{
    KeyBuilder b;
    b.i64(kSchemaVersion).str("l2place");
    b.key(deviceModelKey(dev));
    // The ordered induced subgraph: device vertices in ascending
    // graph id (the exact order the bisection and the binder walk),
    // with only the attributes the level-2 passes read — area and
    // memory-channel demand per vertex, width per intra-device edge.
    // Positional on purpose: the solver is index-order-sensitive, so
    // equal keys must mean an identical solver walk.
    std::vector<int> localOf(g.numVertices(), -1);
    std::int64_t nLocal = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (partition.deviceOf[v] == device)
            localOf[v] = static_cast<int>(nLocal++);
    }
    b.i64(nLocal);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (localOf[v] < 0)
            continue;
        const Vertex &vx = g.vertex(v);
        b.vec(vx.area).i64(vx.work.memChannels);
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &ed = g.edge(e);
        const int lu = localOf[ed.src];
        const int lv = localOf[ed.dst];
        if (lu < 0 || lv < 0)
            continue; // cross-device: a level-1 cost, invisible here
        b.i64(lu).i64(lv).i64(ed.widthBits);
    }
    b.f64(options.threshold)
        .vec(options.reserved)
        .i64(options.useIlp ? 1 : 0)
        .f64(options.memAttractionWidth)
        .i64(static_cast<std::int64_t>(options.seed));
    mixSolver(b, options.solver);
    // IntraFpgaOptions::numThreads is deliberately absent: the pass
    // documents thread-count invariance, which is what lets a parallel
    // batch compile share entries with a serial one.
    return b.build();
}

CacheKey
hbmBindingKey(const CacheKey &placement, const HbmBindingOptions &options)
{
    // The placement key already covers everything else the binder
    // reads (memory users, their channel demands, the device model);
    // HbmBindingOptions::numThreads is absent for the same invariance.
    KeyBuilder b;
    b.i64(kSchemaVersion).str("l2bind").key(placement);
    b.i64(options.sweep ? 1 : 0);
    return b.build();
}

CacheKey
intraDeviceKey(const TaskGraph &g, const DevicePartition &partition,
               DeviceId device, const DeviceModel &dev,
               const IntraFpgaOptions &options,
               const HbmBindingOptions &bindOptions)
{
    return hbmBindingKey(
        intraPlacementKey(g, partition, device, dev, options), bindOptions);
}

CompileCache &
CompileCache::global()
{
    static CompileCache *cache = new CompileCache(CacheStore::global());
    return *cache;
}

bool
CompileCache::getHls(const CacheKey &key, hls::SynthesisResult *out)
{
    auto blob = store_.get(key);
    if (!blob)
        return false;
    EntryReader r(*blob);
    hls::SynthesisResult parsed;
    std::int64_t fsm = 0, depth = 0;
    if (!r.tag("hls1") || !r.str(&parsed.taskName) ||
        !r.vec(&parsed.area) || !r.f64(&parsed.fmaxCeiling) ||
        !r.i64(&fsm) || !r.i64(&depth))
        return false;
    parsed.fsmStates = static_cast<int>(fsm);
    parsed.pipelineDepth = static_cast<int>(depth);
    *out = std::move(parsed);
    return true;
}

void
CompileCache::putHls(const CacheKey &key, const hls::SynthesisResult &result)
{
    EntryWriter w;
    w.tag("hls1");
    w.str(result.taskName);
    w.vec(result.area);
    w.f64(result.fmaxCeiling);
    w.i64(result.fsmStates);
    w.i64(result.pipelineDepth);
    store_.put(key, w.take());
}

bool
CompileCache::getInter(const CacheKey &key, const GraphFingerprint &fp,
                       InterFpgaResult *out)
{
    auto blob = store_.get(key);
    if (!blob)
        return false;
    EntryReader r(*blob);
    InterFpgaResult parsed;
    std::int64_t nv = 0, coarse = 0, levels = 0;
    if (!r.tag("inter2") || !r.i64(&nv) || !r.boolean(&parsed.feasible) ||
        !r.f64(&parsed.cost) || !r.f64(&parsed.cutTrafficBytes) ||
        !r.f64(&parsed.elapsedSeconds) || !r.boolean(&parsed.ilpOptimal) ||
        !r.i64(&coarse) || !r.i64(&levels) ||
        !readStats(r, &parsed.solverStats))
        return false;
    parsed.coarseVertices = static_cast<int>(coarse);
    parsed.levels = static_cast<int>(levels);
    // nv == 0 encodes an infeasible solve's empty partition.
    if (nv != 0 && nv != fp.numVertices())
        return false;
    std::vector<DeviceId> ranked(nv);
    for (std::int64_t i = 0; i < nv; ++i) {
        std::int64_t d;
        if (!r.i64(&d))
            return false;
        ranked[i] = static_cast<DeviceId>(d);
    }
    parsed.partition.deviceOf = fromRank(fp, ranked);
    // Replication map: 0 or nv per-vertex device lists in rank order.
    std::int64_t nr = 0;
    if (!r.i64(&nr) || (nr != 0 && nr != nv))
        return false;
    if (nr != 0) {
        std::vector<std::vector<DeviceId>> ranked_rep(nr);
        for (std::int64_t i = 0; i < nr; ++i) {
            std::int64_t count = 0;
            if (!r.i64(&count) || count < 0)
                return false;
            ranked_rep[i].resize(count);
            for (std::int64_t j = 0; j < count; ++j) {
                std::int64_t d;
                if (!r.i64(&d))
                    return false;
                ranked_rep[i][j] = static_cast<DeviceId>(d);
            }
        }
        parsed.replication.extraDevicesOf = fromRank(fp, ranked_rep);
    }
    *out = std::move(parsed);
    return true;
}

void
CompileCache::putInter(const CacheKey &key, const GraphFingerprint &fp,
                       const InterFpgaResult &result)
{
    if (!result.partition.deviceOf.empty() &&
        static_cast<int>(result.partition.deviceOf.size()) !=
            fp.numVertices()) {
        warn("cache: inter-FPGA result size mismatch; not storing");
        return;
    }
    if (!result.replication.extraDevicesOf.empty() &&
        result.replication.extraDevicesOf.size() !=
            result.partition.deviceOf.size()) {
        warn("cache: replication map size mismatch; not storing");
        return;
    }
    EntryWriter w;
    w.tag("inter2");
    w.i64(static_cast<std::int64_t>(result.partition.deviceOf.size()));
    w.i64(result.feasible ? 1 : 0);
    w.f64(result.cost);
    w.f64(result.cutTrafficBytes);
    w.f64(result.elapsedSeconds);
    w.i64(result.ilpOptimal ? 1 : 0);
    w.i64(result.coarseVertices);
    w.i64(result.levels);
    writeStats(w, result.solverStats);
    for (DeviceId d : byRank(fp, result.partition.deviceOf))
        w.i64(d);
    w.i64(static_cast<std::int64_t>(
        result.replication.extraDevicesOf.size()));
    for (const auto &devs : byRank(fp, result.replication.extraDevicesOf)) {
        w.i64(static_cast<std::int64_t>(devs.size()));
        for (DeviceId d : devs)
            w.i64(d);
    }
    store_.put(key, w.take());
}

bool
CompileCache::getFamilyPartition(const CacheKey &key,
                                 const GraphFingerprint &fp,
                                 std::vector<DeviceId> *deviceOf)
{
    auto blob = store_.get(key);
    if (!blob)
        return false;
    EntryReader r(*blob);
    std::int64_t nv = 0;
    if (!r.tag("fam1") || !r.i64(&nv) || nv != fp.numVertices())
        return false;
    std::vector<DeviceId> ranked(nv);
    for (std::int64_t i = 0; i < nv; ++i) {
        std::int64_t d;
        if (!r.i64(&d))
            return false;
        ranked[i] = static_cast<DeviceId>(d);
    }
    *deviceOf = fromRank(fp, ranked);
    return true;
}

void
CompileCache::putFamilyPartition(const CacheKey &key,
                                 const GraphFingerprint &fp,
                                 const DevicePartition &partition)
{
    if (static_cast<int>(partition.deviceOf.size()) != fp.numVertices())
        return;
    EntryWriter w;
    w.tag("fam1");
    w.i64(static_cast<std::int64_t>(partition.deviceOf.size()));
    for (DeviceId d : byRank(fp, partition.deviceOf))
        w.i64(d);
    store_.put(key, w.take());
}

bool
CompileCache::getIntraDevice(const CacheKey &key, IntraDeviceEntry *out)
{
    auto blob = store_.get(key);
    if (!blob)
        return false;
    EntryReader r(*blob);
    IntraDeviceEntry parsed;
    std::int64_t nv = 0;
    if (!r.tag("l2place1") || !r.i64(&nv) || nv < 0 ||
        !r.boolean(&parsed.allIlpOptimal) || !readStats(r, &parsed.stats))
        return false;
    parsed.slots.resize(nv);
    for (std::int64_t i = 0; i < nv; ++i) {
        std::int64_t col, row;
        if (!r.i64(&col) || !r.i64(&row))
            return false;
        parsed.slots[i].col = static_cast<int>(col);
        parsed.slots[i].row = static_cast<int>(row);
    }
    *out = std::move(parsed);
    return true;
}

void
CompileCache::putIntraDevice(const CacheKey &key,
                             const IntraDeviceEntry &entry)
{
    EntryWriter w;
    w.tag("l2place1");
    w.i64(static_cast<std::int64_t>(entry.slots.size()));
    w.i64(entry.allIlpOptimal ? 1 : 0);
    writeStats(w, entry.stats);
    for (const SlotCoord &s : entry.slots) {
        w.i64(s.col);
        w.i64(s.row);
    }
    store_.put(key, w.take());
}

bool
CompileCache::getHbmBinding(const CacheKey &key, HbmDeviceBinding *out)
{
    auto blob = store_.get(key);
    if (!blob)
        return false;
    EntryReader r(*blob);
    HbmDeviceBinding parsed;
    std::int64_t nu = 0, nc = 0;
    if (!r.tag("l2bind1") || !r.i64(&nu) || nu < 0 || !r.i64(&nc) ||
        nc < 0 || !r.f64(&parsed.displacement))
        return false;
    parsed.grants.resize(nu);
    for (std::int64_t i = 0; i < nu; ++i) {
        std::int64_t count = 0;
        if (!r.i64(&count) || count < 0)
            return false;
        parsed.grants[i].resize(count);
        for (std::int64_t c = 0; c < count; ++c) {
            std::int64_t ch;
            if (!r.i64(&ch))
                return false;
            parsed.grants[i][c] = static_cast<int>(ch);
        }
    }
    parsed.usersPerChannel.resize(nc);
    for (std::int64_t c = 0; c < nc; ++c) {
        std::int64_t users;
        if (!r.i64(&users))
            return false;
        parsed.usersPerChannel[c] = static_cast<int>(users);
    }
    *out = std::move(parsed);
    return true;
}

void
CompileCache::putHbmBinding(const CacheKey &key,
                            const HbmDeviceBinding &binding)
{
    EntryWriter w;
    w.tag("l2bind1");
    w.i64(static_cast<std::int64_t>(binding.grants.size()));
    w.i64(static_cast<std::int64_t>(binding.usersPerChannel.size()));
    w.f64(binding.displacement);
    for (const auto &channels : binding.grants) {
        w.i64(static_cast<std::int64_t>(channels.size()));
        for (int c : channels)
            w.i64(c);
    }
    for (int users : binding.usersPerChannel)
        w.i64(users);
    store_.put(key, w.take());
}

} // namespace tapacs::cache
