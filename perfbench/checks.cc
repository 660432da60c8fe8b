#include "checks.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

using namespace tapacs;

namespace perfbench
{

namespace
{

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a),
                                                std::fabs(b)});
}

/** Highest per-resource utilization of @p area over @p cap. */
double
utilization(const ResourceVector &area, const ResourceVector &cap)
{
    double worst = 0.0;
    for (int k = 0; k < kNumResourceKinds; ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (cap[kind] > 0.0)
            worst = std::max(worst, area[kind] / cap[kind]);
    }
    return worst;
}

} // namespace

std::vector<std::string>
checkCompile(const TaskGraph &g, const Cluster &cluster,
             const CompileOptions &opt, const CompileResult &r)
{
    std::vector<std::string> fail;
    if (!r.routable || !r.status.ok() || r.degraded) {
        fail.push_back(strprintf(
            "compile not clean: routable=%d status='%s' degraded=%d %s",
            r.routable ? 1 : 0, r.status.message().c_str(),
            r.degraded ? 1 : 0, r.failureReason.c_str()));
        return fail;
    }
    const int nv = g.numVertices();
    const bool multi = opt.mode == CompileMode::TapaCs && opt.numFpgas > 1;
    const int devices = multi ? opt.numFpgas : 1;
    const DeviceModel &dev = cluster.device();

    if (static_cast<int>(r.partition.deviceOf.size()) != nv ||
        static_cast<int>(r.placement.slotOf.size()) != nv) {
        fail.push_back(strprintf(
            "%zu device and %zu slot assignments for %d vertices",
            r.partition.deviceOf.size(), r.placement.slotOf.size(), nv));
        return fail;
    }
    for (VertexId v = 0; v < nv; ++v) {
        const DeviceId d = r.partition.deviceOf[v];
        const SlotCoord s = r.placement.slotOf[v];
        if (d < 0 || d >= devices || s.col < 0 || s.col >= dev.cols() ||
            s.row < 0 || s.row >= dev.rows()) {
            fail.push_back(strprintf(
                "vertex %d ('%s') placed on device %d slot (%d,%d)", v,
                g.vertex(v).name.c_str(), d, s.col, s.row));
            return fail;
        }
    }

    const ResourceVector reserved =
        multi && opt.addNetworkOverhead
            ? networkIpArea(dev, opt.networkPorts)
            : ResourceVector{};
    for (int k = 0; k < kNumResourceKinds; ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (!near(reserved[kind], r.reservedPerDevice[kind])) {
            fail.push_back(strprintf(
                "reserved %s is %g, networking IPs need %g",
                toString(kind), r.reservedPerDevice[kind],
                reserved[kind]));
        }
    }

    // Eq. 1 from the graph areas.
    std::vector<ResourceVector> areas(devices);
    for (VertexId v = 0; v < nv; ++v)
        areas[r.partition.deviceOf[v]] += g.vertex(v).area;
    const ResourceVector cap = dev.totalResources();
    for (DeviceId d = 0; multi && d < devices; ++d) {
        ResourceVector need = areas[d];
        need += reserved;
        const double util = utilization(need, cap);
        if (util > opt.threshold + 1e-9) {
            fail.push_back(strprintf(
                "eq. 1: device %d at %.4f utilization, threshold %.2f", d,
                util, opt.threshold));
        }
    }

    // Slot threshold: each slot carries its share of the reserve.
    const double lambda =
        opt.slotThreshold > 0.0 ? opt.slotThreshold : opt.threshold;
    if (opt.mode != CompileMode::VitisBaseline) {
        ResourceVector slotReserve = reserved;
        slotReserve *= 1.0 / dev.numSlots();
        std::vector<ResourceVector> slotArea(devices * dev.numSlots());
        for (VertexId v = 0; v < nv; ++v) {
            const SlotCoord s = r.placement.slotOf[v];
            slotArea[r.partition.deviceOf[v] * dev.numSlots() +
                     s.row * dev.cols() + s.col] += g.vertex(v).area;
        }
        for (DeviceId d = 0; d < devices; ++d) {
            for (int row = 0; row < dev.rows(); ++row) {
                for (int col = 0; col < dev.cols(); ++col) {
                    ResourceVector need =
                        slotArea[d * dev.numSlots() + row * dev.cols() +
                                 col];
                    need += slotReserve;
                    const double util =
                        utilization(need, dev.slot(col, row).capacity);
                    if (util > lambda + 1e-9) {
                        fail.push_back(strprintf(
                            "slot threshold: device %d slot (%d,%d) at "
                            "%.4f, lambda %.2f",
                            d, col, row, util, lambda));
                    }
                }
            }
        }
    }

    double cutBytes = 0.0;
    for (const Edge &e : g.edges()) {
        if (r.partition.deviceOf[e.src] != r.partition.deviceOf[e.dst])
            cutBytes += e.totalBytes;
    }
    if (!near(cutBytes, r.cutTrafficBytes)) {
        fail.push_back(strprintf(
            "cut traffic: edges carry %.17g bytes, result says %.17g",
            cutBytes, r.cutTrafficBytes));
    }
    return fail;
}

std::vector<std::string>
checkSimulation(const TaskGraph &g, const sim::SimResult &s)
{
    std::vector<std::string> fail;
    if (!s.status.ok() || !s.completed) {
        fail.push_back(strprintf("simulation stopped early: %s",
                                 s.status.message().c_str()));
    }
    if (static_cast<int>(s.firedBlocks.size()) != g.numVertices()) {
        fail.push_back(strprintf("simulation fired %zu of %d tasks",
                                 s.firedBlocks.size(), g.numVertices()));
        return fail;
    }
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (s.firedBlocks[v] != g.vertex(v).work.numBlocks) {
            fail.push_back(strprintf(
                "task '%s' fired %d of %d blocks", g.vertex(v).name.c_str(),
                s.firedBlocks[v], g.vertex(v).work.numBlocks));
        }
    }
    if (!(s.makespan > 0.0))
        fail.push_back("simulation makespan is not positive");
    return fail;
}

std::string
checkServed(const serve::ServeOutcome &o, const serve::ServeOutcome &warm,
            const serve::Request &req)
{
    if (!o.status.ok() || !o.routable || o.degraded)
        return "request failed: " + o.status.message();
    if (o.resultDigest != warm.resultDigest)
        return "digest differs from the in-process pre-warm run";
    if (o.simulated != req.simulate || o.simMakespan != warm.simMakespan)
        return "simulation differs from the in-process pre-warm run";
    return "";
}

Simulated
simulateChecked(const TaskGraph &g, const Cluster &cluster,
                const CompileResult &r, std::vector<std::string> *problems)
{
    sim::SimOptions sopt;
    sopt.exportMetrics = false;
    const StatusOr<sim::SimResult> simmed = sim::trySimulate(
        g, cluster, r.partition, r.binding, r.pipeline, r.deviceFmax, sopt);
    if (!simmed.ok()) {
        problems->push_back("simulation refused: " +
                            simmed.status().message());
        return {};
    }
    for (const std::string &p : checkSimulation(g, simmed.value()))
        problems->push_back(p);
    return {simmed.value().stats.get("events"), simmed.value().makespan};
}

double
cutCost(const TaskGraph &g, const Cluster &cluster, const CompileResult &r)
{
    double cost = 0.0;
    for (const Edge &e : g.edges()) {
        const DeviceId a = r.partition.deviceOf[e.src];
        const DeviceId b = r.partition.deviceOf[e.dst];
        if (a != b)
            cost += e.widthBits * cluster.costDistance(a, b);
    }
    return cost;
}

} // namespace perfbench
