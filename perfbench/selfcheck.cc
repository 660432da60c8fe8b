#include "apps/stencil.hh"
#include "checks.hh"
#include "common.hh"
#include "common/logging.hh"
#include "network/cluster.hh"
#include "serve/execute.hh"
#include "workloads.hh"

using namespace tapacs;

namespace perfbench
{

std::vector<std::string>
selfCheckCorruption()
{
    std::vector<std::string> missed;
    // A small design keeps the self-check quick; the checks do not
    // depend on its size.
    apps::AppDesign design =
        apps::buildStencil(apps::StencilConfig::scaled(64, 4));
    const Cluster cluster = makePaperTestbed(4);
    const CompileOptions opt = nodeBudgetOptions(4);
    TaskGraph g = design.graph;
    const CompileResult good = compileProgram(g, design.tasks, cluster, opt);
    if (!checkCompile(g, cluster, opt, good).empty()) {
        missed.push_back("the uncorrupted result already fails its checks");
        return missed;
    }

    auto expectRejected = [&](const char *what, const CompileResult &bad,
                              const char *needle) {
        bool found = false;
        for (const std::string &p : checkCompile(g, cluster, opt, bad))
            found = found || p.find(needle) != std::string::npos;
        if (!found)
            missed.push_back(strprintf("%s was not rejected", what));
    };

    // Move vertices onto device 0 until it is over-full; keep the
    // compiler's cut-traffic figure consistent so only eq. 1 can
    // catch it.
    {
        CompileResult bad = good;
        const ResourceVector cap = cluster.device().totalResources();
        ResourceVector load = good.reservedPerDevice;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            if (bad.partition.deviceOf[v] == 0)
                load += g.vertex(v).area;
        }
        for (VertexId v = 0;
             v < g.numVertices() && load.maxUtilization(cap) <= opt.threshold;
             ++v) {
            if (bad.partition.deviceOf[v] != 0) {
                bad.partition.deviceOf[v] = 0;
                load += g.vertex(v).area;
            }
        }
        double cut = 0.0;
        for (const Edge &e : g.edges()) {
            if (bad.partition.deviceOf[e.src] != bad.partition.deviceOf[e.dst])
                cut += e.totalBytes;
        }
        bad.cutTrafficBytes = cut;
        expectRejected("a vertex moved onto an over-full device", bad, "eq. 1");
    }
    {
        CompileResult bad = good;
        bad.reservedPerDevice *= 0.5;
        expectRejected("a halved AlveoLink reservation", bad, "reserved");
    }
    {
        CompileResult bad = good;
        bad.placement.slotOf[0].row = cluster.device().rows();
        expectRejected("a slot outside the device grid", bad, "placed on");
    }
    {
        CompileResult bad = good;
        bad.partition.deviceOf.pop_back();
        expectRejected("a vertex with no device", bad, "assignments");
    }
    {
        CompileResult bad = good;
        bad.cutTrafficBytes *= 1.001;
        expectRejected("a wrong cut-traffic figure", bad, "cut traffic");
    }
    {
        sim::SimOptions sopt;
        sopt.exportMetrics = false;
        StatusOr<sim::SimResult> simmed =
            sim::trySimulate(g, cluster, good.partition, good.binding,
                             good.pipeline, good.deviceFmax, sopt);
        if (!simmed.ok() || !checkSimulation(g, simmed.value()).empty()) {
            missed.push_back("the uncorrupted simulation fails its checks");
        } else {
            sim::SimResult bad = simmed.value();
            bad.firedBlocks[0] -= 1;
            if (checkSimulation(g, bad).empty())
                missed.push_back(
                    "a task that fired too few blocks was not rejected");
        }
    }
    {
        serve::Request req;
        req.simulate = true;
        serve::ServeOutcome warm;
        warm.routable = true;
        warm.simulated = true;
        warm.simMakespan = 1e-3;
        warm.resultDigest = serve::resultDigest(good);
        if (!checkServed(warm, warm, req).empty())
            missed.push_back("an unchanged served outcome was rejected");
        serve::ServeOutcome bad = warm;
        bad.resultDigest ^= 1;
        if (checkServed(bad, warm, req).empty())
            missed.push_back("a served outcome with another digest was not "
                             "rejected");
        bad = warm;
        bad.simMakespan *= 1.001;
        if (checkServed(bad, warm, req).empty())
            missed.push_back("a served outcome with another makespan was not "
                             "rejected");
    }
    return missed;
}

} // namespace perfbench
