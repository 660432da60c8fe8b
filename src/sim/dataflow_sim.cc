#include "sim/dataflow_sim.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/engine.hh"

namespace tapacs::sim
{

double
SimResult::deviceUtilization(DeviceId d) const
{
    tapacs_assert(d >= 0 &&
                  d < static_cast<int>(deviceComputeBusy.size()));
    if (makespan <= 0.0 || deviceTaskCount[d] == 0)
        return 0.0;
    return deviceComputeBusy[d] / makespan / deviceTaskCount[d];
}

StatusOr<SimResult>
trySimulate(const TaskGraph &g, const Cluster &cluster,
            const DevicePartition &partition, const HbmBinding &binding,
            const PipelinePlan &plan,
            const std::vector<Hertz> &deviceFmax,
            const SimOptions &options)
{
    obs::TraceSpan sim_span("sim", "sim.run");

    detail::SimSetup setup;
    Status st = detail::buildSetup(g, cluster, partition, binding,
                                   plan, deviceFmax, options, &setup);
    if (!st.ok())
        return st;

    if (setup.injector && options.exportMetrics)
        obs::MetricsRegistry::global().resetPrefix("tapacs.net.");

    detail::RunState run;
    detail::initRunState(setup, &run);
    detail::runEventLoop(setup, run);

    SimResult out;
    detail::finalizeResult(setup, run, &out);

    if (options.exportMetrics)
        detail::exportSimMetrics(setup, run);

    sim_span
        .arg("events",
             static_cast<std::int64_t>(out.stats.get("events")))
        .arg("makespan_seconds", out.makespan)
        .arg("hbm_busy_seconds", out.stats.get("hbm.busy_seconds"));
    return out;
}

SimResult
simulate(const TaskGraph &g, const Cluster &cluster,
         const DevicePartition &partition, const HbmBinding &binding,
         const PipelinePlan &plan, const std::vector<Hertz> &deviceFmax,
         const SimOptions &options)
{
    StatusOr<SimResult> result = trySimulate(g, cluster, partition,
                                             binding, plan, deviceFmax,
                                             options);
    if (!result.ok())
        fatal("simulate: %s", result.status().message().c_str());
    if (!result.value().status.ok())
        fatal("simulate: %s",
              result.value().status.message().c_str());
    return result.moveValue();
}

std::string
timelineCsv(const TaskGraph &g, const SimResult &result)
{
    std::string out = "task,block,start,read_done,compute_start,"
                      "compute_done,write_done\n";
    for (const FiringRecord &r : result.timeline) {
        out += strprintf("%s,%d,%.9g,%.9g,%.9g,%.9g,%.9g\n",
                         g.vertex(r.task).name.c_str(), r.block, r.start,
                         r.readDone, r.computeStart, r.computeDone,
                         r.writeDone);
    }
    return out;
}

} // namespace tapacs::sim
