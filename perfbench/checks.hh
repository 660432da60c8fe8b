/**
 * @file
 * Output checks that recompute what the compiler claims from the
 * inputs, instead of trusting the compiler's own numbers.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "serve/service.hh"
#include "sim/dataflow_sim.hh"

namespace perfbench
{

/**
 * Check one compile result against its inputs. @p g must carry the
 * synthesized areas the compile used. Returns one message per failed
 * check (empty = all passed):
 *  - the result is routable, Ok and not degraded;
 *  - every vertex has exactly one device in range and one slot inside
 *    the device grid;
 *  - the reserved networking-IP area equals networkIpArea() for a
 *    multi-FPGA compile (zero otherwise);
 *  - eq. 1: for a multi-FPGA compile every device's per-resource
 *    utilization, graph areas plus reserved area, stays within T;
 *  - the slot threshold: every slot's area plus its share of the
 *    reserved area stays within λ of the slot capacity;
 *  - cut traffic recomputed from the edges equals cutTrafficBytes.
 */
std::vector<std::string> checkCompile(const tapacs::TaskGraph &g,
                                      const tapacs::Cluster &cluster,
                                      const tapacs::CompileOptions &opt,
                                      const tapacs::CompileResult &r);

/** Every task fired all of its blocks and the run drained cleanly. */
std::vector<std::string> checkSimulation(const tapacs::TaskGraph &g,
                                         const tapacs::sim::SimResult &s);

/**
 * Check one served outcome against the in-process pre-warm outcome of
 * the same request: Ok, routable, not degraded, the same digest and
 * the same simulation. Empty when it matches.
 */
std::string checkServed(const tapacs::serve::ServeOutcome &o,
                        const tapacs::serve::ServeOutcome &warm,
                        const tapacs::serve::Request &req);

/** What a checked simulation produced (zeros when it was refused). */
struct Simulated
{
    double events = 0.0;
    /** Simulated makespan, seconds of simulated time. */
    double makespan = 0.0;
};

/**
 * Simulate @p r on the serial engine and run checkSimulation on it;
 * failed checks are appended to @p problems.
 */
Simulated simulateChecked(const tapacs::TaskGraph &g,
                          const tapacs::Cluster &cluster,
                          const tapacs::CompileResult &r,
                          std::vector<std::string> *problems);

/** Eq. 2 cost of a result (0 for a single-FPGA compile). */
double cutCost(const tapacs::TaskGraph &g, const tapacs::Cluster &cluster,
               const tapacs::CompileResult &r);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
