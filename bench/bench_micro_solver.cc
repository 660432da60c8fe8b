/**
 * @file
 * Microbenchmarks (google-benchmark) for the ILP substrate: simplex
 * pivot throughput (pivots and pivots_per_s counters) on dense random
 * LPs of growing size and on sparse floorplan-shaped assignment LPs,
 * branch-and-bound on knapsacks, and the end-to-end floorplanning ILP
 * for a coarse partitioning instance.
 */

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "ilp/simplex.hh"
#include "ilp/solver.hh"

using namespace tapacs;
using namespace tapacs::ilp;

namespace
{

/** Knapsack instance for the branch-and-bound benches. */
Model
makeKnapsack(int n)
{
    Rng rng(7);
    Model m;
    LinExpr cap, obj;
    for (int i = 0; i < n; ++i) {
        const VarId v = m.addBinary();
        cap.add(v, rng.uniformReal(1.0, 5.0));
        obj.add(v, -rng.uniformReal(1.0, 10.0));
    }
    m.addConstraint(std::move(cap), Sense::LessEqual, n * 1.2);
    m.setObjective(std::move(obj));
    return m;
}

/** Partitioning-shaped MILP: v tasks onto 2 devices, cut objective. */
Model
makePartitionIlp(int v)
{
    Rng rng(13);
    Model m;
    std::vector<VarId> y;
    for (int i = 0; i < v; ++i)
        y.push_back(m.addBinary());
    LinExpr balance;
    for (int i = 0; i < v; ++i)
        balance.add(y[i], 1.0);
    LinExpr b2 = balance;
    m.addConstraint(std::move(balance), Sense::LessEqual, v * 0.6);
    m.addConstraint(std::move(b2), Sense::GreaterEqual, v * 0.4);
    LinExpr obj;
    for (int i = 1; i < v; ++i) {
        const VarId d = m.addContinuous(0.0);
        LinExpr c1;
        c1.add(y[i - 1], 1.0).add(y[i], -1.0).add(d, -1.0);
        m.addConstraint(std::move(c1), Sense::LessEqual, 0.0);
        LinExpr c2;
        c2.add(y[i], 1.0).add(y[i - 1], -1.0).add(d, -1.0);
        m.addConstraint(std::move(c2), Sense::LessEqual, 0.0);
        obj.add(d, rng.uniformReal(16.0, 512.0));
    }
    m.setObjective(std::move(obj));
    return m;
}

Model
randomLp(int vars, int rows, std::uint64_t seed)
{
    Rng rng(seed);
    Model m;
    for (int i = 0; i < vars; ++i)
        m.addVar(VarKind::Continuous, 0.0, 10.0);
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (int i = 0; i < vars; ++i) {
            if (rng.bernoulli(0.4))
                e.add(i, rng.uniformReal(0.1, 2.0));
        }
        m.addConstraint(std::move(e), Sense::LessEqual,
                        rng.uniformReal(5.0, 50.0));
    }
    LinExpr obj;
    for (int i = 0; i < vars; ++i)
        obj.add(i, rng.uniformReal(-2.0, 0.5));
    m.setObjective(std::move(obj));
    return m;
}

/**
 * Task -> device assignment LP of the floorplanner's shape: one
 * equality per task (each task on exactly one device) and one area
 * capacity row per device. Rows are sparse: a task row touches only
 * its own devices' columns.
 */
Model
assignmentLp(int tasks, int devices, std::uint64_t seed)
{
    Rng rng(seed);
    Model m;
    std::vector<double> area(tasks);
    double total = 0.0;
    for (int t = 0; t < tasks; ++t) {
        area[t] = rng.uniformReal(1.0, 10.0);
        total += area[t];
        for (int d = 0; d < devices; ++d)
            m.addVar(VarKind::Continuous, 0.0, 1.0);
    }
    for (int t = 0; t < tasks; ++t) {
        LinExpr one;
        for (int d = 0; d < devices; ++d)
            one.add(t * devices + d, 1.0);
        m.addConstraint(std::move(one), Sense::Equal, 1.0);
    }
    for (int d = 0; d < devices; ++d) {
        LinExpr cap;
        for (int t = 0; t < tasks; ++t)
            cap.add(t * devices + d, area[t]);
        m.addConstraint(std::move(cap), Sense::LessEqual,
                        1.3 * total / devices);
    }
    LinExpr obj;
    for (int v = 0; v < tasks * devices; ++v)
        obj.add(v, rng.uniformReal(-5.0, 5.0));
    m.setObjective(std::move(obj));
    return m;
}

/** Solve @p m repeatedly; report pivots per solve and pivot rate. */
void
runLp(benchmark::State &state, const Model &m)
{
    LpWorkspace ws;
    std::int64_t pivots = 0;
    int per_solve = 0;
    for (auto _ : state) {
        LpResult r = solveLp(m, {}, {}, SimplexOptions{}, &ws);
        benchmark::DoNotOptimize(r.objective);
        per_solve = r.iterations;
        pivots += r.iterations;
    }
    state.counters["pivots"] = per_solve;
    state.counters["pivots_per_s"] = benchmark::Counter(
        static_cast<double>(pivots), benchmark::Counter::kIsRate);
}

void
BM_SimplexSolve(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    runLp(state, randomLp(n, n, 42));
    state.SetComplexityN(n);
}
BENCHMARK(BM_SimplexSolve)->Arg(16)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity();

void
BM_SimplexSolveAssignment(benchmark::State &state)
{
    runLp(state, assignmentLp(static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(1)), 42));
}
BENCHMARK(BM_SimplexSolveAssignment)
    ->Args({36, 4})->Args({72, 4})->Args({72, 8});

void
BM_BranchBoundKnapsack(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Model m = makeKnapsack(n);
    for (auto _ : state) {
        BranchBoundSolver solver;
        Solution s = solver.solve(m);
        benchmark::DoNotOptimize(s.objective);
    }
}
BENCHMARK(BM_BranchBoundKnapsack)->Arg(8)->Arg(16)->Arg(24);

void
BM_AssignmentIlp(benchmark::State &state)
{
    // Mirrors one coarse level-1 solve.
    Model m = makePartitionIlp(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        SolverOptions opt;
        opt.maxNodes = 200;
        opt.timeLimitSeconds = 2.0;
        BranchBoundSolver solver(opt);
        Solution s = solver.solve(m);
        benchmark::DoNotOptimize(s.status);
    }
}
BENCHMARK(BM_AssignmentIlp)->Arg(16)->Arg(32)->Arg(64);

} // namespace

// Custom main instead of BENCHMARK_MAIN(): accepts the repo-wide
// `--json <path>` flag by rewriting it into google-benchmark's
// --benchmark_out / --benchmark_out_format arguments.
int
main(int argc, char **argv)
{
    std::vector<std::string> storage;
    std::vector<char *> args =
        tapacs::bench::translateJsonFlag(argc, argv, storage);
    benchmark::Initialize(&argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
