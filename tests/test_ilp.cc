/**
 * @file
 * Tests for the ILP substrate: model building, the simplex LP core,
 * and branch-and-bound — including randomized property tests checked
 * against the exhaustive oracle.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "apps/cnn.hh"
#include "common/crc64.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "compiler/compiler.hh"
#include "ilp/model.hh"
#include "ilp/simplex.hh"
#include "ilp/solver.hh"
#include "network/cluster.hh"

// Heap allocations made by the current thread while counting is on;
// checks that a warmed LpWorkspace keeps node LPs allocation-free.
namespace
{
thread_local bool t_countAllocs = false;
thread_local long t_allocs = 0;
} // namespace

// Out of line, so the compiler never sees a new/free pair it would
// flag as mismatched. Every unaligned form is replaced, so whichever
// form allocates (std::stable_sort's buffer uses nothrow new), the
// matching delete frees memory that came from malloc — under ASan
// too, whose own operator new would otherwise pair with this free.
[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    if (t_countAllocs)
        ++t_allocs;
    return std::malloc(size ? size : 1);
}

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    if (void *p = operator new(size, std::nothrow))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return operator new(size);
}

[[gnu::noinline]] void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return operator new(size, std::nothrow);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace tapacs::ilp
{
namespace
{

TEST(LinExpr, NormalizeMergesDuplicates)
{
    LinExpr e;
    e.add(0, 1.0).add(1, 2.0).add(0, 3.0).add(2, 0.0);
    e.normalize();
    ASSERT_EQ(e.terms().size(), 2u);
    EXPECT_DOUBLE_EQ(e.terms()[0].coeff, 4.0);
    EXPECT_DOUBLE_EQ(e.terms()[1].coeff, 2.0);
}

TEST(LinExpr, EvaluateWithConstant)
{
    LinExpr e;
    e.add(0, 2.0).add(1, -1.0).addConstant(5.0);
    EXPECT_DOUBLE_EQ(e.evaluate({3.0, 4.0}), 2.0 * 3 - 4 + 5);
}

TEST(LinExpr, AddScaledExpression)
{
    LinExpr a;
    a.add(0, 1.0).addConstant(1.0);
    LinExpr b;
    b.add(0, 2.0).addConstant(3.0);
    a.add(b, 2.0);
    a.normalize();
    EXPECT_DOUBLE_EQ(a.evaluate({1.0}), 1.0 + 1.0 + 2.0 * (2.0 + 3.0));
}

TEST(Model, FeasibilityCheck)
{
    Model m;
    const VarId x = m.addBinary("x");
    const VarId y = m.addContinuous(0.0, "y");
    LinExpr c;
    c.add(x, 1.0).add(y, 1.0);
    m.addConstraint(std::move(c), Sense::LessEqual, 2.0);

    EXPECT_TRUE(m.isFeasible({1.0, 1.0}));
    EXPECT_FALSE(m.isFeasible({1.0, 1.5})); // violates <= 2
    EXPECT_FALSE(m.isFeasible({0.5, 0.0})); // fractional binary
    EXPECT_FALSE(m.isFeasible({1.0, -0.5})); // below lower bound
    EXPECT_FALSE(m.isFeasible({1.0}));       // wrong arity
}

TEST(Model, IntegerVarListing)
{
    Model m;
    m.addContinuous(0.0);
    const VarId b = m.addBinary();
    const VarId i = m.addVar(VarKind::Integer, 0.0, 10.0);
    const auto ints = m.integerVars();
    ASSERT_EQ(ints.size(), 2u);
    EXPECT_EQ(ints[0], b);
    EXPECT_EQ(ints[1], i);
}

// ---- Simplex ---------------------------------------------------------

TEST(Simplex, SolvesTextbookLp)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    // => min -3x -5y; optimum at (2, 6), objective -36.
    Model m;
    const VarId x = m.addContinuous(0.0, "x");
    const VarId y = m.addContinuous(0.0, "y");
    m.addConstraint(LinExpr().add(x, 1.0), Sense::LessEqual, 4.0);
    m.addConstraint(LinExpr().add(y, 2.0), Sense::LessEqual, 12.0);
    m.addConstraint(LinExpr().add(x, 3.0).add(y, 2.0), Sense::LessEqual,
                    18.0);
    m.setObjective(LinExpr().add(x, -3.0).add(y, -5.0));

    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.objective, -36.0, 1e-6);
    EXPECT_NEAR(r.values[x], 2.0, 1e-6);
    EXPECT_NEAR(r.values[y], 6.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible)
{
    Model m;
    const VarId x = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0), Sense::LessEqual, 1.0);
    m.addConstraint(LinExpr().add(x, 1.0), Sense::GreaterEqual, 2.0);
    m.setObjective(LinExpr().add(x, 1.0));
    EXPECT_EQ(solveLp(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded)
{
    Model m;
    const VarId x = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0), Sense::GreaterEqual, 1.0);
    m.setObjective(LinExpr().add(x, -1.0)); // minimize -x, x unbounded
    EXPECT_EQ(solveLp(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, HandlesEqualityConstraints)
{
    // min x + y s.t. x + y = 5, x - y = 1 => (3, 2).
    Model m;
    const VarId x = m.addContinuous(0.0);
    const VarId y = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, 1.0), Sense::Equal, 5.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, -1.0), Sense::Equal, 1.0);
    m.setObjective(LinExpr().add(x, 1.0).add(y, 1.0));
    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.values[x], 3.0, 1e-6);
    EXPECT_NEAR(r.values[y], 2.0, 1e-6);
}

TEST(Simplex, RespectsVariableBounds)
{
    // min x with 2 <= x <= 7 -> 2; max (min -x) -> 7.
    Model m;
    const VarId x = m.addVar(VarKind::Continuous, 2.0, 7.0);
    m.setObjective(LinExpr().add(x, 1.0));
    LpResult lo = solveLp(m);
    ASSERT_EQ(lo.status, SolveStatus::Optimal);
    EXPECT_NEAR(lo.values[x], 2.0, 1e-6);

    m.setObjective(LinExpr().add(x, -1.0));
    LpResult hi = solveLp(m);
    ASSERT_EQ(hi.status, SolveStatus::Optimal);
    EXPECT_NEAR(hi.values[x], 7.0, 1e-6);
}

TEST(Simplex, BoundOverridesShrinkFeasibleSet)
{
    Model m;
    const VarId x = m.addVar(VarKind::Continuous, 0.0, 10.0);
    m.setObjective(LinExpr().add(x, -1.0)); // maximize x
    LpResult r = solveLp(m, {0.0}, {4.0});
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.values[x], 4.0, 1e-6);

    // Crossed override bounds -> infeasible.
    EXPECT_EQ(solveLp(m, {5.0}, {4.0}).status, SolveStatus::Infeasible);
}

TEST(Simplex, NegativeRhsNormalization)
{
    // x - y <= -2 with minimize x + y -> x=0, y=2.
    Model m;
    const VarId x = m.addContinuous(0.0);
    const VarId y = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, -1.0), Sense::LessEqual,
                    -2.0);
    m.setObjective(LinExpr().add(x, 1.0).add(y, 1.0));
    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

/** Random LPs: any feasible sample must score no better than the
 *  simplex optimum. */
class SimplexProperty : public ::testing::TestWithParam<int>
{
};

/** The SimplexProperty LP for @p param, drawn from @p rng (seeded
 *  1000 + param); the property test keeps drawing sample points from
 *  the same stream afterwards. */
Model
makeRandomLp(int param, Rng &rng)
{
    Model m;
    const int n = 3 + param % 4;
    for (int i = 0; i < n; ++i)
        m.addVar(VarKind::Continuous, 0.0, 10.0);
    const int rows = 2 + param % 5;
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (int i = 0; i < n; ++i)
            e.add(i, rng.uniformReal(0.0, 2.0));
        m.addConstraint(std::move(e), Sense::LessEqual,
                        rng.uniformReal(5.0, 30.0));
    }
    LinExpr obj;
    for (int i = 0; i < n; ++i)
        obj.add(i, rng.uniformReal(-2.0, 1.0));
    m.setObjective(std::move(obj));
    return m;
}

TEST_P(SimplexProperty, OptimumDominatesRandomFeasiblePoints)
{
    Rng rng(1000 + GetParam());
    const Model m = makeRandomLp(GetParam(), rng);
    const int n = m.numVars();

    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal) << "seed " << GetParam();
    EXPECT_TRUE(m.isFeasible(r.values, 1e-5));

    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> pt(n);
        for (int i = 0; i < n; ++i)
            pt[i] = rng.uniformReal(0.0, 10.0);
        if (m.isFeasible(pt, 0.0)) {
            EXPECT_GE(m.objective().evaluate(pt), r.objective - 1e-6);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexProperty,
                         ::testing::Range(0, 20));

// ---- Branch and bound --------------------------------------------------

TEST(BranchBound, SolvesSmallKnapsack)
{
    // max 10a + 13b + 7c, weights 3a + 4b + 2c <= 6: best is b + c
    // (weight 6, value 20).
    Model m;
    const VarId a = m.addBinary("a");
    const VarId b = m.addBinary("b");
    const VarId c = m.addBinary("c");
    m.addConstraint(
        LinExpr().add(a, 3.0).add(b, 4.0).add(c, 2.0),
        Sense::LessEqual, 6.0);
    m.setObjective(LinExpr().add(a, -10.0).add(b, -13.0).add(c, -7.0));

    BranchBoundSolver solver;
    Solution s = solver.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -20.0, 1e-6);
    EXPECT_EQ(s.round(a), 0);
    EXPECT_EQ(s.round(b), 1);
    EXPECT_EQ(s.round(c), 1);
}

TEST(BranchBound, IntegerInfeasibleDetected)
{
    // 2x = 3 with x integer has no solution.
    Model m;
    const VarId x = m.addVar(VarKind::Integer, 0.0, 10.0);
    m.addConstraint(LinExpr().add(x, 2.0), Sense::Equal, 3.0);
    m.setObjective(LinExpr().add(x, 1.0));
    BranchBoundSolver solver;
    EXPECT_EQ(solver.solve(m).status, SolveStatus::Infeasible);
}

TEST(BranchBound, WarmStartPrunes)
{
    Model m;
    std::vector<VarId> x;
    for (int i = 0; i < 10; ++i)
        x.push_back(m.addBinary());
    LinExpr cap;
    LinExpr obj;
    for (int i = 0; i < 10; ++i) {
        cap.add(x[i], 1.0 + (i % 3));
        obj.add(x[i], -(2.0 + (i % 5)));
    }
    m.addConstraint(std::move(cap), Sense::LessEqual, 9.0);
    m.setObjective(std::move(obj));

    // Warm start: pick the first few items.
    std::vector<double> warm(10, 0.0);
    warm[0] = warm[1] = warm[2] = 1.0;
    ASSERT_TRUE(m.isFeasible(warm));

    BranchBoundSolver cold;
    Solution cold_sol = cold.solve(m);
    BranchBoundSolver hot;
    Solution hot_sol = hot.solve(m, warm);
    ASSERT_TRUE(cold_sol.hasSolution());
    ASSERT_TRUE(hot_sol.hasSolution());
    EXPECT_NEAR(cold_sol.objective, hot_sol.objective, 1e-6);
}

TEST(BranchBound, MixedIntegerContinuous)
{
    // min -x - 10y, x integer in [0,3], y continuous, x + 4y <= 5.
    Model m;
    const VarId x = m.addVar(VarKind::Integer, 0.0, 3.0);
    const VarId y = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, 4.0), Sense::LessEqual,
                    5.0);
    m.setObjective(LinExpr().add(x, -1.0).add(y, -10.0));
    BranchBoundSolver solver;
    Solution s = solver.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    // y = 5/4 at x = 0 gives -12.5; x=1 -> y=1 -> -11; so x=0.
    EXPECT_NEAR(s.objective, -12.5, 1e-6);
}

TEST(Exhaustive, MatchesKnownOptimum)
{
    Model m;
    const VarId a = m.addBinary();
    const VarId b = m.addBinary();
    m.addConstraint(LinExpr().add(a, 1.0).add(b, 1.0), Sense::LessEqual,
                    1.0);
    m.setObjective(LinExpr().add(a, -3.0).add(b, -2.0));
    ExhaustiveSolver oracle;
    Solution s = oracle.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -3.0, 1e-6);
}

/** Randomized cross-check: branch-and-bound must match the
 *  exhaustive oracle on random small MILPs. */
class BnbVsOracle : public ::testing::TestWithParam<int>
{
};

TEST_P(BnbVsOracle, SameOptimum)
{
    Rng rng(77 + GetParam() * 13);
    Model m;
    const int n = 4 + GetParam() % 5;
    for (int i = 0; i < n; ++i)
        m.addBinary();
    const int rows = 2 + GetParam() % 3;
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (int i = 0; i < n; ++i)
            e.add(i, rng.uniformReal(0.0, 3.0));
        m.addConstraint(std::move(e), Sense::LessEqual,
                        rng.uniformReal(2.0, 8.0));
    }
    LinExpr obj;
    for (int i = 0; i < n; ++i)
        obj.add(i, rng.uniformReal(-5.0, 2.0));
    m.setObjective(std::move(obj));

    ExhaustiveSolver oracle;
    Solution truth = oracle.solve(m);
    BranchBoundSolver solver;
    Solution s = solver.solve(m);

    ASSERT_EQ(truth.hasSolution(), s.hasSolution())
        << "seed " << GetParam();
    if (truth.hasSolution()) {
        EXPECT_NEAR(s.objective, truth.objective, 1e-5)
            << "seed " << GetParam();
        EXPECT_TRUE(m.isFeasible(s.values, 1e-5));
    }
}

INSTANTIATE_TEST_SUITE_P(RandomMilps, BnbVsOracle,
                         ::testing::Range(0, 25));

TEST(BranchBound, GeneralIntegerBounds)
{
    // min -x - 2y with x in [0,7] integer, y in [0,3] integer,
    // x + 2y <= 9: optimum picks y = 3 first (coefficient 2), then
    // x = 3 -> objective -9.
    Model m;
    const VarId x = m.addVar(VarKind::Integer, 0.0, 7.0, "x");
    const VarId y = m.addVar(VarKind::Integer, 0.0, 3.0, "y");
    m.addConstraint(LinExpr().add(x, 1.0).add(y, 2.0), Sense::LessEqual,
                    9.0);
    m.setObjective(LinExpr().add(x, -1.0).add(y, -2.0));
    BranchBoundSolver solver;
    Solution s = solver.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -9.0, 1e-6);
    ExhaustiveSolver oracle;
    EXPECT_NEAR(oracle.solve(m).objective, s.objective, 1e-6);
}

TEST(BranchBound, NodeLimitKeepsWarmIncumbent)
{
    // A deliberately tiny node budget: the solver must still return
    // the warm-start incumbent as Feasible rather than nothing.
    Model m;
    std::vector<VarId> x;
    for (int i = 0; i < 30; ++i)
        x.push_back(m.addBinary());
    LinExpr cap, obj;
    for (int i = 0; i < 30; ++i) {
        cap.add(x[i], 1.0 + (i % 4));
        obj.add(x[i], -(1.0 + (i % 7)));
    }
    m.addConstraint(std::move(cap), Sense::LessEqual, 20.0);
    m.setObjective(std::move(obj));

    std::vector<double> warm(30, 0.0);
    warm[0] = warm[1] = 1.0;
    ASSERT_TRUE(m.isFeasible(warm));

    SolverOptions opt;
    opt.maxNodes = 2;
    BranchBoundSolver solver(opt);
    Solution s = solver.solve(m, warm);
    ASSERT_TRUE(s.hasSolution());
    // At least as good as the warm start.
    EXPECT_LE(s.objective, m.objective().evaluate(warm) + 1e-9);
    EXPECT_LE(solver.stats().nodesExplored, 2);
}

/** Many redundant constraints through the origin — classic
 *  degeneracy. */
Model
makeDegenerateLp()
{
    Model m;
    const VarId x = m.addContinuous(0.0);
    const VarId y = m.addContinuous(0.0);
    for (int k = 1; k <= 12; ++k) {
        m.addConstraint(
            LinExpr().add(x, static_cast<double>(k)).add(y, 1.0),
            Sense::LessEqual, 0.0);
    }
    m.setObjective(LinExpr().add(x, -1.0).add(y, -1.0));
    return m;
}

TEST(Simplex, DegenerateLpTerminates)
{
    // Bland's rule must prevent cycling.
    LpResult r = solveLp(makeDegenerateLp());
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.objective, 0.0, 1e-9); // stuck at the origin
}

TEST(BranchBound, StatsPopulated)
{
    Model m;
    const VarId x = m.addBinary();
    m.setObjective(LinExpr().add(x, -1.0));
    BranchBoundSolver solver;
    Solution s = solver.solve(m);
    ASSERT_TRUE(s.hasSolution());
    EXPECT_GE(solver.stats().nodesExplored, 1);
    EXPECT_GE(solver.stats().lpSolves, 1);
    EXPECT_TRUE(solver.stats().provenOptimal);
}

TEST(BranchBound, UnboundedDetected)
{
    Model m;
    const VarId x = m.addVar(VarKind::Integer, 0.0,
                             std::numeric_limits<double>::infinity());
    m.addConstraint(LinExpr().add(x, 1.0), Sense::GreaterEqual, 1.0);
    m.setObjective(LinExpr().add(x, -1.0));
    BranchBoundSolver solver;
    EXPECT_EQ(solver.solve(m).status, SolveStatus::Unbounded);
}

constexpr int kAssignTasks = 6, kAssignDevs = 3;

/** Cost of placing task @p t on device @p d in makeAssignmentModel. */
double
assignmentCost(int t, int d)
{
    return ((t * 7 + d * 3) % 11) - 5.0;
}

/** 6 tasks onto 3 devices, one device each, capacity 2.5 per
 *  device, costs favoring a unique optimal assignment. */
Model
makeAssignmentModel()
{
    Model m;
    std::vector<VarId> x(kAssignTasks * kAssignDevs);
    for (int t = 0; t < kAssignTasks; ++t)
        for (int d = 0; d < kAssignDevs; ++d)
            x[t * kAssignDevs + d] = m.addBinary();
    for (int t = 0; t < kAssignTasks; ++t) {
        LinExpr one;
        for (int d = 0; d < kAssignDevs; ++d)
            one.add(x[t * kAssignDevs + d], 1.0);
        m.addConstraint(std::move(one), Sense::Equal, 1.0);
    }
    for (int d = 0; d < kAssignDevs; ++d) {
        LinExpr cap;
        for (int t = 0; t < kAssignTasks; ++t)
            cap.add(x[t * kAssignDevs + d], 1.0);
        m.addConstraint(std::move(cap), Sense::LessEqual, 2.5);
    }
    LinExpr obj;
    for (int t = 0; t < kAssignTasks; ++t)
        for (int d = 0; d < kAssignDevs; ++d)
            obj.add(x[t * kAssignDevs + d], assignmentCost(t, d));
    m.setObjective(std::move(obj));
    return m;
}

TEST(BranchBound, FloorplanShapedAssignmentProvenOptimal)
{
    // Ground truth by enumerating all 3^6 task->device maps with at
    // most two tasks per device.
    double best = std::numeric_limits<double>::infinity();
    for (int code = 0; code < 729; ++code) {
        int load[kAssignDevs] = {0, 0, 0};
        double cost = 0.0;
        for (int t = 0, c = code; t < kAssignTasks; ++t, c /= 3) {
            ++load[c % 3];
            cost += assignmentCost(t, c % 3);
        }
        if (load[0] <= 2 && load[1] <= 2 && load[2] <= 2)
            best = std::min(best, cost);
    }

    const Model m = makeAssignmentModel();
    BranchBoundSolver solver;
    const Solution s = solver.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, best, 1e-6);
    EXPECT_TRUE(m.isFeasible(s.values, 1e-5));
    EXPECT_TRUE(solver.stats().provenOptimal);
    EXPECT_GE(solver.stats().lpSolves, 1);
}

TEST(Exhaustive, PureLpModelGetsClearStatus)
{
    // No integral variables: the oracle must answer with one LP solve
    // instead of enumerating an empty odometer.
    {
        Model m;
        const VarId x = m.addContinuous(0.0);
        m.addConstraint(LinExpr().add(x, 1.0), Sense::LessEqual, 4.0);
        m.setObjective(LinExpr().add(x, -1.0));
        ExhaustiveSolver oracle;
        Solution s = oracle.solve(m);
        ASSERT_EQ(s.status, SolveStatus::Optimal);
        EXPECT_NEAR(s.objective, -4.0, 1e-6);
    }
    {
        Model m;
        const VarId x = m.addContinuous(0.0);
        m.addConstraint(LinExpr().add(x, 1.0), Sense::GreaterEqual, 2.0);
        m.addConstraint(LinExpr().add(x, 1.0), Sense::LessEqual, 1.0);
        m.setObjective(LinExpr().add(x, 1.0));
        ExhaustiveSolver oracle;
        EXPECT_EQ(oracle.solve(m).status, SolveStatus::Infeasible);
    }
    {
        Model m;
        const VarId x = m.addContinuous(0.0);
        m.addConstraint(LinExpr().add(x, 1.0), Sense::GreaterEqual, 1.0);
        m.setObjective(LinExpr().add(x, -1.0));
        ExhaustiveSolver oracle;
        EXPECT_EQ(oracle.solve(m).status, SolveStatus::Unbounded);
    }
}

// ---- Sparse pivot boundaries ------------------------------------------

/**
 * Dense LP with a known optimum: A x <= b with every A entry nonzero
 * (diagonally dominant, so invertible), b = A x* and c = -A^T y for
 * y > 0. Every constraint is active at x* with positive duals, so x*
 * is the unique optimum with objective -y^T b. The constraint rows
 * span every structural column, the case where the sparse update
 * touches as many columns as the dense one did.
 */
TEST(Simplex, FullyDensePivotRowsReachKnownOptimum)
{
    constexpr int kN = 12;
    auto a = [](int i, int j) {
        return 1.0 + 0.25 * ((i * 3 + j * 5) % 4) + (i == j ? kN : 0);
    };
    Model m;
    for (int j = 0; j < kN; ++j)
        m.addVar(VarKind::Continuous, 0.0, 100.0);
    double expected = 0.0;
    for (int i = 0; i < kN; ++i) {
        LinExpr e;
        double b = 0.0;
        for (int j = 0; j < kN; ++j) {
            e.add(j, a(i, j));
            b += a(i, j) * (j + 1.0);
        }
        m.addConstraint(std::move(e), Sense::LessEqual, b);
        expected -= (i % 3 + 1.0) * b;
    }
    LinExpr obj;
    for (int j = 0; j < kN; ++j) {
        double c = 0.0;
        for (int i = 0; i < kN; ++i)
            c -= a(i, j) * (i % 3 + 1.0);
        obj.add(j, c);
    }
    m.setObjective(std::move(obj));

    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.objective, expected, 1e-6 * std::abs(expected));
    for (int j = 0; j < kN; ++j)
        EXPECT_NEAR(r.values[j], j + 1.0, 1e-7) << "x" << j;
}

/** Dense binary MILPs with mixed senses: every node LP pivots on
 *  dense rows, and branch-and-bound must match the oracle. */
TEST(BranchBound, DenseMixedSenseMilpsMatchOracle)
{
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng(500 + seed);
        Model m;
        const int n = 8;
        for (int i = 0; i < n; ++i)
            m.addBinary();
        const Sense senses[] = {Sense::LessEqual, Sense::GreaterEqual,
                                Sense::LessEqual};
        for (Sense sense : senses) {
            LinExpr e;
            for (int i = 0; i < n; ++i)
                e.add(i, rng.uniformReal(0.5, 3.0));
            const double rhs = sense == Sense::LessEqual
                                   ? rng.uniformReal(6.0, 10.0)
                                   : rng.uniformReal(1.0, 4.0);
            m.addConstraint(std::move(e), sense, rhs);
        }
        LinExpr obj;
        for (int i = 0; i < n; ++i)
            obj.add(i, rng.uniformReal(-5.0, 2.0));
        m.setObjective(std::move(obj));

        Solution truth = ExhaustiveSolver().solve(m);
        Solution s = BranchBoundSolver().solve(m);
        ASSERT_EQ(truth.hasSolution(), s.hasSolution()) << "seed " << seed;
        if (truth.hasSolution()) {
            EXPECT_NEAR(s.objective, truth.objective, 1e-6)
                << "seed " << seed;
        }
    }
}

/**
 * A redundant equality (row 3 = row 1 + row 2) leaves an artificial
 * basic at zero after phase 1: its row has no nonzero structural or
 * slack entry to pivot on. Phase 2 must pivot around that row.
 * min x - y + z  s.t. x + y = 2, y + z = 3, x + 2y + z = 5, x,y,z >= 0:
 * y = 2 gives x = 0, z = 1, objective -1.
 */
TEST(Simplex, RedundantEqualityKeepsBasicArtificial)
{
    Model m;
    const VarId x = m.addContinuous(0.0);
    const VarId y = m.addContinuous(0.0);
    const VarId z = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, 1.0), Sense::Equal, 2.0);
    m.addConstraint(LinExpr().add(y, 1.0).add(z, 1.0), Sense::Equal, 3.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, 2.0).add(z, 1.0),
                    Sense::Equal, 5.0);
    m.setObjective(LinExpr().add(x, 1.0).add(y, -1.0).add(z, 1.0));
    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.objective, -1.0, 1e-9);
    EXPECT_NEAR(r.values[x], 0.0, 1e-9);
    EXPECT_NEAR(r.values[y], 2.0, 1e-9);
    EXPECT_NEAR(r.values[z], 1.0, 1e-9);
}

/** The same redundancy inside branch-and-bound: binary assignment
 *  rows plus their sum restated as one more equality. */
TEST(BranchBound, RedundantEqualityMatchesOracle)
{
    Model m = makeAssignmentModel();
    LinExpr all;
    for (VarId v = 0; v < m.numVars(); ++v)
        all.add(v, 1.0);
    m.addConstraint(std::move(all), Sense::Equal, 6.0);
    Solution truth = ExhaustiveSolver().solve(m);
    Solution s = BranchBoundSolver().solve(m);
    ASSERT_EQ(truth.status, SolveStatus::Optimal);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, truth.objective, 1e-9);
}

/** A branched child LP on a warmed workspace (same shape, other
 *  bounds) allocates nothing but its returned solution vector. */
TEST(Simplex, WarmWorkspaceNodeLpAllocatesOnlyTheSolution)
{
    const Model m = makeAssignmentModel();
    std::vector<double> lo(m.numVars(), 0.0), hi(m.numVars(), 1.0);
    const SimplexOptions opt;
    LpWorkspace ws;
    ASSERT_EQ(solveLp(m, lo, hi, opt, &ws).status, SolveStatus::Optimal);
    hi[0] = 0.0;
    lo[1] = 1.0;
    t_allocs = 0;
    t_countAllocs = true;
    const LpResult r = solveLp(m, lo, hi, opt, &ws);
    t_countAllocs = false;
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(t_allocs, 1);
}

// ---- Pivot-path pins ---------------------------------------------------
//
// Values captured from the dense-update simplex that the sparse pivot
// replaced. The sparse update must take the same pivots to the same
// bits, so a change to pricing, the ratio test, Bland's rule or the
// arithmetic order of any cell shows up here as a changed pivot count
// or digest, not only as a drifted benchmark.

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

std::uint64_t
valuesDigest(const std::vector<double> &values)
{
    return crc64(values.data(), values.size() * sizeof(double));
}

struct LpPin
{
    SolveStatus status;
    int iterations;
    std::uint64_t objectiveBits;
    std::uint64_t valuesDigest;
};

void
expectPinned(const LpResult &r, const LpPin &pin, const std::string &what)
{
    const std::string actual = strprintf(
        "%s: {%s, %d, 0x%016llx, 0x%016llx}", what.c_str(),
        toString(r.status), r.iterations,
        static_cast<unsigned long long>(bitsOf(r.objective)),
        static_cast<unsigned long long>(valuesDigest(r.values)));
    EXPECT_EQ(r.status, pin.status) << actual;
    EXPECT_EQ(r.iterations, pin.iterations) << actual;
    EXPECT_EQ(bitsOf(r.objective), pin.objectiveBits) << actual;
    EXPECT_EQ(valuesDigest(r.values), pin.valuesDigest) << actual;
}

TEST(PivotPath, RandomLpsPinned)
{
    const LpPin pins[20] = {
        {SolveStatus::Optimal, 1, 0xc01918ad67977d1a, 0xdd600b682ef10146},
        {SolveStatus::Optimal, 2, 0xc022508cb3b88338, 0xfecbb48c0a862d5b},
        {SolveStatus::Optimal, 3, 0xc01bb9a5babddeb7, 0x51273021efd8e6ae},
        {SolveStatus::Optimal, 5, 0xc03491538b9d868b, 0xd09a9852131b0d3b},
        {SolveStatus::Optimal, 1, 0xc0247aedb89abc9d, 0x43f55e8a95dc2a09},
        {SolveStatus::Optimal, 2, 0xc0320ec5eac942a9, 0x01fc6bb64ef70da4},
        {SolveStatus::Optimal, 2, 0xc0363b8b52cea158, 0xddbcf6d3a0058a5e},
        {SolveStatus::Optimal, 1, 0xc00666dfb4ab389f, 0xb1e2dd9011adba36},
        {SolveStatus::Optimal, 1, 0xc030b03aa6a0c084, 0x5ed2fbf5a42bfc50},
        {SolveStatus::Optimal, 2, 0xc032727d8486f300, 0xf0f83d7e5bba552d},
        {SolveStatus::Optimal, 2, 0xc032b04ac87fdfc6, 0xce4ff63aa340ec5b},
        {SolveStatus::Optimal, 2, 0xc038c3829220d7ff, 0x2eec71e3bc293c09},
        {SolveStatus::Optimal, 1, 0xbfffcb280a207548, 0x23cb2e29665750f3},
        {SolveStatus::Optimal, 2, 0xc016adc9bd7bec70, 0xd1fe31fb9a58040a},
        {SolveStatus::Optimal, 2, 0xc01aac5565fbedfb, 0x40c87f79f7f1c7d3},
        {SolveStatus::Optimal, 2, 0xc03f98096f54b2d7, 0x5d8c4ade6fe2bba2},
        {SolveStatus::Optimal, 2, 0xc031ad7415e455ab, 0x758ff9d5b42fe8c1},
        {SolveStatus::Optimal, 1, 0xc0316fc47c045531, 0x2695c46353ec57c8},
        {SolveStatus::Optimal, 1, 0xc022971cf97092af, 0xcb33ef199ecf1d5c},
        {SolveStatus::Optimal, 4, 0xc033b62f33048ee6, 0xd000094e41a63ea7},
    };
    for (int param = 0; param < 20; ++param) {
        Rng rng(1000 + param);
        expectPinned(solveLp(makeRandomLp(param, rng)), pins[param],
                     strprintf("RandomLps/%d", param));
    }
}

TEST(PivotPath, DegenerateAndAssignmentLpsPinned)
{
    expectPinned(solveLp(makeDegenerateLp()),
                 {SolveStatus::Optimal, 1, 0x0000000000000000,
                  0xe9a13f17fb6a2363},
                 "degenerate");
    expectPinned(solveLp(makeAssignmentModel()),
                 {SolveStatus::Optimal, 17, 0xc032800000000000,
                  0xd6e111435eb1ec7e},
                 "assignment");
}

/**
 * Both floorplan levels of a 2-FPGA CNN 13x4 compile, serial and
 * under node budgets only (no wall-clock cap), so the B&B search is
 * a pure function of the LP results.
 */
TEST(PivotPath, CnnTwoFpgaFloorplanPinned)
{
    apps::CnnConfig cnn;
    cnn.rows = 13;
    cnn.cols = 4;
    cnn.numFpgas = 2;
    apps::AppDesign design = apps::buildCnn(cnn);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    opt.numThreads = 1;
    opt.inter.solver.timeLimitSeconds = 0.0;
    opt.intra.solver.timeLimitSeconds = 0.0;
    const CompileResult r = compileProgram(design.graph, design.tasks,
                                           makePaperTestbed(2), opt);
    ASSERT_TRUE(r.routable) << r.failureReason;

    const auto &dev = r.partition.deviceOf;
    const std::uint64_t l1_digest =
        crc64(dev.data(), dev.size() * sizeof(dev[0]));
    std::uint64_t l2_digest = 0;
    for (const SlotCoord &slot : r.placement.slotOf) {
        const std::int64_t cr[2] = {slot.col, slot.row};
        l2_digest = crc64(cr, sizeof cr, l2_digest);
    }
    const std::string actual = strprintf(
        "L1 nodes %lld pivots %lld digest 0x%016llx; "
        "L2 nodes %lld pivots %lld digest 0x%016llx",
        static_cast<long long>(r.l1SolverStats.nodesExplored),
        static_cast<long long>(r.l1SolverStats.lpIterations),
        static_cast<unsigned long long>(l1_digest),
        static_cast<long long>(r.l2SolverStats.nodesExplored),
        static_cast<long long>(r.l2SolverStats.lpIterations),
        static_cast<unsigned long long>(l2_digest));
    EXPECT_EQ(r.l1SolverStats.nodesExplored, 143) << actual;
    EXPECT_EQ(r.l1SolverStats.lpIterations, 14794) << actual;
    EXPECT_EQ(l1_digest, 0x14e161ee5da136bbu) << actual;
    EXPECT_EQ(r.l2SolverStats.nodesExplored, 775) << actual;
    EXPECT_EQ(r.l2SolverStats.lpIterations, 111409) << actual;
    EXPECT_EQ(l2_digest, 0xd341b9fdda3436c4u) << actual;
}

} // namespace
} // namespace tapacs::ilp
