/**
 * @file
 * Two-phase primal simplex solver for the LP relaxation of a Model.
 *
 * This is the workhorse under the branch-and-bound ILP solver. It
 * accepts any Model (integrality is ignored here), converts it to
 * standard form (shifted non-negative variables, slack/surplus/
 * artificial columns), and runs dense tableau simplex with Dantzig
 * pricing and a Bland's-rule anti-cycling fallback.
 *
 * The floorplanning LPs in this project are small-to-medium systems
 * (hundreds to a few thousand columns after coarsening), for which a
 * dense tableau is simple and predictable. Their rows are sparse, so
 * each pivot updates only the columns where the pivot row is nonzero;
 * the result is bit-identical to a dense update. See
 * bench_micro_solver for measured pivot throughput.
 */

#ifndef TAPACS_ILP_SIMPLEX_HH
#define TAPACS_ILP_SIMPLEX_HH

#include <vector>

#include "common/context.hh"
#include "ilp/model.hh"

namespace tapacs::ilp
{

/** Options controlling a single LP solve. */
struct SimplexOptions
{
    /** Numerical tolerance for feasibility / reduced costs. */
    double tol = 1e-7;
    /** Hard cap on simplex pivots per phase (0 = auto from size). */
    int maxIterations = 0;
    /**
     * Deadline/cancellation token, polled every few dozen pivots.
     * When it fires the solve unwinds with SolveStatus::LimitReached,
     * which branch-and-bound already treats as "not proven" — the
     * search keeps its best incumbent. Default: never fires.
     */
    Context ctx;
};

/** Result of an LP relaxation solve. */
struct LpResult
{
    SolveStatus status = SolveStatus::LimitReached;
    double objective = 0.0;
    std::vector<double> values; ///< one value per model variable
    /** Simplex pivots performed across both phases (the solver's
     *  per-node effort metric, surfaced in SolverStats). */
    int iterations = 0;
};

/**
 * Reusable scratch buffers for solveLp.
 *
 * Branch-and-bound calls solveLp once per node on a model of fixed
 * shape; without reuse every call allocates a fresh dense tableau
 * (O(rows x cols) doubles), and that allocator traffic is what the
 * parallel solver amplifies first. Each solver worker owns one
 * workspace and threads it through all of its LP solves. solveLp
 * builds the tableau straight into these vectors, which keep their
 * capacity across calls, so steady state performs no heap allocation
 * per node beyond the returned solution.
 *
 * A workspace must not be shared between concurrent solveLp calls.
 */
struct LpWorkspace
{
    /** Standard form of one tableau row before it is filled in. */
    struct RowForm
    {
        Sense sense;  ///< after normalizing the RHS to >= 0
        bool negated; ///< the row was multiplied by -1 to get there
    };

    std::vector<double> matrix; ///< dense tableau, row-major
    std::vector<double> rhs;
    std::vector<double> cost;
    std::vector<int> basis;
    std::vector<RowForm> rowForms;
    std::vector<int> pivotCols; ///< nonzero columns of the pivot row
    std::vector<double> lower;  ///< effective per-variable bounds
    std::vector<double> upper;
};

/**
 * Solve the LP relaxation of @p model.
 *
 * @param model the MILP whose relaxation to solve.
 * @param boundsLower optional per-variable lower-bound overrides
 *        (used by branch-and-bound); empty = use model bounds.
 * @param boundsUpper optional per-variable upper-bound overrides.
 * @param options numerical options.
 * @param scratch optional reusable buffers (see LpWorkspace); pass
 *        nullptr to allocate fresh scratch for this call.
 * @return LP status, objective and a full variable assignment.
 */
LpResult solveLp(const Model &model,
                 const std::vector<double> &boundsLower = {},
                 const std::vector<double> &boundsUpper = {},
                 const SimplexOptions &options = {},
                 LpWorkspace *scratch = nullptr);

} // namespace tapacs::ilp

#endif // TAPACS_ILP_SIMPLEX_HH
