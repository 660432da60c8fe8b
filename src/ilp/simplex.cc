#include "ilp/simplex.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace tapacs::ilp
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Dense standard-form tableau: rows are constraints, columns are
 * structural + slack + artificial variables, plus an RHS column and a
 * cost row. All variables are >= 0; all RHS entries are >= 0.
 *
 * The storage lives in an LpWorkspace so a branch-and-bound worker
 * reuses one allocation across all of its node LPs.
 */
struct Tableau
{
    explicit Tableau(LpWorkspace &ws)
        : a(ws.matrix), rhs(ws.rhs), cost(ws.cost), basis(ws.basis),
          locked(ws.locked), pivotCols(ws.pivotCols)
    {
    }

    int rows = 0;
    int cols = 0; // excludes rhs column
    std::vector<double> &a; // rows x cols, row-major
    std::vector<double> &rhs;
    std::vector<double> &cost;   // current phase objective
    double costShift = 0.0;      // constant part of objective
    std::vector<int> &basis;     // basis[r] = basic column of row r
    std::vector<unsigned char> &locked; // excluded from entering
    std::vector<int> &pivotCols; // nonzero columns of the pivot row

    double &at(int r, int c) { return a[static_cast<size_t>(r) * cols + c]; }
    double at(int r, int c) const
    {
        return a[static_cast<size_t>(r) * cols + c];
    }

    /**
     * Pivot on (pr, pc), updating only the columns where the scaled
     * pivot row is nonzero. At any other column a dense update would
     * subtract f * 0, which leaves the cell's value unchanged (at most
     * the sign of a zero differs, and every test reads values through
     * != 0, > tol, < -tol or abs()). Each updated cell, RHS and
     * costShift sees the same operations in the same order as a dense
     * update, so every LP takes the same pivots to the same bits.
     */
    void
    pivot(int pr, int pc)
    {
        const double pivval = at(pr, pc);
        tapacs_assert(std::abs(pivval) > 1e-12);
        const double inv = 1.0 / pivval;
        double *prow = &at(pr, 0);
        int nnz = 0;
        for (int c = 0; c < cols; ++c) {
            prow[c] *= inv;
            pivotCols[nnz] = c;
            nnz += prow[c] != 0.0;
        }
        rhs[pr] *= inv;
        prow[pc] = 1.0;
        for (int r = 0; r < rows; ++r) {
            if (r == pr)
                continue;
            double *row = &at(r, 0);
            const double f = row[pc];
            if (f == 0.0)
                continue;
            for (int k = 0; k < nnz; ++k)
                row[pivotCols[k]] -= f * prow[pivotCols[k]];
            rhs[r] -= f * rhs[pr];
            row[pc] = 0.0;
        }
        const double f = cost[pc];
        if (f != 0.0) {
            for (int k = 0; k < nnz; ++k)
                cost[pivotCols[k]] -= f * prow[pivotCols[k]];
            costShift -= f * rhs[pr];
            cost[pc] = 0.0;
        }
        basis[pr] = pc;
    }

    /** Price out the basic column of row @p r from the cost row. */
    void
    reduceCost(int r)
    {
        const int bc = basis[r];
        const double f = cost[bc];
        if (f == 0.0)
            return;
        for (int c = 0; c < cols; ++c)
            cost[c] -= f * at(r, c);
        costShift -= f * rhs[r];
        cost[bc] = 0.0;
    }
};

/** Run simplex iterations on the current phase objective; the number
 *  of pivots performed is accumulated into @p pivots. */
SolveStatus
iterate(Tableau &t, const SimplexOptions &opt, int max_iters, int &pivots)
{
    const double tol = opt.tol;
    bool bland = false;
    int degenerate_streak = 0;
    for (int iter = 0; iter < max_iters; ++iter) {
        // Cooperative deadline/cancel poll. Every 64 pivots keeps the
        // clock read off the hot path while still bounding how long a
        // cancelled request can sit inside one LP.
        if ((iter & 63) == 0 && opt.ctx.done())
            return SolveStatus::LimitReached;
        // Pricing: pick entering column with negative reduced cost.
        int pc = -1;
        if (!bland) {
            double best = -tol;
            for (int c = 0; c < t.cols; ++c) {
                if (t.locked[c])
                    continue;
                if (t.cost[c] < best) {
                    best = t.cost[c];
                    pc = c;
                }
            }
        } else {
            for (int c = 0; c < t.cols; ++c) {
                if (!t.locked[c] && t.cost[c] < -tol) {
                    pc = c;
                    break;
                }
            }
        }
        if (pc < 0)
            return SolveStatus::Optimal;

        // Ratio test: pick leaving row.
        int pr = -1;
        double best_ratio = kInf;
        for (int r = 0; r < t.rows; ++r) {
            const double arc = t.at(r, pc);
            if (arc > tol) {
                const double ratio = t.rhs[r] / arc;
                if (ratio < best_ratio - 1e-12 ||
                    (bland && ratio < best_ratio + 1e-12 && pr >= 0 &&
                     t.basis[r] < t.basis[pr])) {
                    best_ratio = ratio;
                    pr = r;
                }
            }
        }
        if (pr < 0)
            return SolveStatus::Unbounded;

        if (best_ratio < 1e-12) {
            if (++degenerate_streak > 64)
                bland = true;
        } else {
            degenerate_streak = 0;
        }
        t.pivot(pr, pc);
        ++pivots;
    }
    return SolveStatus::LimitReached;
}

} // namespace

LpResult
solveLp(const Model &model, const std::vector<double> &boundsLower,
        const std::vector<double> &boundsUpper,
        const SimplexOptions &options, LpWorkspace *scratch)
{
    const int n = model.numVars();
    LpResult out;

    LpWorkspace local;
    LpWorkspace &ws = scratch ? *scratch : local;

    // Effective bounds, with branch-and-bound overrides applied.
    ws.lower.resize(n);
    ws.upper.resize(n);
    std::vector<double> &lo = ws.lower;
    std::vector<double> &hi = ws.upper;
    for (VarId v = 0; v < n; ++v) {
        lo[v] = boundsLower.empty() ? model.var(v).lower : boundsLower[v];
        hi[v] = boundsUpper.empty() ? model.var(v).upper : boundsUpper[v];
        if (!std::isfinite(lo[v])) {
            panic("simplex: variable '%s' has non-finite lower bound; "
                  "all TAPA-CS formulations use bounded-below variables",
                  model.var(v).name.c_str());
        }
        if (lo[v] > hi[v] + options.tol) {
            out.status = SolveStatus::Infeasible;
            return out;
        }
    }

    // Rows: one per model constraint plus one per finite upper bound
    // (variables are shifted so x' = x - lo >= 0). A row whose shifted
    // RHS is negative is negated, so every RHS starts >= 0.
    int n_slack = 0, n_art = 0;
    ws.rhs.clear();
    ws.rowForms.clear();
    auto add_row = [&](Sense sense, double rhs) {
        const bool negated = rhs < 0.0;
        if (negated) {
            rhs = -rhs;
            if (sense == Sense::LessEqual)
                sense = Sense::GreaterEqual;
            else if (sense == Sense::GreaterEqual)
                sense = Sense::LessEqual;
        }
        ws.rhs.push_back(rhs);
        ws.rowForms.push_back({sense, negated});
        n_slack += sense != Sense::Equal;
        n_art += sense != Sense::LessEqual;
    };
    auto has_upper_row = [&](VarId v) {
        return std::isfinite(hi[v]) && hi[v] - lo[v] < kInf;
    };
    for (const auto &c : model.constraints()) {
        double rhs = c.rhs - c.expr.constant();
        for (const auto &t : c.expr.terms())
            rhs -= t.coeff * lo[t.var];
        add_row(c.sense, rhs);
    }
    for (VarId v = 0; v < n; ++v) {
        if (has_upper_row(v))
            add_row(Sense::LessEqual, hi[v] - lo[v]);
    }

    // Column layout: [structural n][slack/surplus][artificials].
    const int m = static_cast<int>(ws.rhs.size());
    const int first_art = n + n_slack;
    Tableau t(ws);
    t.rows = m;
    t.cols = first_art + n_art;
    t.a.assign(static_cast<size_t>(t.rows) * t.cols, 0.0);
    t.cost.assign(t.cols, 0.0);
    t.basis.assign(m, -1);
    t.locked.assign(t.cols, 0);
    t.pivotCols.resize(t.cols);

    const int n_cons = model.numConstraints();
    for (int r = 0; r < n_cons; ++r) {
        const bool negated = ws.rowForms[r].negated;
        for (const auto &term : model.constraints()[r].expr.terms())
            t.at(r, term.var) += negated ? -term.coeff : term.coeff;
    }
    int bound_row = n_cons;
    for (VarId v = 0; v < n; ++v) {
        if (has_upper_row(v)) {
            t.at(bound_row, v) = ws.rowForms[bound_row].negated ? -1.0 : 1.0;
            ++bound_row;
        }
    }
    int slack_cursor = n;
    int art_cursor = first_art;
    for (int r = 0; r < m; ++r) {
        switch (ws.rowForms[r].sense) {
          case Sense::LessEqual:
            t.at(r, slack_cursor) = 1.0;
            t.basis[r] = slack_cursor++;
            break;
          case Sense::GreaterEqual:
            t.at(r, slack_cursor) = -1.0;
            ++slack_cursor;
            t.at(r, art_cursor) = 1.0;
            t.basis[r] = art_cursor++;
            break;
          case Sense::Equal:
            t.at(r, art_cursor) = 1.0;
            t.basis[r] = art_cursor++;
            break;
        }
    }

    const int max_iters = options.maxIterations > 0
                              ? options.maxIterations
                              : 200 * (t.rows + t.cols) + 2000;

    // Phase 1: minimize sum of artificials.
    if (n_art > 0) {
        for (int c = first_art; c < t.cols; ++c)
            t.cost[c] = 1.0;
        // Reduce cost row against the initial (artificial) basis.
        for (int r = 0; r < m; ++r)
            t.reduceCost(r);
        SolveStatus st = iterate(t, options, max_iters, out.iterations);
        if (st == SolveStatus::LimitReached) {
            out.status = st;
            return out;
        }
        const double phase1 = -t.costShift;
        if (phase1 > 1e-6 * (1.0 + std::abs(phase1))) {
            out.status = SolveStatus::Infeasible;
            return out;
        }
        // Drive any remaining basic artificials out of the basis.
        for (int r = 0; r < m; ++r) {
            if (t.basis[r] < first_art)
                continue;
            int pc = -1;
            for (int c = 0; c < first_art; ++c) {
                if (std::abs(t.at(r, c)) > 1e-9) {
                    pc = c;
                    break;
                }
            }
            if (pc >= 0)
                t.pivot(r, pc);
            // else: redundant row; the basic artificial stays at zero.
        }
        for (int c = first_art; c < t.cols; ++c)
            t.locked[c] = true;
    }

    // Phase 2: original objective over shifted variables.
    std::fill(t.cost.begin(), t.cost.end(), 0.0);
    t.costShift = 0.0;
    for (const auto &term : model.objective().terms())
        t.cost[term.var] += term.coeff;
    for (int r = 0; r < m; ++r)
        t.reduceCost(r);
    SolveStatus st = iterate(t, options, max_iters, out.iterations);
    if (st == SolveStatus::Unbounded || st == SolveStatus::LimitReached) {
        out.status = st;
        return out;
    }

    out.status = SolveStatus::Optimal;
    out.values.assign(n, 0.0);
    for (int r = 0; r < m; ++r) {
        const int bc = t.basis[r];
        if (bc < n)
            out.values[bc] = t.rhs[r];
    }
    for (VarId v = 0; v < n; ++v)
        out.values[v] += lo[v];
    out.objective = model.objective().evaluate(out.values);
    return out;
}

} // namespace tapacs::ilp
