#include "solver/lp.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"

namespace aplace::solver {

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::Optimal: return "optimal";
    case LpStatus::Infeasible: return "infeasible";
    case LpStatus::Unbounded: return "unbounded";
    case LpStatus::IterLimit: return "iteration-limit";
    case LpStatus::Uncertified: return "uncertified";
  }
  return "?";
}

int LpProblem::add_variable(double lo, double hi, double cost,
                            std::string name) {
  APLACE_CHECK_MSG(lo <= hi, "variable bounds crossed");
  lo_.push_back(lo);
  hi_.push_back(hi);
  cost_.push_back(cost);
  integer_.push_back(0);
  names_.push_back(std::move(name));
  return static_cast<int>(lo_.size()) - 1;
}

void LpProblem::add_constraint(std::vector<LpTerm> terms, Relation rel,
                               double rhs) {
  for (const LpTerm& t : terms) {
    APLACE_CHECK_MSG(
        t.var >= 0 && static_cast<std::size_t>(t.var) < lo_.size(),
        "constraint references unknown variable");
  }
  constraints_.push_back(LpConstraint{std::move(terms), rel, rhs});
}

namespace {

// Per-thread storage reused across solves: the legalizer makes hundreds of
// solves per flow, and a fresh multi-megabyte tableau each time costs an
// allocation plus a page fault per touched page.
struct Workspace {
  std::vector<double> a;       // B^-1 [A I], column-major, m x (n + m)
  std::vector<double> xb;      // value of each row's basic column
  std::vector<double> d;       // reduced cost of each column
  std::vector<double> lo, hi;  // bounds in force, per column
  std::vector<double> lo0, hi0;  // true bounds while phase 1 boxes them
  std::vector<double> val;     // value of each nonbasic column
  std::vector<int> basis;      // basic column of each row
  std::vector<int> row_of;     // row of each basic column, -1 if nonbasic
  std::vector<std::size_t> nonbasic;  // nonbasic columns, in any order
  std::vector<std::size_t> nb_pos;    // each column's place in `nonbasic`
  std::vector<std::size_t> nz;        // nonzero columns of the pivot row
  std::vector<double> alpha;          // and their entries
  std::vector<std::size_t> rows;      // nonzero rows of the pivot column
  std::vector<double> factors;        // and their entries
  std::vector<double> r;              // per-row scratch
  std::vector<char> stuck;            // crash: columns with no pivot row
  std::uint64_t epoch = 0;            // bumped by every cold load
};

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

// Bounded dual simplex over the tableau T = B^-1 [A I]: column j < n is
// variable j, column n + i the slack of row i (a_i x + s_i = b_i, with
// s_i in [0, inf) for <=, (-inf, 0] for >= and [0, 0] for ==). A nonbasic
// column sits at a bound (a free one at 0), so x_B = B^-1 (b - N x_N).
//
// The tableau is dense and column-major, because the elimination walks
// columns, and a pivot updates only the rows with a nonzero in the entering
// column and the columns with a nonzero in the pivot row. A basic column is an exact unit column (set so
// when it entered; every later pivot row holds an exact zero in it), so the
// pivot row is gathered over the nonbasic columns only.
struct DualSimplex::Impl {
  Impl(const LpProblem& prob, SimplexOptions o)
      : p(prob),
        opts(o),
        m(prob.num_constraints()),
        n(prob.num_variables()),
        cols(n + m),
        ws(thread_workspace()),
        max_iters(o.max_iters > 0 ? o.max_iters
                                  : static_cast<long>(60 * (m + cols) + 2000)) {
  }

  const LpProblem& p;
  SimplexOptions opts;
  std::size_t m, n, cols;
  Workspace& ws;
  long max_iters;
  std::uint64_t epoch = 0;  // ws.epoch of this solver's load; 0 = none
  bool dual_feasible = false;
  long pivots = 0;

  [[nodiscard]] double* col(std::size_t j) { return ws.a.data() + j * m; }
  [[nodiscard]] bool fixed(std::size_t j) const {
    return ws.lo[j] == ws.hi[j];
  }
  [[nodiscard]] bool free_col(std::size_t j) const {
    return ws.lo[j] == -kInf && ws.hi[j] == kInf;
  }
  [[nodiscard]] bool at_lower(std::size_t j) const {
    return ws.lo[j] > -kInf && ws.val[j] == ws.lo[j];
  }

  // Whether a nonbasic column with reduced cost dj can sit at a bound that
  // makes it dual feasible: d > 0 needs a finite lower bound, d < 0 a
  // finite upper one.
  [[nodiscard]] bool sign_ok(std::size_t j, double dj) const {
    if (fixed(j)) return true;
    if (dj > opts.tol) return ws.lo[j] > -kInf;
    if (dj < -opts.tol) return ws.hi[j] < kInf;
    return true;
  }

  // The value a nonbasic column takes for reduced cost dj: the bound the
  // sign asks for; with d ~ 0 the upper one only if `prefer_upper`.
  [[nodiscard]] double place(std::size_t j, double dj,
                             bool prefer_upper = false) const {
    const double lo = ws.lo[j], hi = ws.hi[j];
    if (lo == hi) return lo;
    bool up = prefer_upper;
    if (dj > opts.tol) up = false;
    else if (dj < -opts.tol) up = true;
    if (up) return hi < kInf ? hi : (lo > -kInf ? lo : 0.0);
    return lo > -kInf ? lo : (hi < kInf ? hi : 0.0);
  }

  // ---- load, crash and basic values ------------------------------------

  // Slack basis: T = [A I], every cost its own reduced cost.
  void load(std::span<const double> lo, std::span<const double> hi) {
    epoch = ++ws.epoch;
    const std::size_t size = m * cols;
    // Free a too-small tableau before allocating its successor, so a thread
    // holds one tableau at its peak size rather than every size it grew by.
    if (ws.a.capacity() < size) std::vector<double>().swap(ws.a);
    ws.a.assign(size, 0.0);
    const std::vector<LpConstraint>& cons = p.constraints();
    for (std::size_t i = 0; i < m; ++i) {
      for (const LpTerm& t : cons[i].terms) {
        col(static_cast<std::size_t>(t.var))[i] += t.coef;
      }
      col(n + i)[i] = 1.0;
    }
    ws.lo.assign(lo.begin(), lo.end());
    ws.hi.assign(hi.begin(), hi.end());
    ws.d.assign(cols, 0.0);
    for (std::size_t j = 0; j < n; ++j) ws.d[j] = p.cost(static_cast<int>(j));
    for (const LpConstraint& c : cons) {
      ws.lo.push_back(c.relation == Relation::GreaterEq ? -kInf : 0.0);
      ws.hi.push_back(c.relation == Relation::LessEq ? kInf : 0.0);
    }
    ws.basis.resize(m);
    ws.row_of.assign(cols, -1);
    for (std::size_t i = 0; i < m; ++i) {
      ws.basis[i] = static_cast<int>(n + i);
      ws.row_of[n + i] = static_cast<int>(i);
    }
    ws.nonbasic.resize(n);
    ws.nb_pos.assign(cols, 0);
    for (std::size_t j = 0; j < n; ++j) {
      ws.nonbasic[j] = j;
      ws.nb_pos[j] = j;
    }
    ws.val.assign(cols, 0.0);
    ws.xb.assign(m, 0.0);
  }

  void place_nonbasic() {
    for (const std::size_t j : ws.nonbasic) ws.val[j] = place(j, ws.d[j]);
  }

  [[nodiscard]] bool basis_dual_feasible() const {
    for (const std::size_t j : ws.nonbasic) {
      if (!sign_ok(j, ws.d[j])) return false;
    }
    return true;
  }

  // x_B = B^-1 (b - N x_N), with b = 0 for the phase-1 problem. Column
  // n + i of the tableau is B^-1 e_i.
  void recompute_basic_values(bool homogeneous) {
    const std::vector<LpConstraint>& cons = p.constraints();
    ws.r.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      double v = homogeneous ? 0.0 : cons[i].rhs;
      for (const LpTerm& t : cons[i].terms) {
        if (ws.row_of[t.var] < 0) v -= t.coef * ws.val[t.var];
      }
      if (ws.row_of[n + i] < 0) v -= ws.val[n + i];
      ws.r[i] = v;
    }
    ws.xb.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double ri = ws.r[i];
      if (ri == 0.0) continue;
      const double* c = col(n + i);
      for (std::size_t k = 0; k < m; ++k) ws.xb[k] += ri * c[k];
    }
  }

  // Nonbasic columns with a nonzero in row r, and those entries.
  void gather_row(std::size_t r) {
    ws.nz.clear();
    ws.alpha.clear();
    const double* a = ws.a.data();
    for (const std::size_t k : ws.nonbasic) {
      const double v = a[k * m + r];
      if (v != 0.0) {
        ws.nz.push_back(k);
        ws.alpha.push_back(v);
      }
    }
  }

  // Basis change: column q enters in row r. Needs gather_row(r).
  void pivot(std::size_t r, std::size_t q) {
    ++pivots;
    double* a = ws.a.data();
    const double inv = 1.0 / a[q * m + r];
    const std::size_t leaving = static_cast<std::size_t>(ws.basis[r]);
    std::vector<std::size_t>& nz = ws.nz;
    for (const std::size_t k : nz) a[k * m + r] *= inv;
    a[q * m + r] = 1.0;  // kill roundoff on the pivot column
    a[leaving * m + r] = inv;
    nz.push_back(leaving);
    double* pc = col(q);
    std::vector<std::size_t>& rows = ws.rows;
    std::vector<double>& factors = ws.factors;
    rows.clear();
    factors.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (i != r && pc[i] != 0.0) {
        rows.push_back(i);
        factors.push_back(pc[i]);
      }
    }
    for (const std::size_t k : nz) {
      if (k == q) continue;
      double* ck = col(k);
      const double pk = ck[r];
      for (std::size_t t = 0; t < rows.size(); ++t) {
        ck[rows[t]] -= factors[t] * pk;
      }
    }
    for (const std::size_t i : rows) pc[i] = 0.0;
    const double f = ws.d[q];
    if (f != 0.0) {
      for (const std::size_t k : nz) ws.d[k] -= f * a[k * m + r];
    }
    ws.d[q] = 0.0;
    ws.basis[r] = static_cast<int>(q);
    ws.row_of[q] = static_cast<int>(r);
    ws.row_of[leaving] = -1;
    ws.nonbasic[ws.nb_pos[q]] = leaving;
    ws.nb_pos[leaving] = ws.nb_pos[q];
  }

  // Crash toward a dual-feasible basis. Take the first column whose reduced
  // cost has the wrong sign for its only finite bound and pivot it into a
  // row that still has its slack basic, choosing the row that leaves the
  // fewest such columns (lowest row on ties); repeat. For the legalizer's
  // net boxes this makes a net's min (cost -w) basic in the lower-bound row
  // of its first pin, then that pin's device coordinate basic in the
  // upper-bound row of the same pin, where the max's +w cancels the -w in
  // every reduced cost. Each pivot retires a slack, so at most m pivots.
  void crash() {
    ws.stuck.assign(cols, 0);
    const double* a = ws.a.data();
    for (std::size_t budget = m; budget > 0; --budget) {
      std::size_t j = cols;
      for (std::size_t c = 0; c < cols; ++c) {
        if (ws.row_of[c] < 0 && !ws.stuck[c] && !sign_ok(c, ws.d[c])) {
          j = c;
          break;
        }
      }
      if (j == cols) return;
      std::size_t best_row = m;
      long best_count = 0;
      for (std::size_t r = 0; r < m; ++r) {
        const double arj = a[j * m + r];
        if (static_cast<std::size_t>(ws.basis[r]) < n ||
            std::abs(arj) <= 1e-7) {
          continue;
        }
        const double ratio = ws.d[j] / arj;
        long count = sign_ok(static_cast<std::size_t>(ws.basis[r]), -ratio)
                         ? 0 : 1;
        for (const std::size_t k : ws.nonbasic) {
          const double ark = a[k * m + r];
          if (k != j && ark != 0.0 && !sign_ok(k, ws.d[k] - ratio * ark)) {
            ++count;
          }
        }
        if (best_row == m || count < best_count) {
          best_row = r;
          best_count = count;
        }
      }
      if (best_row == m) {
        ws.stuck[j] = 1;
        continue;
      }
      gather_row(best_row);
      pivot(best_row, j);
    }
  }

  // ---- dual simplex iterations -----------------------------------------

  // Dual simplex from a dual-feasible basis. Leaving row: the largest bound
  // violation. Entering column: a two-pass (Harris) ratio test that keeps
  // every reduced cost within tol of its sign and, among the near-minimal
  // ratios, takes the largest pivot. After m + 50 consecutive zero dual
  // steps both choices fall back to Bland's rule (lowest column index),
  // which cannot cycle.
  LpStatus iterate(long& budget) {
    const double tol = opts.tol;
    long degenerate = 0;
    for (;;) {
      const bool bland = degenerate > static_cast<long>(m) + 50;
      std::size_t r = m;
      double worst = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t b = static_cast<std::size_t>(ws.basis[i]);
        const double v = ws.xb[i], lo = ws.lo[b], hi = ws.hi[b];
        double viol = 0.0;
        if (v < lo - tol * (1.0 + std::abs(lo))) viol = lo - v;
        else if (v > hi + tol * (1.0 + std::abs(hi))) viol = v - hi;
        if (viol == 0.0) continue;
        if (r == m || (bland ? b < static_cast<std::size_t>(ws.basis[r])
                             : viol > worst)) {
          r = i;
          worst = viol;
        }
      }
      if (r == m) return LpStatus::Optimal;
      if (budget <= 0) return LpStatus::IterLimit;

      const std::size_t leaving = static_cast<std::size_t>(ws.basis[r]);
      const bool to_lower = ws.xb[r] < ws.lo[leaving];
      const double target = to_lower ? ws.lo[leaving] : ws.hi[leaving];
      const double dir = to_lower ? 1.0 : -1.0;
      gather_row(r);

      // Candidate k may move so that the leaving row heads for its bound;
      // slack(k) is how far its reduced cost may move first.
      const auto slack_of = [&](std::size_t k, double beta, double& slack) {
        if (fixed(k) || std::abs(beta) <= tol) return false;
        if (free_col(k)) {
          slack = std::abs(ws.d[k]);
          return true;
        }
        if (at_lower(k)) {
          if (beta >= 0.0) return false;
          slack = ws.d[k];
        } else {
          if (beta <= 0.0) return false;
          slack = -ws.d[k];
        }
        slack = std::max(slack, 0.0);
        return true;
      };
      double bound = kInf;
      for (std::size_t t = 0; t < ws.nz.size(); ++t) {
        double s = 0.0;
        const double beta = dir * ws.alpha[t];
        if (!slack_of(ws.nz[t], beta, s)) continue;
        const double ratio =
            bland ? s / std::abs(beta) : (s + tol) / std::abs(beta);
        bound = std::min(bound, ratio);
      }
      if (bound == kInf) return LpStatus::Infeasible;
      std::size_t q = cols, qt = 0;
      double q_abs = 0.0, q_slack = 0.0;
      for (std::size_t t = 0; t < ws.nz.size(); ++t) {
        double s = 0.0;
        const std::size_t k = ws.nz[t];
        const double beta = dir * ws.alpha[t];
        if (!slack_of(k, beta, s)) continue;
        const double ab = std::abs(beta);
        if (s / ab > bound + (bland ? 1e-12 : 0.0)) continue;
        const bool better = q == cols ||
                            (bland ? k < q
                                   : ab > q_abs || (ab == q_abs && k < q));
        if (better) {
          q = k;
          qt = t;
          q_abs = ab;
          q_slack = s;
        }
      }
      degenerate = q_slack / q_abs <= 1e-12 ? degenerate + 1 : 0;
      // A reduced cost within tol of the wrong sign enters as zero.
      if (q_slack == 0.0) ws.d[q] = 0.0;

      // Primal step: the leaving column lands on its violated bound.
      const double arq = ws.alpha[qt];
      const double delta = (ws.xb[r] - target) / arq;
      const double* cq = col(q);
      for (std::size_t i = 0; i < m; ++i) {
        if (i != r && cq[i] != 0.0) ws.xb[i] -= delta * cq[i];
      }
      ws.xb[r] = ws.val[q] + delta;
      ws.val[leaving] = target;
      pivot(r, q);
      --budget;
    }
  }

  // ---- cold and warm starts --------------------------------------------

  // Dual phase 1 when the crash left some column dual infeasible: the same
  // tableau with every bound boxed (infinite bounds become +-1, finite ones
  // 0) and b = 0 always has an optimum, and its optimal basis is dual
  // feasible for the true bounds unless none is. In that case the problem
  // is infeasible or unbounded, and a zero-cost run decides which.
  LpStatus dual_phase1(long& budget, bool& found) {
    found = false;
    ws.lo0 = ws.lo;
    ws.hi0 = ws.hi;
    for (std::size_t j = 0; j < cols; ++j) {
      ws.lo[j] = ws.lo0[j] == -kInf ? -1.0 : 0.0;
      ws.hi[j] = ws.hi0[j] == kInf ? 1.0 : 0.0;
    }
    place_nonbasic();
    recompute_basic_values(/*homogeneous=*/true);
    const LpStatus aux = iterate(budget);
    ws.lo.swap(ws.lo0);
    ws.hi.swap(ws.hi0);
    if (aux == LpStatus::IterLimit) return aux;
    if (basis_dual_feasible()) {
      found = true;
      return LpStatus::Optimal;
    }
    std::fill(ws.d.begin(), ws.d.end(), 0.0);
    place_nonbasic();
    recompute_basic_values(/*homogeneous=*/false);
    const LpStatus st = iterate(budget);
    return st == LpStatus::Optimal ? LpStatus::Unbounded : st;
  }

  LpStatus solve_cold(std::span<const double> lo, std::span<const double> hi,
                      long& budget) {
    load(lo, hi);
    crash();
    dual_feasible = basis_dual_feasible();
    if (!dual_feasible) {
      bool found = false;
      const LpStatus st = dual_phase1(budget, found);
      if (!found) return st;
      dual_feasible = true;
    }
    place_nonbasic();
    recompute_basic_values(/*homogeneous=*/false);
    return iterate(budget);
  }

  // New bounds on the current basis: a nonbasic column moves to the bound
  // its reduced cost asks for (keeping its side when d ~ 0) and the basic
  // values shift by its column. False when that bound is infinite, i.e.
  // the basis is not dual feasible under the new bounds.
  bool apply_bounds(std::span<const double> lo, std::span<const double> hi) {
    for (std::size_t j = 0; j < n; ++j) {
      if (lo[j] == ws.lo[j] && hi[j] == ws.hi[j]) continue;
      const bool was_upper = ws.lo[j] != ws.hi[j] && ws.val[j] == ws.hi[j];
      ws.lo[j] = lo[j];
      ws.hi[j] = hi[j];
      if (ws.row_of[j] >= 0) continue;  // pricing sees a violated bound
      if (!sign_ok(j, ws.d[j])) return false;
      const double v = place(j, ws.d[j], was_upper);
      const double delta = v - ws.val[j];
      if (delta == 0.0) continue;
      const double* cj = col(j);
      for (std::size_t i = 0; i < m; ++i) ws.xb[i] -= delta * cj[i];
      ws.val[j] = v;
    }
    return true;
  }

  LpSolution solve(std::span<const double> lo, std::span<const double> hi) {
    static const obs::Counter solves = obs::counter("solver/lp/solves");
    static const obs::Counter pivot_count = obs::counter("solver/lp/pivots");
    static const obs::Counter warm_starts =
        obs::counter("solver/lp/warm_starts");
    static const obs::Counter uncertified =
        obs::counter("solver/lp/uncertified");
    APLACE_CHECK(lo.size() == n && hi.size() == n);
    APLACE_CHECK_MSG(&thread_workspace() == &ws,
                     "a DualSimplex solves on the thread that made it");
    solves.inc();
    LpSolution sol;
    pivots = 0;
    long budget = max_iters;
    const bool warm = epoch != 0 && ws.epoch == epoch && dual_feasible &&
                      apply_bounds(lo, hi);
    if (warm) {
      warm_starts.inc();
      sol.status = iterate(budget);
    } else {
      sol.status = solve_cold(lo, hi, budget);
    }
    sol.pivots = pivots;
    pivot_count.add(static_cast<std::uint64_t>(pivots));
    if (sol.status != LpStatus::Optimal) return sol;
    sol.x.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      const int row = ws.row_of[j];
      sol.x[j] = row >= 0 ? ws.xb[row] : ws.val[j];
      sol.objective += p.cost(static_cast<int>(j)) * sol.x[j];
    }
    sol.duals.resize(m);
    for (std::size_t i = 0; i < m; ++i) sol.duals[i] = -ws.d[n + i];
    if (!certify(p, lo, hi, sol)) {
      sol.status = LpStatus::Uncertified;
      uncertified.inc();
    }
    return sol;
  }
};

DualSimplex::DualSimplex(const LpProblem& p, SimplexOptions opts)
    : impl_(std::make_unique<Impl>(p, opts)) {}

DualSimplex::~DualSimplex() = default;

LpSolution DualSimplex::solve(std::span<const double> lo,
                              std::span<const double> hi) {
  return impl_->solve(lo, hi);
}

LpSolution solve_lp(const LpProblem& p, SimplexOptions opts) {
  return DualSimplex(p, opts).solve(p.lower_bounds(), p.upper_bounds());
}

bool certify(const LpProblem& p, std::span<const double> lo,
             std::span<const double> hi, const LpSolution& s) {
  constexpr double kTol = 1e-7;
  constexpr double kGapTol = 1e-9;
  const std::size_t n = p.num_variables();
  const std::vector<LpConstraint>& cons = p.constraints();
  if (s.x.size() != n || s.duals.size() != cons.size()) return false;
  // Reduced costs d = c - A'y and their magnitudes, row by row.
  std::vector<double> d(n), dmag(n);
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = p.cost(static_cast<int>(j));
    dmag[j] = std::abs(d[j]);
  }
  double dual_obj = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < cons.size(); ++i) {
    const LpConstraint& c = cons[i];
    const double y = s.duals[i];
    double act = 0.0, mag = std::abs(c.rhs);
    for (const LpTerm& t : c.terms) {
      act += t.coef * s.x[t.var];
      mag += std::abs(t.coef * s.x[t.var]);
      d[t.var] -= y * t.coef;
      dmag[t.var] += std::abs(y * t.coef);
    }
    const double tol = kTol * (1.0 + mag);
    const double resid = act - c.rhs;
    switch (c.relation) {
      case Relation::LessEq:
        if (resid > tol || y > kTol) return false;
        break;
      case Relation::GreaterEq:
        if (resid < -tol || y < -kTol) return false;
        break;
      case Relation::Equal:
        if (std::abs(resid) > tol) return false;
        break;
    }
    if (std::abs(resid) > tol && std::abs(y) > kTol) return false;
    dual_obj += c.rhs * y;
    scale += std::abs(c.rhs * y);
  }
  double primal_obj = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double x = s.x[j];
    const double xtol = kTol * (1.0 + std::abs(x));
    if (x < lo[j] - xtol || x > hi[j] + xtol) return false;
    const double dtol = kTol * (1.0 + dmag[j]);
    const bool at_lo = x <= lo[j] + xtol, at_hi = x >= hi[j] - xtol;
    if (!at_lo && d[j] > dtol) return false;
    if (!at_hi && d[j] < -dtol) return false;
    const double cx = p.cost(static_cast<int>(j)) * x;
    primal_obj += cx;
    scale += std::abs(cx);
    const double bound = d[j] > 0.0 ? lo[j] : hi[j];
    if (d[j] != 0.0) dual_obj += d[j] * (std::isfinite(bound) ? bound : x);
  }
  const double gap_tol = kGapTol * (1.0 + scale);
  return std::abs(primal_obj - dual_obj) <= gap_tol &&
         std::abs(primal_obj - s.objective) <= gap_tol;
}

bool certify(const LpProblem& p, const LpSolution& s) {
  return certify(p, p.lower_bounds(), p.upper_bounds(), s);
}

}  // namespace aplace::solver
