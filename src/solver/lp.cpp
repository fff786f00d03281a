#include "solver/lp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "obs/metrics.hpp"

namespace aplace::solver {

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::Optimal: return "optimal";
    case LpStatus::Infeasible: return "infeasible";
    case LpStatus::Unbounded: return "unbounded";
    case LpStatus::IterLimit: return "iteration-limit";
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

// Standard-form translation of one natural variable.
struct VarMap {
  // x = offset + sign * x'   (x' >= 0), or x = p - q for free variables.
  double offset = 0.0;
  double sign = 1.0;
  int col = -1;       ///< column of x' (or p)
  int col_neg = -1;   ///< column of q for free variables, else -1
  double upper_row_rhs = kInf;  ///< finite => x' <= rhs row added
};

// Column side of the standard form. The rows are not materialized here:
// Tableau::load writes them straight from the sparse constraint terms.
struct Standard {
  std::size_t n_cols = 0;   // structural standard-form columns
  std::size_t n_upper = 0;  // x' <= rhs rows, one per boxed variable
  std::vector<VarMap> map;
  std::vector<double> cost;  // structural costs
  double cost_offset = 0.0;
};

Standard to_standard_form(const LpProblem& p) {
  Standard s;
  const std::size_t n = p.num_variables();
  s.map.resize(n);

  for (std::size_t j = 0; j < n; ++j) {
    const double lo = p.lower_bound(static_cast<int>(j));
    const double hi = p.upper_bound(static_cast<int>(j));
    VarMap& m = s.map[j];
    if (lo == -kInf && hi == kInf) {
      m.col = static_cast<int>(s.n_cols++);
      m.col_neg = static_cast<int>(s.n_cols++);
    } else if (lo > -kInf) {
      m.offset = lo;
      m.sign = 1.0;
      m.col = static_cast<int>(s.n_cols++);
      if (hi < kInf) {
        m.upper_row_rhs = hi - lo;
        ++s.n_upper;
      }
    } else {
      // lo == -inf, hi finite: x = hi - x'
      m.offset = hi;
      m.sign = -1.0;
      m.col = static_cast<int>(s.n_cols++);
    }
  }

  s.cost.assign(s.n_cols, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const VarMap& m = s.map[j];
    const double c = p.cost(static_cast<int>(j));
    s.cost[m.col] += c * m.sign;
    if (m.col_neg >= 0) s.cost[m.col_neg] -= c;
    s.cost_offset += c * m.offset;
  }
  return s;
}

// Per-thread storage reused across solves: the legalizer makes hundreds of
// solves per flow, and a fresh multi-megabyte tableau each time costs an
// allocation plus a page fault per touched page.
struct Workspace {
  std::vector<double> a;     // tableau, column-major; last column = rhs
  std::vector<double> red;   // reduced cost row (last entry: -objective)
  std::vector<double> cost;  // column costs of the current phase
  std::vector<int> basis;
  std::vector<std::size_t> nonbasic;  // columns out of the basis
  std::vector<std::size_t> nz;        // nonzero columns of the pivot row
  std::vector<std::size_t> rows;      // rows to eliminate or price, and
  std::vector<double> factors;        // their multipliers
  std::vector<double> rhs;            // per row, normalized to >= 0
  std::vector<double> flip;           // per row: -1 if negated to get there
  std::vector<Relation> rels;         // per row, after normalization
};

// Two-phase tableau simplex over the standard form, stored dense and
// column-major: entry (row i, column j) at a[j * m + i], last column = rhs.
// Columns are contiguous because the ratio test and the elimination walk
// columns; only the pivot row is read across.
//
// Pricing is Dantzig's rule, switching to Bland's after a degeneracy
// streak; the ratio test breaks ties by the lowest basic column. Those are
// the rules and the arithmetic of a dense tableau whose every pivot
// computes a[i][j] -= a[i][c] * prow[j] over all rows and columns. This one
// updates only the rows with a[i][c] != 0 and the columns with prow[j] != 0.
// A skipped entry is one where the dense update computes x - f * 0 or
// x - 0 * y, which changes at most the sign of a zero, and no pricing, ratio
// or zero test can observe that sign. So the pivot sequence, and the answer
// up to the sign of zero, are exactly those of the dense update;
// tests/lp_dense_oracle.cpp keeps it and checks this.
//
// The pivot row is gathered over the nonbasic columns only: a basic column
// is an exact unit column (set so when it entered, and every later pivot
// row holds an exact zero in it), so it has no other nonzero in row r.
class Tableau {
 public:
  Tableau(const LpProblem& p, const Standard& s, const SimplexOptions& opts,
          Workspace& ws)
      : opts_(opts),
        m_(p.num_constraints() + s.n_upper),
        n_struct_(s.n_cols),
        struct_cost_(s.cost),
        ws_(ws) {
    load(p, s);
    max_iters_ = opts_.max_iters > 0
                     ? opts_.max_iters
                     : static_cast<long>(60 * (m_ + n_total_) + 2000);
  }

  LpStatus solve() {
    // ---- Phase 1: minimize sum of artificials ----
    if (art_begin_ < n_total_) {
      std::fill(ws_.cost.begin() + static_cast<std::ptrdiff_t>(art_begin_),
                ws_.cost.end(), 1.0);
      build_reduced_costs();
      const LpStatus st = iterate(/*phase1=*/true);
      if (st != LpStatus::Optimal) return st;
      if (objective_value() > 1e-6) return LpStatus::Infeasible;
      // Drive remaining artificial basics out where possible.
      for (std::size_t i = 0; i < m_; ++i) {
        if (static_cast<std::size_t>(ws_.basis[i]) >= art_begin_) {
          std::size_t piv = n_total_;
          for (std::size_t j = 0; j < art_begin_; ++j) {
            if (std::abs(col(j)[i]) > opts_.tol) { piv = j; break; }
          }
          if (piv < n_total_) pivot(i, piv);
          // else: redundant row; artificial stays basic at value 0.
        }
      }
    }
    // ---- Phase 2 ----
    std::fill(ws_.cost.begin(), ws_.cost.end(), 0.0);
    std::copy(struct_cost_.begin(), struct_cost_.end(), ws_.cost.begin());
    build_reduced_costs();
    return iterate(/*phase1=*/false);
  }

  [[nodiscard]] long pivots() const { return pivots_; }

  [[nodiscard]] std::vector<double> structural_values() const {
    std::vector<double> x(n_struct_, 0.0);
    const double* rhs = col(n_total_);
    for (std::size_t i = 0; i < m_; ++i) {
      const int b = ws_.basis[i];
      if (b >= 0 && static_cast<std::size_t>(b) < n_struct_) x[b] = rhs[i];
    }
    return x;
  }

 private:
  [[nodiscard]] double* col(std::size_t j) { return &ws_.a[j * m_]; }
  [[nodiscard]] const double* col(std::size_t j) const {
    return &ws_.a[j * m_];
  }

  // Writes every row straight from its sparse terms, normalized to rhs >= 0,
  // with a slack (<=, >=) and/or an artificial (>=, =) column.
  void load(const LpProblem& p, const Standard& s) {
    const std::vector<LpConstraint>& cons = p.constraints();
    ws_.rhs.clear();
    ws_.flip.clear();
    ws_.rels.clear();
    for (const LpConstraint& c : cons) {
      double b = c.rhs;
      for (const LpTerm& t : c.terms) b -= t.coef * s.map[t.var].offset;
      Relation rel = c.relation;
      double flip = 1.0;
      if (b < 0) {
        b = -b;
        flip = -1.0;
        if (rel == Relation::LessEq) rel = Relation::GreaterEq;
        else if (rel == Relation::GreaterEq) rel = Relation::LessEq;
      }
      ws_.rhs.push_back(b);
      ws_.flip.push_back(flip);
      ws_.rels.push_back(rel);
    }
    for (const VarMap& m : s.map) {
      if (m.upper_row_rhs < kInf) {
        ws_.rhs.push_back(m.upper_row_rhs);
        ws_.flip.push_back(1.0);
        ws_.rels.push_back(Relation::LessEq);
      }
    }

    std::size_t n_slack = 0, n_art = 0;
    for (Relation r : ws_.rels) {
      if (r == Relation::LessEq) ++n_slack;
      else if (r == Relation::GreaterEq) { ++n_slack; ++n_art; }
      else ++n_art;
    }
    n_total_ = n_struct_ + n_slack + n_art;
    art_begin_ = n_struct_ + n_slack;
    const std::size_t size = m_ * (n_total_ + 1);
    // Free a too-small tableau before allocating its successor, so a thread
    // holds one tableau at its peak size rather than every size it grew by.
    if (ws_.a.capacity() < size) std::vector<double>().swap(ws_.a);
    ws_.a.assign(size, 0.0);
    ws_.basis.assign(m_, -1);
    ws_.nonbasic.resize(n_struct_);
    std::iota(ws_.nonbasic.begin(), ws_.nonbasic.end(), std::size_t{0});
    ws_.cost.assign(n_total_, 0.0);
    ws_.red.resize(n_total_ + 1);

    std::size_t slack_col = n_struct_;
    std::size_t art_col = art_begin_;
    std::size_t next_upper = 0;  // s.map index of the next boxed variable
    for (std::size_t i = 0; i < m_; ++i) {
      const auto at = [&](std::size_t j) -> double& { return col(j)[i]; };
      const Relation rel = ws_.rels[i];
      if (i < cons.size()) {
        // A flipped row is written term by term negated. IEEE negation is
        // exact and rounding is sign-symmetric, so this equals negating the
        // accumulated row afterwards.
        const LpConstraint& c = cons[i];
        const double flip = ws_.flip[i];
        for (const LpTerm& t : c.terms) {
          const VarMap& m = s.map[t.var];
          at(m.col) += flip * (t.coef * m.sign);
          if (m.col_neg >= 0) at(m.col_neg) -= flip * t.coef;
        }
      } else {
        while (!(s.map[next_upper].upper_row_rhs < kInf)) ++next_upper;
        at(s.map[next_upper++].col) = 1.0;
      }
      at(n_total_) = ws_.rhs[i];
      switch (rel) {
        case Relation::LessEq:
          at(slack_col) = 1.0;
          ws_.basis[i] = static_cast<int>(slack_col++);
          break;
        case Relation::GreaterEq:
          ws_.nonbasic.push_back(slack_col);
          at(slack_col++) = -1.0;
          at(art_col) = 1.0;
          ws_.basis[i] = static_cast<int>(art_col++);
          break;
        case Relation::Equal:
          at(art_col) = 1.0;
          ws_.basis[i] = static_cast<int>(art_col++);
          break;
      }
    }
  }

  // Prices the current basis from scratch: red = c - sum_i c_B(i) * row_i,
  // accumulated over rows in order.
  void build_reduced_costs() {
    const std::vector<double>& c = ws_.cost;
    std::copy(c.begin(), c.end(), ws_.red.begin());
    ws_.red[n_total_] = 0.0;
    ws_.rows.clear();
    ws_.factors.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = c[ws_.basis[i]];
      if (cb == 0.0) continue;
      ws_.rows.push_back(i);
      ws_.factors.push_back(cb);
    }
    for (std::size_t j = 0; j <= n_total_; ++j) {
      const double* cj = col(j);
      double r = ws_.red[j];
      for (std::size_t k = 0; k < ws_.rows.size(); ++k) {
        r -= ws_.factors[k] * cj[ws_.rows[k]];
      }
      ws_.red[j] = r;
    }
  }

  [[nodiscard]] double objective_value() const {
    const double* rhs = col(n_total_);
    double v = 0;
    for (std::size_t i = 0; i < m_; ++i) v += ws_.cost[ws_.basis[i]] * rhs[i];
    return v;
  }

  void pivot(std::size_t r, std::size_t c) {
    ++pivots_;
    double* a = ws_.a.data();
    // Scale the pivot row and gather its nonzero columns: among the
    // nonbasic ones, the leaving column and the rhs. The entering column's
    // place in the nonbasic list goes to the leaving one.
    const double inv = 1.0 / a[c * m_ + r];
    std::vector<std::size_t>& nz = ws_.nz;
    nz.clear();
    const std::size_t leaving = static_cast<std::size_t>(ws_.basis[r]);
    for (std::size_t& j : ws_.nonbasic) {
      double& v = a[j * m_ + r];
      if (v != 0.0) {
        v *= inv;
        nz.push_back(j);
      }
      if (j == c) j = leaving;
    }
    for (const std::size_t j : {leaving, n_total_}) {
      double& v = a[j * m_ + r];
      if (v != 0.0) {
        v *= inv;
        nz.push_back(j);
      }
    }
    a[c * m_ + r] = 1.0;  // kill roundoff on the pivot column
    // Rows to eliminate: the other nonzeros of the pivot column.
    double* pc = col(c);
    std::vector<std::size_t>& rows = ws_.rows;
    std::vector<double>& factors = ws_.factors;
    rows.clear();
    factors.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      if (i != r && pc[i] != 0.0) {
        rows.push_back(i);
        factors.push_back(pc[i]);
      }
    }
    for (const std::size_t j : nz) {
      if (j == c) continue;
      double* cj = col(j);
      const double pj = cj[r];
      for (std::size_t k = 0; k < rows.size(); ++k) {
        cj[rows[k]] -= factors[k] * pj;
      }
    }
    for (const std::size_t i : rows) pc[i] = 0.0;
    double* red = ws_.red.data();
    const double f = red[c];
    if (f != 0.0) {
      for (const std::size_t j : nz) red[j] -= f * a[j * m_ + r];
      red[c] = 0.0;
    }
    ws_.basis[r] = static_cast<int>(c);
  }

  LpStatus iterate(bool phase1) {
    const double* red = ws_.red.data();
    const double* rhs = col(n_total_);
    const std::vector<int>& basis = ws_.basis;
    long degenerate_streak = 0;
    for (long it = 0; it < max_iters_; ++it) {
      // Entering column: Dantzig rule, Bland after a degeneracy streak.
      const bool bland = degenerate_streak > static_cast<long>(m_) + 50;
      std::size_t enter = n_total_;
      double best = -opts_.tol;
      const std::size_t limit = phase1 ? n_total_ : art_begin_;
      for (std::size_t j = 0; j < limit; ++j) {
        if (red[j] < best) {
          best = red[j];
          enter = j;
          if (bland) break;
        }
      }
      if (enter == n_total_) return LpStatus::Optimal;

      // Ratio test.
      const double* ce = col(enter);
      std::size_t leave = m_;
      double best_ratio = kInf;
      for (std::size_t i = 0; i < m_; ++i) {
        const double aij = ce[i];
        if (aij > opts_.tol) {
          const double ratio = rhs[i] / aij;
          if (ratio < best_ratio - 1e-12 ||
              (ratio < best_ratio + 1e-12 && leave < m_ &&
               basis[i] < basis[leave])) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave == m_) return LpStatus::Unbounded;
      degenerate_streak = best_ratio <= 1e-12 ? degenerate_streak + 1 : 0;
      pivot(leave, enter);
    }
    return LpStatus::IterLimit;
  }

  SimplexOptions opts_;
  std::size_t m_;
  std::size_t n_struct_;
  const std::vector<double>& struct_cost_;
  Workspace& ws_;
  std::size_t n_total_ = 0;
  std::size_t art_begin_ = 0;
  long max_iters_ = 0;
  long pivots_ = 0;
};

}  // namespace

LpSolution solve_lp(const LpProblem& p, SimplexOptions opts) {
  static const obs::Counter solves = obs::counter("solver/lp/solves");
  static const obs::Counter pivots = obs::counter("solver/lp/pivots");
  solves.inc();
  LpSolution sol;
  const Standard s = to_standard_form(p);
  if (p.num_constraints() + s.n_upper == 0) {
    // Unconstrained: optimum is at a finite bound for every variable with
    // nonzero cost; infinite otherwise -> report unbounded.
    sol.x.assign(p.num_variables(), 0.0);
    sol.objective = 0.0;
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      const double c = p.cost(static_cast<int>(j));
      const double lo = p.lower_bound(static_cast<int>(j));
      const double hi = p.upper_bound(static_cast<int>(j));
      double v = 0.0;
      if (c > 0) v = lo;
      else if (c < 0) v = hi;
      else v = (lo > -kInf) ? lo : (hi < kInf ? hi : 0.0);
      if (v == -kInf || v == kInf) {
        sol.status = LpStatus::Unbounded;
        return sol;
      }
      sol.x[j] = v;
      sol.objective += c * v;
    }
    sol.status = LpStatus::Optimal;
    return sol;
  }

  thread_local Workspace ws;
  Tableau t(p, s, opts, ws);
  sol.status = t.solve();
  sol.pivots = t.pivots();
  pivots.add(static_cast<std::uint64_t>(sol.pivots));
  if (sol.status != LpStatus::Optimal) return sol;

  const std::vector<double> xs = t.structural_values();
  sol.x.assign(p.num_variables(), 0.0);
  sol.objective = s.cost_offset;
  for (std::size_t j = 0; j < p.num_variables(); ++j) {
    const VarMap& m = s.map[j];
    double v = m.offset + m.sign * xs[m.col];
    if (m.col_neg >= 0) v -= xs[m.col_neg];
    sol.x[j] = v;
    sol.objective += p.cost(static_cast<int>(j)) * (v - m.offset);
  }
  return sol;
}

}  // namespace aplace::solver
