#include "lp_dense_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace aplace::solver::oracle {

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

struct Standard {
  std::size_t n_cols = 0;  // structural standard-form columns
  std::vector<VarMap> map;
  // rows: coefficients over structural columns, relation, rhs
  std::vector<std::vector<double>> rows;
  std::vector<Relation> rels;
  std::vector<double> rhs;
  std::vector<double> cost;    // structural costs
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
      if (hi < kInf) m.upper_row_rhs = hi - lo;
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

  auto add_row = [&](const std::vector<LpTerm>& terms, Relation rel,
                     double rhs) {
    std::vector<double> row(s.n_cols, 0.0);
    double b = rhs;
    for (const LpTerm& t : terms) {
      const VarMap& m = s.map[t.var];
      row[m.col] += t.coef * m.sign;
      if (m.col_neg >= 0) row[m.col_neg] -= t.coef;
      b -= t.coef * m.offset;
    }
    s.rows.push_back(std::move(row));
    s.rels.push_back(rel);
    s.rhs.push_back(b);
  };

  for (const LpConstraint& c : p.constraints()) {
    add_row(c.terms, c.relation, c.rhs);
  }
  // Upper-bound rows for shifted variables.
  for (std::size_t j = 0; j < n; ++j) {
    const VarMap& m = s.map[j];
    if (m.upper_row_rhs < kInf) {
      std::vector<double> row(s.n_cols, 0.0);
      row[m.col] = 1.0;
      s.rows.push_back(std::move(row));
      s.rels.push_back(Relation::LessEq);
      s.rhs.push_back(m.upper_row_rhs);
    }
  }
  return s;
}

// Dense two-phase tableau simplex over the standard form. Flat row-major
// storage: a_[r * stride + c], last column = rhs.
class Tableau {
 public:
  Tableau(const Standard& s, const SimplexOptions& opts)
      : opts_(opts), m_(s.rows.size()), n_struct_(s.n_cols) {
    // Normalize rows so rhs >= 0 first.
    std::vector<std::vector<double>> rows = s.rows;
    std::vector<Relation> rels = s.rels;
    std::vector<double> rhs = s.rhs;
    for (std::size_t i = 0; i < m_; ++i) {
      if (rhs[i] < 0) {
        for (double& v : rows[i]) v = -v;
        rhs[i] = -rhs[i];
        if (rels[i] == Relation::LessEq) rels[i] = Relation::GreaterEq;
        else if (rels[i] == Relation::GreaterEq) rels[i] = Relation::LessEq;
      }
    }
    std::size_t n_slack = 0, n_art = 0;
    for (Relation r : rels) {
      if (r == Relation::LessEq) ++n_slack;
      else if (r == Relation::GreaterEq) { ++n_slack; ++n_art; }
      else ++n_art;
    }
    n_total_ = n_struct_ + n_slack + n_art;
    art_begin_ = n_struct_ + n_slack;
    stride_ = n_total_ + 1;
    a_.assign(m_ * stride_, 0.0);
    basis_.assign(m_, -1);

    std::size_t slack_col = n_struct_;
    std::size_t art_col = art_begin_;
    for (std::size_t i = 0; i < m_; ++i) {
      double* row = &a_[i * stride_];
      for (std::size_t j = 0; j < n_struct_; ++j) row[j] = rows[i][j];
      row[n_total_] = rhs[i];
      switch (rels[i]) {
        case Relation::LessEq:
          row[slack_col] = 1.0;
          basis_[i] = static_cast<int>(slack_col++);
          break;
        case Relation::GreaterEq:
          row[slack_col++] = -1.0;
          row[art_col] = 1.0;
          basis_[i] = static_cast<int>(art_col++);
          break;
        case Relation::Equal:
          row[art_col] = 1.0;
          basis_[i] = static_cast<int>(art_col++);
          break;
      }
    }
    cost_.assign(n_total_, 0.0);
    for (std::size_t j = 0; j < n_struct_; ++j) cost_[j] = s.cost[j];
    max_iters_ = opts_.max_iters > 0
                     ? opts_.max_iters
                     : static_cast<long>(60 * (m_ + n_total_) + 2000);
  }

  LpStatus solve() {
    // ---- Phase 1: minimize sum of artificials ----
    if (art_begin_ < n_total_) {
      std::vector<double> phase1(n_total_, 0.0);
      for (std::size_t j = art_begin_; j < n_total_; ++j) phase1[j] = 1.0;
      build_reduced_costs(phase1);
      const LpStatus st = iterate(/*phase1=*/true);
      if (st != LpStatus::Optimal) return st;
      if (objective_value(phase1) > 1e-6) return LpStatus::Infeasible;
      // Drive remaining artificial basics out where possible.
      for (std::size_t i = 0; i < m_; ++i) {
        if (static_cast<std::size_t>(basis_[i]) >= art_begin_) {
          const double* row = &a_[i * stride_];
          std::size_t piv = n_total_;
          for (std::size_t j = 0; j < art_begin_; ++j) {
            if (std::abs(row[j]) > opts_.tol) { piv = j; break; }
          }
          if (piv < n_total_) pivot(i, piv);
          // else: redundant row; artificial stays basic at value 0.
        }
      }
    }
    // ---- Phase 2 ----
    build_reduced_costs(cost_);
    return iterate(/*phase1=*/false);
  }

  [[nodiscard]] long pivots() const { return pivots_; }

  [[nodiscard]] std::vector<double> structural_values() const {
    std::vector<double> x(n_struct_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= 0 && static_cast<std::size_t>(basis_[i]) < n_struct_) {
        x[basis_[i]] = a_[i * stride_ + n_total_];
      }
    }
    return x;
  }

 private:
  void build_reduced_costs(const std::vector<double>& c) {
    red_.assign(stride_, 0.0);
    for (std::size_t j = 0; j < n_total_; ++j) red_[j] = c[j];
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = c[basis_[i]];
      if (cb == 0.0) continue;
      const double* row = &a_[i * stride_];
      for (std::size_t j = 0; j < stride_; ++j) red_[j] -= cb * row[j];
    }
  }

  [[nodiscard]] double objective_value(const std::vector<double>& c) const {
    double v = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      v += c[basis_[i]] * a_[i * stride_ + n_total_];
    }
    return v;
  }

  void pivot(std::size_t r, std::size_t c) {
    ++pivots_;
    double* prow = &a_[r * stride_];
    const double piv = prow[c];
    const double inv = 1.0 / piv;
    for (std::size_t j = 0; j < stride_; ++j) prow[j] *= inv;
    prow[c] = 1.0;  // kill roundoff on the pivot column
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == r) continue;
      double* row = &a_[i * stride_];
      const double f = row[c];
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < stride_; ++j) row[j] -= f * prow[j];
      row[c] = 0.0;
    }
    const double f = red_[c];
    if (f != 0.0) {
      for (std::size_t j = 0; j < stride_; ++j) red_[j] -= f * prow[j];
      red_[c] = 0.0;
    }
    basis_[r] = static_cast<int>(c);
  }

  LpStatus iterate(bool phase1) {
    long degenerate_streak = 0;
    for (long it = 0; it < max_iters_; ++it) {
      // Entering column: Dantzig rule, Bland after a degeneracy streak.
      const bool bland = degenerate_streak > static_cast<long>(m_) + 50;
      std::size_t enter = n_total_;
      double best = -opts_.tol;
      const std::size_t limit = phase1 ? n_total_ : art_begin_;
      for (std::size_t j = 0; j < limit; ++j) {
        if (red_[j] < best) {
          best = red_[j];
          enter = j;
          if (bland) break;
        }
      }
      if (enter == n_total_) return LpStatus::Optimal;

      // Ratio test.
      std::size_t leave = m_;
      double best_ratio = kInf;
      for (std::size_t i = 0; i < m_; ++i) {
        const double aij = a_[i * stride_ + enter];
        if (aij > opts_.tol) {
          const double ratio = a_[i * stride_ + n_total_] / aij;
          if (ratio < best_ratio - 1e-12 ||
              (ratio < best_ratio + 1e-12 && leave < m_ &&
               basis_[i] < basis_[leave])) {
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
  std::size_t n_total_ = 0;
  std::size_t art_begin_ = 0;
  std::size_t stride_ = 0;
  long max_iters_ = 0;
  long pivots_ = 0;
  std::vector<double> a_;  // flat row-major tableau, last column = rhs
  std::vector<double> cost_;
  std::vector<double> red_;  // reduced cost row
  std::vector<int> basis_;
};

}  // namespace

LpSolution solve_lp_dense(const LpProblem& p, SimplexOptions opts) {
  LpSolution sol;
  const Standard s = to_standard_form(p);
  if (s.rows.empty()) {
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

  Tableau t(s, opts);
  sol.status = t.solve();
  sol.pivots = t.pivots();
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

}  // namespace aplace::solver::oracle
