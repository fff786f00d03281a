#pragma once
// Linear programming front-end used by both detailed placers.
//
// The problem is stated in natural form: variables with (possibly infinite)
// bounds and a linear cost, constraints as sparse rows with <=, >= or ==
// relations. The solver is a bounded-variable dual simplex on a dense,
// column-major tableau (see docs/PERFORMANCE.md, "LP kernel"):
//
// * Every row gets a slack column whose bounds encode its relation (an
//   equality's slack is fixed to [0, 0]); variable bounds are implicit, so
//   a nonbasic variable sits at either of its bounds. There are no
//   artificial columns and no primal phase 1.
// * A crash pivots each variable whose cost has the wrong sign for its
//   only finite bound (the legalizers' net-box minima, cost -w) into a row
//   where that cancels, so the legalizer's programs start dual feasible.
//   Other programs that still are not get a dual phase 1 on the same
//   tableau (box-bounded auxiliary problem).
// * DualSimplex keeps its final basis: a re-solve after variable bounds
//   change (branch-and-bound) starts from it instead of from scratch.
//
// Every Optimal answer carries its row duals and is checked by certify()
// against the original problem; one that fails comes back Uncertified.
//
// solve_milp() (see milp.hpp) adds branch-and-bound over variables marked
// integer — in this project the device-flipping binaries of the ILP detailed
// placer (paper Eq. 4d/4j).

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/check.hpp"

namespace aplace::solver {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Relation : std::uint8_t { LessEq, GreaterEq, Equal };

struct LpTerm {
  int var = -1;
  double coef = 0.0;
};

struct LpConstraint {
  std::vector<LpTerm> terms;
  Relation relation = Relation::LessEq;
  double rhs = 0.0;
};

enum class LpStatus : std::uint8_t {
  Optimal,
  Infeasible,
  Unbounded,
  IterLimit,
  /// The kernel stopped at an optimum whose certificate failed (numerical
  /// trouble); the answer is not trusted.
  Uncertified,
};

[[nodiscard]] const char* to_string(LpStatus s);

struct LpSolution {
  LpStatus status = LpStatus::IterLimit;
  std::vector<double> x;  ///< values of the natural variables
  /// Row duals y, one per constraint (Optimal only), for min c'x with
  /// reduced costs d = c - A'y: y <= 0 on <= rows, y >= 0 on >= rows.
  std::vector<double> duals;
  double objective = 0.0;
  long pivots = 0;  ///< simplex pivots taken, crash and phase 1 included

  [[nodiscard]] bool ok() const { return status == LpStatus::Optimal; }
};

class LpProblem {
 public:
  /// Add a variable with bounds [lo, hi] and objective coefficient `cost`
  /// (minimization). Returns its index.
  int add_variable(double lo, double hi, double cost, std::string name = "");

  void add_constraint(std::vector<LpTerm> terms, Relation rel, double rhs);

  /// Convenience: a <= x_a - x_b  etc. expressed by callers directly.
  void set_bounds(int var, double lo, double hi) {
    APLACE_CHECK(var >= 0 && static_cast<std::size_t>(var) < lo_.size());
    APLACE_CHECK_MSG(lo <= hi, "variable bounds crossed");
    lo_[var] = lo;
    hi_[var] = hi;
  }
  void set_integer(int var, bool is_int = true) {
    APLACE_CHECK(var >= 0 && static_cast<std::size_t>(var) < lo_.size());
    integer_[var] = is_int;
  }

  [[nodiscard]] std::size_t num_variables() const { return lo_.size(); }
  [[nodiscard]] std::size_t num_constraints() const {
    return constraints_.size();
  }
  [[nodiscard]] double lower_bound(int v) const { return lo_[v]; }
  [[nodiscard]] double upper_bound(int v) const { return hi_[v]; }
  [[nodiscard]] std::span<const double> lower_bounds() const { return lo_; }
  [[nodiscard]] std::span<const double> upper_bounds() const { return hi_; }
  [[nodiscard]] double cost(int v) const { return cost_[v]; }
  [[nodiscard]] bool is_integer(int v) const { return integer_[v]; }
  [[nodiscard]] const std::string& name(int v) const { return names_[v]; }
  [[nodiscard]] const std::vector<LpConstraint>& constraints() const {
    return constraints_;
  }

 private:
  std::vector<double> lo_, hi_, cost_;
  std::vector<char> integer_;
  std::vector<std::string> names_;
  std::vector<LpConstraint> constraints_;
};

struct SimplexOptions {
  /// Cap on the dual simplex pivots of one solve (dual phase 1 included;
  /// the crash adds at most one pivot per row on top); 0 = automatic,
  /// 60 * (rows + columns) + 2000 where the columns count the variables and
  /// one slack per row.
  long max_iters = 0;
  double tol = 1e-9;   ///< pivot / feasibility tolerance
};

/// Dual simplex over one LpProblem whose variable bounds may change between
/// solves. The first solve loads the tableau cold. Each later solve starts
/// from the final basis of the one before: the bound changes shift the
/// basic values, the basis stays dual feasible, and dual pivots restore
/// primal feasibility (counted in `solver/lp/warm_starts`).
///
/// The tableau lives in the per-thread workspace of the thread that made
/// the solver, which must also run its solves. A solve on that thread by
/// any other solver in between (solve_lp included) makes the next solve of
/// this one cold again, so answers never depend on what else ran.
class DualSimplex {
 public:
  explicit DualSimplex(const LpProblem& p, SimplexOptions opts = {});
  ~DualSimplex();
  DualSimplex(const DualSimplex&) = delete;
  DualSimplex& operator=(const DualSimplex&) = delete;

  /// Solve the LP relaxation of `p` (integrality ignored) with variable
  /// bounds [lo, hi] in place of p's.
  [[nodiscard]] LpSolution solve(std::span<const double> lo,
                                 std::span<const double> hi);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Solve the LP relaxation (integrality marks ignored), cold.
[[nodiscard]] LpSolution solve_lp(const LpProblem& p, SimplexOptions opts = {});

/// Optimality certificate of `s` for `p` under bounds [lo, hi], checked
/// against the problem rather than any tableau, in O(nonzeros):
/// * primal: every row holds and every x within its bounds;
/// * dual: each reduced cost d = c - A'y has the sign its variable's bound
///   position allows (zero strictly inside), each row dual the sign its
///   relation allows and zero on a slack row;
/// * gap: c'x equals the dual objective b'y + sum d_j * bound_j, and the
///   reported objective, within 1e-9 of the sum of |c_j x_j| and |b_i y_i|.
/// Tolerances are 1e-7, relative to each row's and column's magnitude.
[[nodiscard]] bool certify(const LpProblem& p, std::span<const double> lo,
                           std::span<const double> hi, const LpSolution& s);
/// Same, under p's own bounds.
[[nodiscard]] bool certify(const LpProblem& p, const LpSolution& s);

}  // namespace aplace::solver
