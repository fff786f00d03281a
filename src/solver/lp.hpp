#pragma once
// Linear programming front-end used by both detailed placers.
//
// The problem is stated in natural form: variables with (possibly infinite)
// bounds and a linear cost, constraints as sparse rows with <=, >= or ==
// relations. solve_lp() runs a two-phase primal tableau simplex. The
// legalizer's programs have a few hundred rows of 2-4 nonzeros each, and
// the tableau stays a few percent dense, so each pivot updates only the
// nonzero columns of the scaled pivot row (see docs/PERFORMANCE.md, "LP
// kernel").
//
// solve_milp() (see milp.hpp) adds branch-and-bound over variables marked
// integer — in this project the device-flipping binaries of the ILP detailed
// placer (paper Eq. 4d/4j).

#include <limits>
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
};

[[nodiscard]] const char* to_string(LpStatus s);

struct LpSolution {
  LpStatus status = LpStatus::IterLimit;
  std::vector<double> x;  ///< values of the natural variables
  double objective = 0.0;
  long pivots = 0;  ///< simplex pivots taken, both phases

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
  /// Per-phase iteration cap; 0 = automatic, 60 * (rows + columns) + 2000
  /// where rows include the variable-bound rows and columns count the
  /// structural, slack and artificial columns of the standard form.
  long max_iters = 0;
  double tol = 1e-9;   ///< pivot / feasibility tolerance
};

/// Solve the LP relaxation (integrality marks ignored).
[[nodiscard]] LpSolution solve_lp(const LpProblem& p, SimplexOptions opts = {});

}  // namespace aplace::solver
