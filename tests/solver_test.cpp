// LP/MILP solver: simplex on canonical cases (bounded, equality, free
// variables, infeasible, unbounded, degenerate), branch-and-bound on small
// integer programs, a differential test of the dual simplex kernel against
// the dense tableau oracle (lp_dense_oracle.hpp), its certificates, and its
// warm starts under bound changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <random>
#include <string>

#include "lp_dense_oracle.hpp"
#include "solver/lp.hpp"
#include "solver/milp.hpp"

namespace aplace::solver {
namespace {

TEST(LpTest, SimpleBounded) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
  // => min -(x+y); optimum at intersection (1.6, 1.2), value 2.8.
  LpProblem p;
  const int x = p.add_variable(0, kInf, -1.0, "x");
  const int y = p.add_variable(0, kInf, -1.0, "y");
  p.add_constraint({{x, 1}, {y, 2}}, Relation::LessEq, 4);
  p.add_constraint({{x, 3}, {y, 1}}, Relation::LessEq, 6);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x], 1.6, 1e-7);
  EXPECT_NEAR(s.x[y], 1.2, 1e-7);
  EXPECT_NEAR(s.objective, -2.8, 1e-7);
}

TEST(LpTest, EqualityConstraint) {
  // min x + y s.t. x + y = 3, x - y = 1 -> x=2, y=1.
  LpProblem p;
  const int x = p.add_variable(0, kInf, 1.0);
  const int y = p.add_variable(0, kInf, 1.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::Equal, 3);
  p.add_constraint({{x, 1}, {y, -1}}, Relation::Equal, 1);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x], 2, 1e-8);
  EXPECT_NEAR(s.x[y], 1, 1e-8);
}

TEST(LpTest, FreeVariable) {
  // min |style| distance: min t s.t. t >= x - 5, t >= 5 - x, x free.
  // x can sit at 5 making t = 0.
  LpProblem p;
  const int x = p.add_variable(-kInf, kInf, 0.0);
  const int t = p.add_variable(0, kInf, 1.0);
  p.add_constraint({{x, 1}, {t, -1}}, Relation::LessEq, 5);
  p.add_constraint({{x, -1}, {t, -1}}, Relation::LessEq, -5);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x], 5, 1e-7);
  EXPECT_NEAR(s.objective, 0, 1e-8);
}

TEST(LpTest, NegativeLowerBounds) {
  // min x s.t. x >= -3 -> x = -3.
  LpProblem p;
  const int x = p.add_variable(-3, kInf, 1.0);
  p.add_constraint({{x, 1}}, Relation::LessEq, 10);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x], -3, 1e-8);
}

TEST(LpTest, UpperBoundedVariable) {
  // min -x with x in [0, 7] -> x = 7.
  LpProblem p;
  const int x = p.add_variable(0, 7, -1.0);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 0);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x], 7, 1e-8);
}

TEST(LpTest, Infeasible) {
  LpProblem p;
  const int x = p.add_variable(0, kInf, 1.0);
  p.add_constraint({{x, 1}}, Relation::LessEq, 1);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 2);
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::Infeasible);
}

TEST(LpTest, Unbounded) {
  LpProblem p;
  const int x = p.add_variable(0, kInf, -1.0);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 1);
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::Unbounded);
}

TEST(LpTest, UnconstrainedProblem) {
  LpProblem p;
  const int x = p.add_variable(2, 9, 1.0);
  const int y = p.add_variable(-4, 3, -1.0);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x], 2, 1e-12);
  EXPECT_NEAR(s.x[y], 3, 1e-12);
}

TEST(LpTest, DegenerateVertex) {
  // Multiple constraints through one vertex; must not cycle.
  LpProblem p;
  const int x = p.add_variable(0, kInf, -1.0);
  const int y = p.add_variable(0, kInf, -1.0);
  p.add_constraint({{x, 1}}, Relation::LessEq, 1);
  p.add_constraint({{y, 1}}, Relation::LessEq, 1);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::LessEq, 2);
  p.add_constraint({{x, 2}, {y, 1}}, Relation::LessEq, 3);
  p.add_constraint({{x, 1}, {y, 2}}, Relation::LessEq, 3);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -2.0, 1e-7);
}

TEST(LpTest, SeparationChain) {
  // Placement-like: x1 + 2 <= x2, x2 + 2 <= x3, minimize x3 with x1 >= 1.
  LpProblem p;
  const int x1 = p.add_variable(1, kInf, 0.0);
  const int x2 = p.add_variable(0, kInf, 0.0);
  const int x3 = p.add_variable(0, kInf, 1.0);
  p.add_constraint({{x1, 1}, {x2, -1}}, Relation::LessEq, -2);
  p.add_constraint({{x2, 1}, {x3, -1}}, Relation::LessEq, -2);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x3], 5, 1e-7);
}

TEST(MilpTest, SimpleBinaryChoice) {
  // min -(3a + 2b) s.t. a + b <= 1, a,b binary -> a=1, b=0.
  LpProblem p;
  const int a = p.add_variable(0, 1, -3.0);
  const int b = p.add_variable(0, 1, -2.0);
  p.set_integer(a);
  p.set_integer(b);
  p.add_constraint({{a, 1}, {b, 1}}, Relation::LessEq, 1);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[a], 1, 1e-9);
  EXPECT_NEAR(s.x[b], 0, 1e-9);
  EXPECT_TRUE(s.proven_optimal);
}

TEST(MilpTest, KnapsackRequiresBranching) {
  // Fractional relaxation would take half of item 1.
  // max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 7 (binaries).
  // Optimal integer: b + c = 10, or a + ... check: a alone=10 (w5), b+c=10
  // (w7); tie at 10.
  LpProblem p;
  const int a = p.add_variable(0, 1, -10.0);
  const int b = p.add_variable(0, 1, -6.0);
  const int c = p.add_variable(0, 1, -4.0);
  for (int v : {a, b, c}) p.set_integer(v);
  p.add_constraint({{a, 5}, {b, 4}, {c, 3}}, Relation::LessEq, 7);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -10.0, 1e-7);
  // Solution must be integral.
  for (int v : {a, b, c}) {
    EXPECT_NEAR(s.x[v], std::round(s.x[v]), 1e-7);
  }
}

TEST(MilpTest, IntegerGeneral) {
  // min x s.t. 2x >= 7, x integer -> x = 4.
  LpProblem p;
  const int x = p.add_variable(0, kInf, 1.0);
  p.set_integer(x);
  p.add_constraint({{x, 2}}, Relation::GreaterEq, 7);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x], 4, 1e-9);
}

TEST(MilpTest, InfeasibleInteger) {
  // 0.4 <= x <= 0.6, integer: infeasible.
  LpProblem p;
  const int x = p.add_variable(0.4, 0.6, 1.0);
  p.set_integer(x);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 0.0);
  const MilpSolution s = solve_milp(p);
  EXPECT_FALSE(s.ok());
}

TEST(MilpTest, RelaxationAlreadyIntegral) {
  LpProblem p;
  const int x = p.add_variable(0, 5, -1.0);
  p.set_integer(x);
  p.add_constraint({{x, 1}}, Relation::LessEq, 3);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x], 3, 1e-9);
  EXPECT_EQ(s.nodes_explored, 1);
}

TEST(MilpTest, MixedIntegerContinuous) {
  // min -(x + y), x integer in [0,10], y continuous in [0, 2.5],
  // x + y <= 5.7 -> every integral x in {4, 5} with y = 5.7 - x is optimal.
  LpProblem p;
  const int x = p.add_variable(0, 10, -1.0);
  const int y = p.add_variable(0, 2.5, -1.0);
  p.set_integer(x);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::LessEq, 5.7);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(std::abs(s.x[x] - 4) < 1e-7 || std::abs(s.x[x] - 5) < 1e-7)
      << s.x[x];
  EXPECT_NEAR(s.x[x] + s.x[y], 5.7, 1e-7);
  EXPECT_NEAR(s.objective, -5.7, 1e-7);
  EXPECT_TRUE(s.proven_optimal);
  EXPECT_EQ(s.gap, 0.0);
}

}  // namespace
}  // namespace aplace::solver

namespace aplace::solver {
namespace {

// Property: on random small integer programs with bounded variables, B&B
// must match exhaustive enumeration of the integer lattice.
TEST(MilpPropertyTest, MatchesBruteForceOnRandomPrograms) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> coef(-4, 4);
  std::uniform_int_distribution<int> rhs_d(2, 14);
  std::uniform_real_distribution<double> cost_d(-3.0, 3.0);

  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3;
    const int lo = 0, hi = 3;
    LpProblem p;
    std::vector<int> vars;
    std::vector<double> costs;
    for (int j = 0; j < n; ++j) {
      const double cost = cost_d(rng);
      vars.push_back(p.add_variable(lo, hi, cost));
      p.set_integer(vars.back());
      costs.push_back(cost);
    }
    // Two random <= constraints with nonnegative coefficients on at least
    // one side so the box keeps everything bounded.
    std::vector<std::vector<int>> rows;
    std::vector<int> rhs;
    for (int r = 0; r < 2; ++r) {
      std::vector<LpTerm> terms;
      std::vector<int> row;
      for (int j = 0; j < n; ++j) {
        const int a = coef(rng);
        row.push_back(a);
        if (a != 0) terms.push_back({vars[j], static_cast<double>(a)});
      }
      const int b = rhs_d(rng);
      rows.push_back(row);
      rhs.push_back(b);
      if (!terms.empty()) {
        p.add_constraint(std::move(terms), Relation::LessEq,
                         static_cast<double>(b));
      }
    }

    // Brute force over the 4^3 lattice.
    double best = 1e300;
    for (int a = lo; a <= hi; ++a) {
      for (int b = lo; b <= hi; ++b) {
        for (int c = lo; c <= hi; ++c) {
          const int x[3] = {a, b, c};
          bool ok = true;
          for (std::size_t r = 0; r < rows.size(); ++r) {
            int lhs = 0;
            for (int j = 0; j < n; ++j) lhs += rows[r][j] * x[j];
            if (lhs > rhs[r]) ok = false;
          }
          if (!ok) continue;
          double val = 0;
          for (int j = 0; j < n; ++j) val += costs[j] * x[j];
          best = std::min(best, val);
        }
      }
    }

    const MilpSolution s = solve_milp(p);
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(s.x[vars[j]], std::round(s.x[vars[j]]), 1e-6);
    }
  }
}

// Property: LP optimum is always <= MILP optimum (relaxation bound).
TEST(MilpPropertyTest, RelaxationBoundsInteger) {
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> cost_d(-2.0, 2.0);
  for (int trial = 0; trial < 20; ++trial) {
    LpProblem p;
    std::vector<int> vars;
    for (int j = 0; j < 4; ++j) {
      vars.push_back(p.add_variable(0, 5, cost_d(rng)));
    }
    p.add_constraint({{vars[0], 2}, {vars[1], 3}, {vars[2], 1}},
                     Relation::LessEq, 11);
    p.add_constraint({{vars[1], 1}, {vars[3], 4}}, Relation::LessEq, 9);
    const LpSolution rel = solve_lp(p);
    ASSERT_TRUE(rel.ok());
    for (int v : vars) p.set_integer(v);
    const MilpSolution s = solve_milp(p);
    ASSERT_TRUE(s.ok());
    EXPECT_LE(rel.objective, s.objective + 1e-9);
  }
}

}  // namespace
}  // namespace aplace::solver

namespace aplace::solver {
namespace {

// ---- dual simplex kernel vs. dense oracle -----------------------------------
//
// The production kernel (a dual simplex whose pivots update only the
// nonzero rows and columns) and the dense two-phase primal oracle take
// different paths, so they may stop at different optimal vertices. They
// must agree on the status and the optimal objective, and every optimum the
// kernel returns must pass its certificate.

bool same_objective(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Solves `p` with the kernel and the uncapped oracle. Expects the same
/// status and objective and a certified answer; a kernel solve capped by
/// `opts.max_iters` may instead stop at IterLimit. Returns the oracle's
/// status.
LpStatus expect_same_as_oracle(const LpProblem& p, SimplexOptions opts,
                               const std::string& what) {
  const LpSolution want = oracle::solve_lp_dense(p);
  const LpSolution got = solve_lp(p, opts);
  if (opts.max_iters > 0 && got.status == LpStatus::IterLimit) {
    return want.status;
  }
  EXPECT_EQ(got.status, want.status) << what;
  if (got.ok() && want.ok()) {
    EXPECT_TRUE(same_objective(got.objective, want.objective))
        << what << ": " << got.objective << " vs " << want.objective;
    EXPECT_TRUE(certify(p, got)) << what;
    EXPECT_EQ(got.x.size(), p.num_variables()) << what;
    EXPECT_EQ(got.duals.size(), p.num_constraints()) << what;
  }
  return want.status;
}

/// Random program mixing <=/>=/= rows with free, lower-only, upper-only,
/// boxed and fixed variables. Small integer data makes degenerate vertices
/// and ratio-test ties common; repeated terms on one variable occur too.
LpProblem random_program(std::mt19937_64& rng, int n_vars, int n_rows,
                         int max_terms, bool integral) {
  std::uniform_int_distribution<int> kind_d(0, 4), small_d(-6, 6);
  std::uniform_real_distribution<double> real_d(-6.0, 6.0);
  const auto value = [&] {
    return integral ? static_cast<double>(small_d(rng)) : real_d(rng);
  };
  LpProblem p;
  for (int j = 0; j < n_vars; ++j) {
    const double a = value(), b = value();
    const double lo = std::min(a, b), hi = std::max(a, b);
    const double cost = small_d(rng) % 3 == 0 ? 0.0 : value();
    switch (kind_d(rng)) {
      case 0: p.add_variable(-kInf, kInf, cost); break;
      case 1: p.add_variable(lo, kInf, cost); break;
      case 2: p.add_variable(-kInf, hi, cost); break;
      case 3: p.add_variable(lo, hi, cost); break;
      default: p.add_variable(lo, lo, cost); break;
    }
  }
  std::uniform_int_distribution<int> var_d(0, n_vars - 1);
  std::uniform_int_distribution<int> terms_d(1, max_terms), rel_d(0, 2);
  for (int r = 0; r < n_rows; ++r) {
    std::vector<LpTerm> terms;
    for (int k = terms_d(rng); k > 0; --k) {
      double c = value();
      if (c == 0.0) c = 1.0;
      terms.push_back({var_d(rng), c});
    }
    const auto rel = static_cast<Relation>(rel_d(rng));
    const double rhs = small_d(rng) % 2 == 0 ? 0.0 : value();
    p.add_constraint(std::move(terms), rel, rhs);
  }
  return p;
}

/// Program shaped like one ILP legalizer round: device centers on a boxed
/// grid, separation rows oriented by a random "GP" position (so they never
/// form a cycle), net bounding boxes, symmetry and alignment equalities, and
/// layout extents W, H. Every row has 2-4 nonzeros; the cost is W + H plus
/// the net half-perimeters.
/// With `flips`, each device also gets a flipping binary in [0, 1] that
/// moves its pins, as in the ILP legalizer's (4d) rows.
LpProblem legalizer_program(std::mt19937_64& rng, int devices,
                            bool flips = false) {
  std::uniform_int_distribution<int> size_d(2, 8), dev_d(0, devices - 1);
  std::uniform_int_distribution<int> coin(0, 1), gp_d(0, 3 * devices);
  LpProblem p;
  std::vector<int> x, y, w, h, gx, gy;
  const double extent = 8.0 * devices + 8.0;
  for (int i = 0; i < devices; ++i) {
    w.push_back(size_d(rng));
    h.push_back(size_d(rng));
    gx.push_back(gp_d(rng));
    gy.push_back(gp_d(rng));
    x.push_back(p.add_variable(0.5 * w.back(), extent, 0.0));
    y.push_back(p.add_variable(0.5 * h.back(), extent, 0.0));
  }
  // Symmetric pairs about one free vertical axis share a GP row, so no
  // vertical separation chain can contradict their y alignment.
  const int axis = p.add_variable(-kInf, kInf, 0.0);
  for (int k = 0; k + 1 < devices / 4; k += 2) {
    gy[k + 1] = gy[k];
    p.add_constraint({{x[k], 1}, {x[k + 1], 1}, {axis, -2}}, Relation::Equal,
                     0);
    p.add_constraint({{y[k], 1}, {y[k + 1], -1}}, Relation::Equal, 0);
  }
  const int W = p.add_variable(0, kInf, 1.0);
  const int H = p.add_variable(0, kInf, 1.0);
  for (int i = 0; i < devices; ++i) {
    p.add_constraint({{x[i], 1}, {W, -1}}, Relation::LessEq, -0.5 * w[i]);
    p.add_constraint({{y[i], 1}, {H, -1}}, Relation::LessEq, -0.5 * h[i]);
  }
  // Separation of each device from a few others, along GP order.
  for (int i = 0; i < devices; ++i) {
    for (int k = 0; k < 3; ++k) {
      const int j = dev_d(rng);
      if (j == i) continue;
      const bool horizontal = gy[i] == gy[j] || (gx[i] != gx[j] && coin(rng));
      const std::vector<int>& v = horizontal ? x : y;
      const std::vector<int>& g = horizontal ? gx : gy;
      const std::vector<int>& s = horizontal ? w : h;
      const int lo = g[i] < g[j] || (g[i] == g[j] && i < j) ? i : j;
      const int hi = lo == i ? j : i;
      p.add_constraint({{v[hi], 1}, {v[lo], -1}}, Relation::GreaterEq,
                       0.5 * (s[i] + s[j]));
    }
  }
  std::vector<int> f;
  for (int i = 0; flips && i < devices; ++i) {
    f.push_back(p.add_variable(0, 1, 0.0));
    p.set_integer(f.back());
  }
  // Nets: a free bounding box [lo, hi] per axis around 2-4 pins.
  for (int n = 0; n < devices / 2; ++n) {
    const int lx = p.add_variable(-kInf, kInf, -1.0);
    const int hx = p.add_variable(-kInf, kInf, 1.0);
    const int ly = p.add_variable(-kInf, kInf, -1.0);
    const int hy = p.add_variable(-kInf, kInf, 1.0);
    for (int k = 2 + dev_d(rng) % 3; k > 0; --k) {
      const int d = dev_d(rng);
      const double off = 0.5 * (dev_d(rng) % 3 - 1);
      std::vector<LpTerm> rows[4] = {{{lx, 1}, {x[d], -1}},
                                     {{hx, 1}, {x[d], -1}},
                                     {{ly, 1}, {y[d], -1}},
                                     {{hy, 1}, {y[d], -1}}};
      if (flips) {
        const double shift = 0.5 * (1 + dev_d(rng) % 3);
        for (std::vector<LpTerm>& r : rows) r.push_back({f[d], -shift});
      }
      p.add_constraint(std::move(rows[0]), Relation::LessEq, off);
      p.add_constraint(std::move(rows[1]), Relation::GreaterEq, off);
      p.add_constraint(std::move(rows[2]), Relation::LessEq, -off);
      p.add_constraint(std::move(rows[3]), Relation::GreaterEq, -off);
    }
  }
  return p;
}

TEST(LpOracleTest, SparseKernelMatchesDenseOracleOnRandomPrograms) {
  std::mt19937_64 rng(20261017);
  std::map<LpStatus, int> seen;
  int capped = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const bool integral = trial % 3 != 0;
    const int n_vars = 2 + static_cast<int>(rng() % 14);
    const int n_rows = static_cast<int>(rng() % 16);
    const LpProblem p =
        random_program(rng, n_vars, n_rows, /*max_terms=*/4, integral);
    SimplexOptions opts;
    // Every fifth program runs into a tiny iteration cap.
    if (trial % 5 == 4) opts.max_iters = 1 + static_cast<long>(rng() % 6);
    ++seen[expect_same_as_oracle(p, opts,
                                 "random trial " + std::to_string(trial))];
    capped += solve_lp(p, opts).status == LpStatus::IterLimit ? 1 : 0;
  }
  // The corpus exercises every exit of the simplex.
  for (const LpStatus st : {LpStatus::Optimal, LpStatus::Infeasible,
                            LpStatus::Unbounded}) {
    EXPECT_GT(seen[st], 0) << to_string(st);
  }
  EXPECT_GT(capped, 0);
}

TEST(LpOracleTest, SparseKernelMatchesDenseOracleOnDegeneratePrograms) {
  // All-zero right-hand sides, and every finite bound moved to 0 (a boxed
  // [lo, hi] becomes [0, hi - lo]): the origin is a degenerate vertex of
  // every constraint row, so ratio-test ties and zero-step pivots abound.
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    LpProblem p = random_program(rng, 6 + trial % 10, 12 + trial % 20,
                                 /*max_terms=*/4, /*integral=*/true);
    LpProblem q;
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      const int v = static_cast<int>(j);
      const double lo = p.lower_bound(v), hi = p.upper_bound(v);
      if (lo == -kInf) {
        q.add_variable(-kInf, hi == kInf ? kInf : 0.0, p.cost(v));
      } else {
        q.add_variable(0.0, hi - lo, p.cost(v));
      }
    }
    for (const LpConstraint& c : p.constraints()) {
      q.add_constraint(c.terms, c.relation, 0.0);
    }
    expect_same_as_oracle(q, {}, "degenerate trial " + std::to_string(trial));
  }
}

TEST(LpOracleTest, SparseKernelMatchesDenseOracleOnLegalizerPrograms) {
  // From ~80 to ~730 tableau rows (constraints plus variable-bound rows) of
  // 2-4 nonzeros each; the largest is the size of a VCO2 legalizer round.
  std::mt19937_64 rng(77);
  for (const int devices : {6, 12, 24, 40, 56}) {
    const LpProblem p = legalizer_program(rng, devices);
    const LpStatus st = expect_same_as_oracle(
        p, {}, "legalizer devices=" + std::to_string(devices));
    EXPECT_EQ(st, LpStatus::Optimal) << devices;
  }
}

TEST(LpOracleTest, SparseKernelMatchesDenseOracleThroughBlandSwitch) {
  // Beale's example cycles under primal Dantzig pricing with a lowest-index
  // tie-break. In the oracle the degeneracy streak then passes m + 50
  // pivots, pricing switches to Bland's rule, and the solve ends at the
  // optimum -5/4; the kernel must reach the same optimum.
  LpProblem p;
  const int x4 = p.add_variable(0, kInf, -0.75);
  const int x5 = p.add_variable(0, kInf, 20.0);
  const int x6 = p.add_variable(0, kInf, -0.5);
  const int x7 = p.add_variable(0, kInf, 6.0);
  p.add_constraint({{x4, 0.25}, {x5, -8}, {x6, -1}, {x7, 9}},
                   Relation::LessEq, 0);
  p.add_constraint({{x4, 0.5}, {x5, -12}, {x6, -0.5}, {x7, 3}},
                   Relation::LessEq, 0);
  p.add_constraint({{x6, 1}}, Relation::LessEq, 1);
  ASSERT_EQ(expect_same_as_oracle(p, {}, "beale"), LpStatus::Optimal);
  EXPECT_GT(oracle::solve_lp_dense(p).pivots, 3 + 50);
  EXPECT_NEAR(solve_lp(p).objective, -1.25, 1e-12);
}

TEST(LpCertificateTest, TamperedSolutionsFail) {
  std::mt19937_64 rng(31);
  const LpProblem p = legalizer_program(rng, 12);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(certify(p, s));
  // A device moved off its optimum: a row breaks or the objectives part.
  LpSolution moved = s;
  moved.x[0] += 0.5;
  EXPECT_FALSE(certify(p, moved));
  // A binding row's dual with the wrong sign.
  LpSolution flipped = s;
  std::size_t i = 0;
  while (i < s.duals.size() && std::abs(s.duals[i]) < 1e-6) ++i;
  ASSERT_LT(i, s.duals.size());
  flipped.duals[i] = -flipped.duals[i];
  EXPECT_FALSE(certify(p, flipped));
  // A dual on a row with slack.
  LpSolution slack_dual = s;
  std::size_t k = 0;
  for (; k < p.num_constraints(); ++k) {
    const LpConstraint& c = p.constraints()[k];
    double act = 0.0;
    for (const LpTerm& t : c.terms) act += t.coef * s.x[t.var];
    if (std::abs(act - c.rhs) > 1e-3 && c.relation != Relation::Equal) break;
  }
  ASSERT_LT(k, p.num_constraints());
  slack_dual.duals[k] = p.constraints()[k].relation == Relation::LessEq
                            ? -1.0 : 1.0;
  EXPECT_FALSE(certify(p, slack_dual));
  // Bounds the answer does not meet.
  std::vector<double> lo(p.lower_bounds().begin(), p.lower_bounds().end());
  std::vector<double> hi(p.upper_bounds().begin(), p.upper_bounds().end());
  lo[0] = s.x[0] + 1.0;
  hi[0] = s.x[0] + 2.0;
  EXPECT_FALSE(certify(p, lo, hi, s));
  // A misreported objective, or no duals at all.
  LpSolution off = s;
  off.objective += 1.0;
  EXPECT_FALSE(certify(p, off));
  LpSolution no_duals = s;
  no_duals.duals.clear();
  EXPECT_FALSE(certify(p, no_duals));
}

TEST(LpWarmStartTest, BoundChangesMatchColdOracle) {
  // Legalizer-shaped programs with flipping binaries, re-solved warm by one
  // DualSimplex through random sequences of bound changes: binaries fixed
  // to 0 or 1 or relaxed to [0, 1] (branch-and-bound), and device lower
  // bounds raised or restored. Each answer must match a cold oracle solve
  // of the same bounds.
  std::mt19937_64 rng(4242);
  long warm_pivots = 0, cold_pivots = 0;
  std::vector<LpProblem> warm_solved;  // cold-solved after each sequence
  for (const int devices : {6, 12, 24}) {
    const LpProblem p = legalizer_program(rng, devices, /*flips=*/true);
    std::vector<int> binaries, coords;
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      const int v = static_cast<int>(j);
      if (p.is_integer(v)) binaries.push_back(v);
      else if (p.lower_bound(v) > 0 && p.upper_bound(v) < kInf) {
        coords.push_back(v);
      }
    }
    ASSERT_FALSE(binaries.empty());
    std::vector<double> lo(p.lower_bounds().begin(), p.lower_bounds().end());
    std::vector<double> hi(p.upper_bounds().begin(), p.upper_bounds().end());
    DualSimplex lp(p);
    for (int step = 0; step < 40; ++step) {
      if (step > 0) {
        for (int changes = 1 + static_cast<int>(rng() % 3); changes > 0;
             --changes) {
          if (rng() % 3 != 0) {
            const int b = binaries[rng() % binaries.size()];
            const int kind = static_cast<int>(rng() % 3);
            lo[b] = kind == 1 ? 1.0 : 0.0;
            hi[b] = kind == 0 ? 0.0 : 1.0;
          } else {
            const int v = coords[rng() % coords.size()];
            lo[v] = rng() % 2 == 0
                        ? p.lower_bound(v)
                        : p.lower_bound(v) + static_cast<double>(rng() % 9);
          }
        }
      }
      LpProblem q = p;
      for (std::size_t j = 0; j < p.num_variables(); ++j) {
        q.set_bounds(static_cast<int>(j), lo[j], hi[j]);
      }
      const std::string what = "devices=" + std::to_string(devices) +
                               " step=" + std::to_string(step);
      const LpSolution got = lp.solve(lo, hi);
      const LpSolution want = oracle::solve_lp_dense(q);
      EXPECT_EQ(got.status, want.status) << what;
      if (got.ok() && want.ok()) {
        EXPECT_TRUE(same_objective(got.objective, want.objective))
            << what << ": " << got.objective << " vs " << want.objective;
        EXPECT_TRUE(certify(q, got)) << what;
      }
      if (step > 0) {
        warm_pivots += got.pivots;
        warm_solved.push_back(std::move(q));
      }
    }
    // Cold solves only after the sequence: any other solve on this thread
    // would make lp's next solve cold too.
    for (const LpProblem& q : warm_solved) cold_pivots += solve_lp(q).pivots;
    warm_solved.clear();
  }
  // Warm re-solves take a fraction of a cold solve's pivots.
  EXPECT_LT(3 * warm_pivots, cold_pivots);
}

TEST(LpWarmStartTest, AnotherSolveOnTheThreadForcesAColdStart) {
  std::mt19937_64 rng(8);
  const LpProblem p = legalizer_program(rng, 12, /*flips=*/true);
  const LpProblem other = legalizer_program(rng, 6);
  std::vector<double> lo(p.lower_bounds().begin(), p.lower_bounds().end());
  std::vector<double> hi(p.upper_bounds().begin(), p.upper_bounds().end());
  DualSimplex lp(p);
  const LpSolution first = lp.solve(lo, hi);
  ASSERT_TRUE(first.ok());
  // Re-solving unchanged bounds warm takes no pivot at all.
  EXPECT_EQ(lp.solve(lo, hi).pivots, 0);
  // A solve of another program reuses the thread's tableau, so the next
  // solve of p must load cold and take the same pivots as the first.
  ASSERT_TRUE(solve_lp(other).ok());
  const LpSolution again = lp.solve(lo, hi);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.pivots, first.pivots);
  EXPECT_EQ(again.x, first.x);
}

TEST(LpOracleTest, PivotCountIsReported) {
  LpProblem p;
  const int x = p.add_variable(0, kInf, -1.0);
  const int y = p.add_variable(0, kInf, -1.0);
  p.add_constraint({{x, 1}, {y, 2}}, Relation::LessEq, 4);
  p.add_constraint({{x, 3}, {y, 1}}, Relation::LessEq, 6);
  EXPECT_EQ(solve_lp(p).pivots, 2);
  LpProblem unconstrained;
  unconstrained.add_variable(0, kInf, 1.0);
  EXPECT_EQ(solve_lp(unconstrained).pivots, 0);
}

}  // namespace
}  // namespace aplace::solver
