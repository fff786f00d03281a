#include "solver/milp.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"

namespace aplace::solver {
namespace {

struct Node {
  // Bound overrides: (var, lo, hi) triples accumulated down the branch.
  std::vector<std::tuple<int, double, double>> bounds;
  double parent_objective = -kInf;  ///< relaxation bound for the gap
};

// Most fractional integer variable, or nullopt when integral.
std::optional<int> pick_branch_var(const LpProblem& p,
                                   const std::vector<double>& x, double tol) {
  int best = -1;
  double best_frac = tol;
  for (std::size_t j = 0; j < p.num_variables(); ++j) {
    if (!p.is_integer(static_cast<int>(j))) continue;
    const double f = x[j] - std::floor(x[j]);
    const double frac = std::min(f, 1.0 - f);
    if (frac > best_frac) {
      best_frac = frac;
      best = static_cast<int>(j);
    }
  }
  if (best < 0) return std::nullopt;
  return best;
}

}  // namespace

MilpSolution solve_milp(const LpProblem& p, MilpOptions opts) {
  static const obs::Counter nodes = obs::counter("solver/milp/nodes");
  static const obs::Counter truncations = obs::counter("solver/milp/truncated");
  MilpSolution best;
  best.status = LpStatus::Infeasible;

  std::vector<Node> stack;
  stack.push_back(Node{});

  // One solver for every node: each solve restarts from the basis the one
  // before it left. Bounds are rebuilt per node from the original ones.
  DualSimplex lp(p, opts.simplex);
  const std::size_t n = p.num_variables();
  std::vector<double> lo(n), hi(n);
  const auto reset_bounds = [&] {
    std::copy(p.lower_bounds().begin(), p.lower_bounds().end(), lo.begin());
    std::copy(p.upper_bounds().begin(), p.upper_bounds().end(), hi.begin());
  };
  // The root node solves p itself; the rounding fallback reuses its answer.
  std::optional<LpSolution> root;

  while (!stack.empty() && best.nodes_explored < opts.max_nodes) {
    if (opts.deadline.expired() || opts.cancel.cancelled()) {
      best.deadline_hit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++best.nodes_explored;
    nodes.inc();

    reset_bounds();
    bool bounds_ok = true;
    for (auto [var, l, h] : node.bounds) {
      // Intersect with overrides applied earlier along this branch so a
      // later bound never loosens an earlier one.
      const double new_lo = std::max(l, lo[var]);
      const double new_hi = std::min(h, hi[var]);
      if (new_lo > new_hi) { bounds_ok = false; break; }
      lo[var] = new_lo;
      hi[var] = new_hi;
    }
    if (!bounds_ok) continue;

    const LpSolution rel = lp.solve(lo, hi);
    if (node.bounds.empty()) root = rel;
    if (rel.status == LpStatus::Unbounded) {
      // MILP unbounded only if relaxation unbounded at the root.
      if (best.status == LpStatus::Infeasible && node.bounds.empty()) {
        best.status = LpStatus::Unbounded;
        return best;
      }
      continue;
    }
    if (!rel.ok()) continue;
    if (best.status == LpStatus::Optimal &&
        rel.objective >= best.objective - 1e-12) {
      continue;  // pruned by bound
    }

    const auto branch = pick_branch_var(p, rel.x, opts.int_tol);
    if (!branch) {
      // Integral: new incumbent.
      best.status = LpStatus::Optimal;
      best.x = rel.x;
      best.objective = rel.objective;
      continue;
    }

    const int var = *branch;
    const double val = rel.x[var];
    // Branch down then up; push "up" first so "down" (usually closer to the
    // relaxation) is explored first in DFS order.
    Node down = node, up = node;
    down.bounds.emplace_back(var, p.lower_bound(var), std::floor(val));
    up.bounds.emplace_back(var, std::ceil(val), p.upper_bound(var));
    down.parent_objective = up.parent_objective = rel.objective;
    // Overrides only accumulate here; applying a node intersects them with
    // the earlier ones on the same variable (see the loop above).
    stack.push_back(std::move(up));
    stack.push_back(std::move(down));
  }
  const bool truncated = !stack.empty();
  best.proven_optimal = best.status == LpStatus::Optimal && !truncated;
  if (truncated) truncations.inc();

  if (best.status != LpStatus::Optimal) {
    // Rounding fallback: take the relaxation (the root node's solve, unless
    // the budget ran out before the root), fix every integer variable to its
    // rounded value, re-solve from the last basis. Guarantees an answer when
    // fixing keeps the problem feasible (flipping binaries always do).
    reset_bounds();
    const LpSolution rel = root ? std::move(*root) : lp.solve(lo, hi);
    if (!rel.ok()) {
      // Report why the relaxation gave nothing (iteration limit, failed
      // certificate); an infeasible one leaves the MILP infeasible.
      if (rel.status != LpStatus::Infeasible) best.status = rel.status;
      return best;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (!p.is_integer(static_cast<int>(j))) continue;
      // Round toward the nearest integer *inside* the original bounds;
      // if none exists the problem has no integral solution here.
      double r = std::round(rel.x[j]);
      if (r < lo[j]) r = std::ceil(lo[j] - 1e-9);
      if (r > hi[j]) r = std::floor(hi[j] + 1e-9);
      if (r < lo[j] - 1e-9 || r > hi[j] + 1e-9) return best;
      lo[j] = hi[j] = r;
    }
    const LpSolution fixed = lp.solve(lo, hi);
    if (!fixed.ok()) return best;
    best.status = LpStatus::Optimal;
    best.x = fixed.x;
    best.objective = fixed.objective;
    best.proven_optimal = false;
  }
  if (!best.proven_optimal) {
    double bound = best.objective;
    for (const Node& node : stack) {
      bound = std::min(bound, node.parent_objective);
    }
    best.gap =
        (best.objective - bound) / std::max(1.0, std::abs(best.objective));
  }
  return best;
}

}  // namespace aplace::solver
