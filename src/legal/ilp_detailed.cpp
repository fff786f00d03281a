#include "legal/ilp_detailed.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "legal/layout_lp.hpp"
#include "legal/projection.hpp"
#include "legal/relative_order.hpp"

namespace aplace::legal {

IlpDetailedPlacer::IlpDetailedPlacer(
    std::shared_ptr<const netlist::CompiledCircuit> compiled, IlpOptions opts)
    : compiled_(std::move(compiled)), opts_(opts) {
  APLACE_CHECK(opts.grid_pitch > 0);
  APLACE_CHECK(opts.utilization > 0 && opts.utilization <= 1.0);
}

IlpResult IlpDetailedPlacer::place(std::span<const double> gp_positions) const {
  const netlist::Circuit& c = compiled_->circuit();
  const std::size_t n = c.num_devices();
  APLACE_CHECK(gp_positions.size() == 2 * n);
  const double gu = opts_.grid_pitch;  // um per grid unit

  std::vector<double> start(gp_positions.begin(), gp_positions.end());
  sanitize_positions(c, start);
  project_symmetry(c, start);
  project_ordering(c, start);
  project_centroid(c, start);
  // Initial separation directions from the (projected) GP solution, for
  // every pair (paper Fig. 4a).
  std::vector<PairOrder> orders = reduce_transitive(
      derive_pair_orders(c, start, std::numeric_limits<double>::infinity()),
      n);

  IlpResult result{netlist::Placement(c)};
  result.proven_optimal = true;  // AND over the MILP answers below
  if (opts_.deadline.expired()) {
    result.outcome = aplace::Status::budget_exhausted(
        "time budget expired before ILP legalization started");
    return result;
  }
  if (opts_.cancel.cancelled()) {
    result.outcome =
        aplace::Status::cancelled("ILP legalization cancelled before it ran");
    return result;
  }
  std::vector<int> vx(n), vy(n), vfx(n, -1), vfy(n, -1);

  // Direction refinement: solve, re-derive every pair's direction from the
  // solved (legal) placement, re-solve. A legal placement always satisfies
  // its own re-derived constraints, so the objective is non-increasing;
  // stop at the first round without improvement.
  double best_obj = std::numeric_limits<double>::infinity();
  bool have_solution = false;
  std::vector<geom::Orientation> fixed_flips;
  for (int round = 0; round < opts_.refine_rounds; ++round) {
    if (round > 0 &&
        (opts_.deadline.expired() || opts_.cancel.cancelled())) {
      break;
    }
    // Round 0 decides the flipping binaries by branch-and-bound; later
    // refinement rounds keep them fixed so each round is a single LP.
    solver::MilpSolution sol =
        solve_round(orders, round == 0 ? nullptr : &fixed_flips, vx, vy, vfx,
                    vfy, result);
    if (!sol.ok()) {
      if (!have_solution) {
        // Nothing usable yet: report why instead of handing back the
        // default (origin pile-up) placement with only an LpStatus flag.
        result.outcome =
            sol.deadline_hit
                ? aplace::Status::budget_exhausted(
                      "branch-and-bound hit the time budget before finding "
                      "an integral solution")
                : status_from_lp(sol.status, "ILP legalization round 0");
        return result;
      }
      // A later refinement round failed; the placement from the previous
      // round is still valid — restore its status instead of leaking the
      // failed trial's (previously this returned a good placement marked
      // Infeasible).
      break;
    }
    if (round == 0 && opts_.enable_flipping) {
      fixed_flips.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        fixed_flips[i] = {vfx[i] >= 0 && sol.x[vfx[i]] > 0.5,
                          vfy[i] >= 0 && sol.x[vfy[i]] > 0.5};
      }
    }
    if (sol.objective >= best_obj - 1e-9) break;
    best_obj = sol.objective;
    finish_placement(sol, vx, vy, vfx, vfy, result);
    have_solution = true;

    std::vector<double> pos(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      pos[i] = sol.x[vx[i]] * gu;
      pos[n + i] = sol.x[vy[i]] * gu;
    }
    std::vector<PairOrder> next = reduce_transitive(
        derive_pair_orders(c, pos, std::numeric_limits<double>::infinity()),
        n);
    // Unchanged orders with the flips already fixed (every round after
    // round 0, or round 0 itself when nothing flips) make the next round's
    // LP this round's LP again: it could only repeat this objective and
    // stop, so stop without solving it.
    const bool same_lp =
        (round > 0 || !opts_.enable_flipping) && next == orders;
    orders = std::move(next);
    if (same_lp) break;
  }

  // --- critical-chain reshaping ------------------------------------------------
  // The layout extents are set by chains of binding separation constraints,
  // so the objective is insensitive to mu once directions are fixed. Try
  // flipping one edge of the binding chain of the larger extent from
  // horizontal to vertical (or vice versa) and keep the move when the
  // objective improves. Each attempt is a single LP (flips stay fixed).
  if (!have_solution) {
    result.outcome = aplace::Status::internal(
        "ILP legalization produced no solution (refine_rounds <= 0?)");
    return result;
  }
  for (int attempt = 0; attempt < opts_.reshape_attempts; ++attempt) {
    if (opts_.deadline.expired() || opts_.cancel.cancelled()) break;
    std::vector<double> pos(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Point p = result.placement.position(DeviceId{i});
      pos[i] = p.x;
      pos[n + i] = p.y;
    }
    const geom::Rect bb = result.placement.bounding_box();
    const bool shrink_w = bb.width() >= bb.height();

    // Walk the binding chain of the critical dimension from its far edge.
    const std::span<const double> ext_arr =
        shrink_w ? compiled_->dev_width() : compiled_->dev_height();
    const auto extent = [&](std::size_t i) { return ext_arr[i]; };
    const auto coord = [&](std::size_t i) {
      return shrink_w ? pos[i] : pos[n + i];
    };
    std::size_t cur = 0;
    double far_edge = -1e300;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = coord(i) + extent(i) / 2;
      if (e > far_edge) {
        far_edge = e;
        cur = i;
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>> chain;  // (pred, succ)
    result.reshape_chain_len = 0;
    for (std::size_t guard = 0; guard < n; ++guard) {
      std::size_t pred = n;
      for (const PairOrder& po : orders) {
        if (po.horizontal != shrink_w) continue;
        if (po.right_or_top.index() != cur) continue;
        const std::size_t a = po.left_or_bottom.index();
        if (coord(a) + (extent(a) + extent(cur)) / 2 >= coord(cur) - 1e-6) {
          pred = a;
          break;
        }
      }
      if (pred == n) break;
      chain.emplace_back(pred, cur);
      ++result.reshape_chain_len;
      cur = pred;
    }

    bool improved = false;
    for (auto [a, b] : chain) {
      if (forced_direction(c, DeviceId{a}, DeviceId{b}).has_value()) continue;
      // Candidate: same edge, perpendicular direction, order by position.
      std::vector<PairOrder> trial = orders;
      for (PairOrder& po : trial) {
        const std::size_t x = po.left_or_bottom.index();
        const std::size_t y = po.right_or_top.index();
        if ((x == a && y == b) || (x == b && y == a)) {
          po.horizontal = !shrink_w;
          const std::size_t lo =
              (shrink_w ? pos[n + a] <= pos[n + b] : pos[a] <= pos[b]) ? a : b;
          po.left_or_bottom = DeviceId{lo};
          po.right_or_top = DeviceId{lo == a ? b : a};
          break;
        }
      }
      solver::MilpSolution sol =
          solve_round(trial, opts_.enable_flipping ? &fixed_flips : nullptr,
                      vx, vy, vfx, vfy, result);
      if (sol.ok() && sol.objective < best_obj - 1e-9) {
        // The flipped edge may have carried transitive implications, so
        // verify the trial is actually overlap-free before accepting.
        IlpResult trial_result{netlist::Placement(c)};
        trial_result.status = sol.status;
        finish_placement(sol, vx, vy, vfx, vfy, trial_result);
        if (!netlist::Evaluator(c).evaluate(trial_result.placement).legal(
                1e-6)) {
          continue;
        }
        best_obj = sol.objective;
        finish_placement(sol, vx, vy, vfx, vfy, result);
        std::vector<double> npos(2 * n);
        for (std::size_t i = 0; i < n; ++i) {
          npos[i] = sol.x[vx[i]] * gu;
          npos[n + i] = sol.x[vy[i]] * gu;
        }
        orders = reduce_transitive(
            derive_pair_orders(c, npos,
                               std::numeric_limits<double>::infinity()),
            n);
        improved = true;
        ++result.reshape_accepted;
        break;
      }
    }
    if (!improved) break;
  }
  // --- final flip re-optimization ------------------------------------------------
  // The binaries were decided against the round-0 arrangement; refinement
  // and reshaping may have changed the topology enough that different flips
  // now win. One more branch-and-bound pass with the final direction set.
  if (opts_.enable_flipping && opts_.refine_rounds > 1 &&
      !opts_.deadline.expired() && !opts_.cancel.cancelled()) {
    // Small node budget: the relaxation is usually near-integral by now.
    solver::MilpSolution sol =
        solve_round(orders, nullptr, vx, vy, vfx, vfy, result, 8);
    if (sol.ok() && sol.objective < best_obj - 1e-9) {
      best_obj = sol.objective;
      finish_placement(sol, vx, vy, vfx, vfy, result);
    }
  }

  // Restore the best solution's status (reshape trials may have left a
  // rejected trial's status behind).
  result.status = solver::LpStatus::Optimal;
  result.objective = best_obj;
  result.outcome = {};
  return result;
}

solver::MilpSolution IlpDetailedPlacer::solve_round(
    const std::vector<PairOrder>& orders,
    const std::vector<geom::Orientation>* fixed_flips, std::vector<int>& vx,
    std::vector<int>& vy, std::vector<int>& vfx, std::vector<int>& vfy,
    IlpResult& result, long max_nodes) const {
  const netlist::Circuit& c = compiled_->circuit();
  const netlist::CompiledCircuit& cc = *compiled_;
  const std::size_t n = cc.num_devices();
  const double gu = opts_.grid_pitch;
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();

  // W~ = H~ = sqrt(sum s_i / zeta) in grid units (paper constants).
  double total_area_gu = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_area_gu += (dev_w[i] / gu) * (dev_h[i] / gu);
  }
  const double wh_tilde = std::sqrt(total_area_gu / opts_.utilization);

  vfx.assign(n, -1);
  vfy.assign(n, -1);
  // The flipping and net-box variables and the (4b)+(4d) rows go in ahead
  // of the shared layout rows: the variable and row order fixes the MILP's
  // pivots and so its placements.
  auto add_flips_and_nets = [&](LayoutLp& s) {
    solver::LpProblem& lp = s.lp;
    if (opts_.enable_flipping) {
      // A flip variable only matters when some pin is offset from the
      // device center line in that dimension; otherwise skip it (fewer
      // binaries).
      std::vector<char> fx_useful(n, 0), fy_useful(n, 0);
      const std::span<const std::uint32_t> pdev = cc.pin_device();
      const std::span<const double> pox = cc.pin_offset_x();
      const std::span<const double> poy = cc.pin_offset_y();
      for (std::size_t p = 0; p < cc.num_pins(); ++p) {
        const std::uint32_t i = pdev[p];
        if (std::abs(dev_w[i] - 2 * pox[p]) > 1e-12) fx_useful[i] = 1;
        if (std::abs(dev_h[i] - 2 * poy[p]) > 1e-12) fy_useful[i] = 1;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& name = c.device(DeviceId{i}).name;
        if (fx_useful[i]) {
          vfx[i] = lp.add_variable(0, 1, 0.0, name + ".fx");
          if (fixed_flips == nullptr) {
            lp.set_integer(vfx[i]);
          } else {
            const double f = (*fixed_flips)[i].flip_x ? 1.0 : 0.0;
            lp.set_bounds(vfx[i], f, f);
          }
        }
        if (fy_useful[i]) {
          vfy[i] = lp.add_variable(0, 1, 0.0, name + ".fy");
          if (fixed_flips == nullptr) {
            lp.set_integer(vfy[i]);
          } else {
            const double f = (*fixed_flips)[i].flip_y ? 1.0 : 0.0;
            lp.set_bounds(vfy[i], f, f);
          }
        }
      }
    }
    // Net bounding boxes (xmin, xmax, ymin, ymax).
    const std::size_t ne = cc.num_nets();
    const std::span<const double> net_weight = cc.net_weight();
    std::vector<std::array<int, 4>> vnet(ne);
    for (std::size_t e = 0; e < ne; ++e) {
      const double w = net_weight[e];
      const std::string& name = c.net(NetId{e}).name;
      vnet[e][0] = lp.add_variable(0, solver::kInf, -w, name + ".xmin");
      vnet[e][1] = lp.add_variable(0, solver::kInf, +w, name + ".xmax");
      vnet[e][2] = lp.add_variable(0, solver::kInf, -w, name + ".ymin");
      vnet[e][3] = lp.add_variable(0, solver::kInf, +w, name + ".ymax");
    }

    // ---- (4b)+(4d): net bounds over pin positions with flipping -------------
    const std::span<const std::uint32_t> pin_device = cc.pin_device();
    const std::span<const double> pin_off_x = cc.pin_offset_x();
    const std::span<const double> pin_off_y = cc.pin_offset_y();
    for (std::size_t e = 0; e < ne; ++e) {
      for (std::uint32_t pid : cc.net_pins(e)) {
        const std::size_t i = pin_device[pid];
        // Offsets from the device *center* in grid units; flipping adds
        // f * (w - 2*xpin).
        const double cx = (pin_off_x[pid] - dev_w[i] / 2) / gu;
        const double cy = (pin_off_y[pid] - dev_h[i] / 2) / gu;
        const double dx = (dev_w[i] - 2 * pin_off_x[pid]) / gu;
        const double dy = (dev_h[i] - 2 * pin_off_y[pid]) / gu;

        auto bound = [&](int vmin, int vmax, int vpos, int vflip, double c0,
                         double dflip) {
          std::vector<solver::LpTerm> lo{{vmin, 1.0}, {vpos, -1.0}};
          std::vector<solver::LpTerm> hi{{vpos, 1.0}, {vmax, -1.0}};
          if (vflip >= 0 && dflip != 0.0) {
            lo.push_back({vflip, -dflip});
            hi.push_back({vflip, +dflip});
          }
          lp.add_constraint(std::move(lo), solver::Relation::LessEq, c0);
          lp.add_constraint(std::move(hi), solver::Relation::LessEq, -c0);
        };
        bound(vnet[e][0], vnet[e][1], s.vx[i], vfx[i], cx, dx);
        bound(vnet[e][2], vnet[e][3], s.vy[i], vfy[i], cy, dy);
      }
    }
  };
  LayoutLp layout = build_layout_lp(cc, orders, gu, opts_.mu * wh_tilde / 2.0,
                                    add_flips_and_nets);
  vx = std::move(layout.vx);
  vy = std::move(layout.vy);

  // ---- solve -------------------------------------------------------------------
  solver::MilpOptions mopts;
  mopts.max_nodes = max_nodes > 0 ? max_nodes : opts_.max_nodes;
  mopts.deadline = opts_.deadline;
  mopts.cancel = opts_.cancel;
  solver::MilpSolution sol = solver::solve_milp(layout.lp, mopts);
  result.status = sol.status;
  result.objective = sol.objective;
  result.bb_nodes += sol.nodes_explored;
  if (sol.ok()) {
    result.proven_optimal = result.proven_optimal && sol.proven_optimal;
    result.gap = std::max(result.gap, sol.gap);
  }
  return sol;
}

void IlpDetailedPlacer::finish_placement(const solver::MilpSolution& sol,
                                         const std::vector<int>& vx,
                                         const std::vector<int>& vy,
                                         const std::vector<int>& vfx,
                                         const std::vector<int>& vfy,
                                         IlpResult& result) const {
  const netlist::Circuit& c = compiled_->circuit();
  const std::size_t n = c.num_devices();
  const double gu = opts_.grid_pitch;

  auto build_placement = [&](bool snap) {
    netlist::Placement pl(c);
    for (std::size_t i = 0; i < n; ++i) {
      double x = sol.x[vx[i]];
      double y = sol.x[vy[i]];
      if (snap) {
        x = std::round(x);
        y = std::round(y);
      }
      pl.set_position(DeviceId{i}, {x * gu, y * gu});
      if (opts_.enable_flipping) {
        pl.set_orientation(DeviceId{i},
                           {vfx[i] >= 0 && sol.x[vfx[i]] > 0.5,
                            vfy[i] >= 0 && sol.x[vfy[i]] > 0.5});
      }
    }
    pl.normalize_to_origin();
    return pl;
  };

  // Snap to the grid; keep the raw (feasible) solution if snapping breaks
  // legality (possible when the LP optimum is fractional).
  const netlist::Evaluator eval(c);
  netlist::Placement snapped = build_placement(true);
  if (eval.evaluate(snapped).legal(1e-6)) {
    result.placement = std::move(snapped);
    result.snapped = true;
  } else {
    result.placement = build_placement(false);
    result.snapped = false;
  }
}

}  // namespace aplace::legal
