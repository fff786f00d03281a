#include "legal/two_stage_lp.hpp"

#include <cmath>
#include <limits>

#include "legal/layout_lp.hpp"
#include "legal/projection.hpp"
#include "legal/relative_order.hpp"
#include "netlist/evaluator.hpp"

namespace aplace::legal {

using solver::Relation;

TwoStageLpLegalizer::TwoStageLpLegalizer(
    std::shared_ptr<const netlist::CompiledCircuit> compiled,
    TwoStageOptions opts)
    : compiled_(std::move(compiled)), opts_(opts) {
  APLACE_CHECK(opts.grid_pitch > 0);
  APLACE_CHECK(opts.area_slack >= 1.0);
}

TwoStageResult TwoStageLpLegalizer::place(
    std::span<const double> gp_positions) const {
  const netlist::Circuit& c = compiled_->circuit();
  const std::size_t n = c.num_devices();
  APLACE_CHECK(gp_positions.size() == 2 * n);

  std::vector<double> start(gp_positions.begin(), gp_positions.end());
  sanitize_positions(c, start);
  project_symmetry(c, start);
  project_ordering(c, start);
  project_centroid(c, start);
  std::vector<PairOrder> orders = reduce_transitive(
      derive_pair_orders(c, start, std::numeric_limits<double>::infinity()),
      n);

  TwoStageResult result{netlist::Placement(c)};
  if (opts_.deadline.expired()) {
    result.outcome = aplace::Status::budget_exhausted(
        "time budget expired before two-stage LP legalization started");
    return result;
  }
  if (opts_.cancel.cancelled()) {
    result.outcome = aplace::Status::cancelled(
        "two-stage LP legalization cancelled before it ran");
    return result;
  }
  // Direction refinement, area-first (matching [11]'s two-stage priority):
  // re-derive every pair's direction from the solved placement and re-run
  // while the lexicographic (extents, wirelength) score improves.
  double best_score = std::numeric_limits<double>::infinity();
  TwoStageResult best = result;
  for (int round = 0; round < opts_.refine_rounds; ++round) {
    if (round > 0 &&
        (opts_.deadline.expired() || opts_.cancel.cancelled())) {
      break;
    }
    if (!run_stages(orders, result)) {
      if (round == 0) return result;  // propagate first-round failure
      break;  // keep `best` from the previous round
    }
    const double hpwl = result.placement.total_hpwl();
    const double score =
        1e4 * (result.stage1_width + result.stage1_height) + hpwl;
    if (score >= best_score - 1e-9) break;
    best_score = score;
    best = result;

    std::vector<double> pos(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Point p = result.placement.position(DeviceId{i});
      pos[i] = p.x;
      pos[n + i] = p.y;
    }
    orders = reduce_transitive(
        derive_pair_orders(c, pos, std::numeric_limits<double>::infinity()),
        n);
  }
  return best;
}

bool TwoStageLpLegalizer::run_stages(const std::vector<PairOrder>& orders,
                                     TwoStageResult& result) const {
  const netlist::Circuit& c = compiled_->circuit();
  const std::size_t n = c.num_devices();
  const double gu = opts_.grid_pitch;

  // ---- stage 1: area compaction (min W + H) ---------------------------------
  LayoutLp s1 = build_layout_lp(*compiled_, orders, gu, /*extent_cost=*/1.0);
  const solver::LpSolution sol1 = solve_lp(s1.lp);
  result.status = sol1.status;
  if (!sol1.ok()) {
    result.outcome = status_from_lp(sol1.status, "stage-1 area LP");
    return false;
  }
  const double W1 = sol1.x[s1.vW];
  const double H1 = sol1.x[s1.vH];
  result.stage1_width = W1;
  result.stage1_height = H1;

  // ---- stage 2: wirelength under the compacted extents -----------------------
  LayoutLp s2 = build_layout_lp(*compiled_, orders, gu, /*extent_cost=*/0.0);
  solver::LpProblem& lp = s2.lp;
  lp.add_constraint({{s2.vW, 1.0}}, Relation::LessEq,
                    W1 * opts_.area_slack + 1e-9);
  lp.add_constraint({{s2.vH, 1.0}}, Relation::LessEq,
                    H1 * opts_.area_slack + 1e-9);

  const netlist::CompiledCircuit& cc = *compiled_;
  const std::span<const double> net_weight = cc.net_weight();
  const std::span<const std::uint32_t> pin_device = cc.pin_device();
  const std::span<const double> pin_off_x = cc.pin_offset_x();
  const std::span<const double> pin_off_y = cc.pin_offset_y();
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();
  const std::size_t ne = cc.num_nets();
  for (std::size_t e = 0; e < ne; ++e) {
    const double weight = net_weight[e];
    const int vxmin = lp.add_variable(0, solver::kInf, -weight, "");
    const int vxmax = lp.add_variable(0, solver::kInf, +weight, "");
    const int vymin = lp.add_variable(0, solver::kInf, -weight, "");
    const int vymax = lp.add_variable(0, solver::kInf, +weight, "");
    for (std::uint32_t pid : cc.net_pins(e)) {
      const std::size_t i = pin_device[pid];
      const double cx = (pin_off_x[pid] - dev_w[i] / 2) / gu;
      const double cy = (pin_off_y[pid] - dev_h[i] / 2) / gu;
      lp.add_constraint({{vxmin, 1.0}, {s2.vx[i], -1.0}}, Relation::LessEq,
                        cx);
      lp.add_constraint({{s2.vx[i], 1.0}, {vxmax, -1.0}}, Relation::LessEq,
                        -cx);
      lp.add_constraint({{vymin, 1.0}, {s2.vy[i], -1.0}}, Relation::LessEq,
                        cy);
      lp.add_constraint({{s2.vy[i], 1.0}, {vymax, -1.0}}, Relation::LessEq,
                        -cy);
    }
  }

  const solver::LpSolution sol2 = solve_lp(lp);
  result.status = sol2.status;
  if (!sol2.ok()) {
    result.outcome = status_from_lp(sol2.status, "stage-2 wirelength LP");
    return false;
  }

  const netlist::Evaluator eval(c);
  auto build = [&](bool snap) {
    netlist::Placement pl(c);
    for (std::size_t i = 0; i < n; ++i) {
      double x = sol2.x[s2.vx[i]];
      double y = sol2.x[s2.vy[i]];
      if (snap) {
        x = std::round(x);
        y = std::round(y);
      }
      pl.set_position(DeviceId{i}, {x * gu, y * gu});
    }
    pl.normalize_to_origin();
    return pl;
  };
  netlist::Placement snapped = build(true);
  if (eval.evaluate(snapped).legal(1e-6)) {
    result.placement = std::move(snapped);
  } else {
    result.placement = build(false);
  }
  result.outcome = {};
  return true;
}

}  // namespace aplace::legal
