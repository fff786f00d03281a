#include "legal/two_stage_lp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>

#include "legal/projection.hpp"
#include "legal/relative_order.hpp"
#include "netlist/evaluator.hpp"

namespace aplace::legal {
namespace {

using netlist::Axis;
using solver::LpTerm;
using solver::Relation;

// Shared constraint skeleton between the two stages.
struct Skeleton {
  solver::LpProblem lp;
  std::vector<int> vx, vy;
  int vW = -1, vH = -1;
};

Skeleton build_skeleton(const netlist::CompiledCircuit& cc,
                        const std::vector<PairOrder>& orders, double gu,
                        double extent_cost) {
  const netlist::Circuit& c = cc.circuit();
  const std::size_t n = cc.num_devices();
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();
  Skeleton s;
  s.vx.resize(n);
  s.vy.resize(n);
  const double inf = solver::kInf;
  auto gw = [&](std::size_t d) { return dev_w[d] / gu; };
  auto gh = [&](std::size_t d) { return dev_h[d] / gu; };

  double max_w = 0, max_h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s.vx[i] =
        s.lp.add_variable(gw(i) / 2, inf, 0.0, c.device(DeviceId{i}).name + ".x");
    s.vy[i] =
        s.lp.add_variable(gh(i) / 2, inf, 0.0, c.device(DeviceId{i}).name + ".y");
    max_w = std::max(max_w, gw(i));
    max_h = std::max(max_h, gh(i));
  }
  s.vW = s.lp.add_variable(max_w, inf, extent_cost, "W");
  s.vH = s.lp.add_variable(max_h, inf, extent_cost, "H");

  for (std::size_t i = 0; i < n; ++i) {
    s.lp.add_constraint({{s.vx[i], 1.0}, {s.vW, -1.0}}, Relation::LessEq,
                        -gw(i) / 2);
    s.lp.add_constraint({{s.vy[i], 1.0}, {s.vH, -1.0}}, Relation::LessEq,
                        -gh(i) / 2);
  }
  for (const PairOrder& po : orders) {
    const std::size_t a = po.left_or_bottom.index();
    const std::size_t b = po.right_or_top.index();
    if (po.horizontal) {
      s.lp.add_constraint({{s.vx[a], 1.0}, {s.vx[b], -1.0}}, Relation::LessEq,
                          -(gw(a) + gw(b)) / 2);
    } else {
      s.lp.add_constraint({{s.vy[a], 1.0}, {s.vy[b], -1.0}}, Relation::LessEq,
                          -(gh(a) + gh(b)) / 2);
    }
  }
  for (std::size_t g = 0; g < cc.num_symmetry_groups(); ++g) {
    const bool vert = cc.sym_axis(g) == Axis::Vertical;
    const int vm = s.lp.add_variable(0, inf, 0.0, "axis");
    auto mir_var = [&](std::size_t d) { return vert ? s.vx[d] : s.vy[d]; };
    auto ort_var = [&](std::size_t d) { return vert ? s.vy[d] : s.vx[d]; };
    const std::span<const std::uint32_t> pa = cc.sym_pair_a(g);
    const std::span<const std::uint32_t> pb = cc.sym_pair_b(g);
    for (std::size_t k = 0; k < pa.size(); ++k) {
      s.lp.add_constraint(
          {{mir_var(pa[k]), 1.0}, {mir_var(pb[k]), 1.0}, {vm, -2.0}},
          Relation::Equal, 0.0);
      s.lp.add_constraint({{ort_var(pa[k]), 1.0}, {ort_var(pb[k]), -1.0}},
                          Relation::Equal, 0.0);
    }
    for (std::uint32_t d : cc.sym_self(g)) {
      s.lp.add_constraint({{mir_var(d), 1.0}, {vm, -1.0}}, Relation::Equal,
                          0.0);
    }
  }
  for (std::size_t q = 0; q < cc.num_centroids(); ++q) {
    const std::size_t a1 = cc.cent_a1()[q], a2 = cc.cent_a2()[q];
    const std::size_t b1 = cc.cent_b1()[q], b2 = cc.cent_b2()[q];
    s.lp.add_constraint({{s.vx[a1], 1.0},
                         {s.vx[a2], 1.0},
                         {s.vx[b1], -1.0},
                         {s.vx[b2], -1.0}},
                        Relation::Equal, 0.0);
    s.lp.add_constraint({{s.vy[a1], 1.0},
                         {s.vy[a2], 1.0},
                         {s.vy[b1], -1.0},
                         {s.vy[b2], -1.0}},
                        Relation::Equal, 0.0);
  }
  for (std::size_t k = 0; k < cc.num_alignments(); ++k) {
    const std::size_t a = cc.align_a()[k], b = cc.align_b()[k];
    switch (cc.align_kind()[k]) {
      case netlist::AlignmentKind::Bottom:
        s.lp.add_constraint({{s.vy[a], 1.0}, {s.vy[b], -1.0}},
                            Relation::Equal, (gh(a) - gh(b)) / 2);
        break;
      case netlist::AlignmentKind::VerticalCenter:
        s.lp.add_constraint({{s.vx[a], 1.0}, {s.vx[b], -1.0}},
                            Relation::Equal, 0.0);
        break;
      case netlist::AlignmentKind::HorizontalCenter:
        s.lp.add_constraint({{s.vy[a], 1.0}, {s.vy[b], -1.0}},
                            Relation::Equal, 0.0);
        break;
    }
  }
  return s;
}

}  // namespace

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
  Skeleton s1 = build_skeleton(*compiled_, orders, gu, /*extent_cost=*/1.0);
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
  Skeleton s2 = build_skeleton(*compiled_, orders, gu, /*extent_cost=*/0.0);
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
