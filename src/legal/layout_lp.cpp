#include "legal/layout_lp.hpp"

#include <algorithm>

namespace aplace::legal {

using solver::Relation;

LayoutLp build_layout_lp(const netlist::CompiledCircuit& cc,
                         const std::vector<PairOrder>& orders,
                         double grid_pitch, double extent_cost,
                         const std::function<void(LayoutLp&)>& before_rows) {
  const netlist::Circuit& c = cc.circuit();
  const std::size_t n = cc.num_devices();
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();
  const double inf = solver::kInf;
  auto gw = [&](std::size_t d) { return dev_w[d] / grid_pitch; };
  auto gh = [&](std::size_t d) { return dev_h[d] / grid_pitch; };

  LayoutLp s;
  solver::LpProblem& lp = s.lp;
  s.vx.resize(n);
  s.vy.resize(n);
  double max_w = 0, max_h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s.vx[i] =
        lp.add_variable(gw(i) / 2, inf, 0.0, c.device(DeviceId{i}).name + ".x");
    s.vy[i] =
        lp.add_variable(gh(i) / 2, inf, 0.0, c.device(DeviceId{i}).name + ".y");
    max_w = std::max(max_w, gw(i));
    max_h = std::max(max_h, gh(i));
  }
  s.vW = lp.add_variable(max_w, inf, extent_cost, "W");
  s.vH = lp.add_variable(max_h, inf, extent_cost, "H");
  if (before_rows) before_rows(s);
  const std::vector<int>& vx = s.vx;
  const std::vector<int>& vy = s.vy;

  // ---- (4c): die extents ----------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    lp.add_constraint({{vx[i], 1.0}, {s.vW, -1.0}}, Relation::LessEq,
                      -gw(i) / 2);
    lp.add_constraint({{vy[i], 1.0}, {s.vH, -1.0}}, Relation::LessEq,
                      -gh(i) / 2);
  }

  // ---- (4e)+(4i): pairwise separation ---------------------------------------
  for (const PairOrder& po : orders) {
    const std::size_t a = po.left_or_bottom.index();
    const std::size_t b = po.right_or_top.index();
    if (po.horizontal) {
      lp.add_constraint({{vx[a], 1.0}, {vx[b], -1.0}}, Relation::LessEq,
                        -(gw(a) + gw(b)) / 2);
    } else {
      lp.add_constraint({{vy[a], 1.0}, {vy[b], -1.0}}, Relation::LessEq,
                        -(gh(a) + gh(b)) / 2);
    }
  }

  // ---- (4f): hard symmetry --------------------------------------------------
  for (std::size_t g = 0; g < cc.num_symmetry_groups(); ++g) {
    const bool vert = cc.sym_axis(g) == netlist::Axis::Vertical;
    const int vm = lp.add_variable(0, inf, 0.0, "axis");
    auto mir_var = [&](std::size_t d) { return vert ? vx[d] : vy[d]; };
    auto ort_var = [&](std::size_t d) { return vert ? vy[d] : vx[d]; };
    const std::span<const std::uint32_t> pa = cc.sym_pair_a(g);
    const std::span<const std::uint32_t> pb = cc.sym_pair_b(g);
    for (std::size_t k = 0; k < pa.size(); ++k) {
      lp.add_constraint(
          {{mir_var(pa[k]), 1.0}, {mir_var(pb[k]), 1.0}, {vm, -2.0}},
          Relation::Equal, 0.0);
      lp.add_constraint({{ort_var(pa[k]), 1.0}, {ort_var(pb[k]), -1.0}},
                        Relation::Equal, 0.0);
    }
    for (std::uint32_t d : cc.sym_self(g)) {
      lp.add_constraint({{mir_var(d), 1.0}, {vm, -1.0}}, Relation::Equal,
                        0.0);
    }
  }

  // ---- (4g)+(4h): alignment -------------------------------------------------
  for (std::size_t k = 0; k < cc.num_alignments(); ++k) {
    const std::size_t a = cc.align_a()[k], b = cc.align_b()[k];
    switch (cc.align_kind()[k]) {
      case netlist::AlignmentKind::Bottom:
        lp.add_constraint({{vy[a], 1.0}, {vy[b], -1.0}}, Relation::Equal,
                          (gh(a) - gh(b)) / 2);
        break;
      case netlist::AlignmentKind::VerticalCenter:
        lp.add_constraint({{vx[a], 1.0}, {vx[b], -1.0}}, Relation::Equal,
                          0.0);
        break;
      case netlist::AlignmentKind::HorizontalCenter:
        lp.add_constraint({{vy[a], 1.0}, {vy[b], -1.0}}, Relation::Equal,
                          0.0);
        break;
    }
  }

  // ---- common centroid: diagonal-sum equalities -----------------------------
  for (std::size_t q = 0; q < cc.num_centroids(); ++q) {
    const std::size_t a1 = cc.cent_a1()[q], a2 = cc.cent_a2()[q];
    const std::size_t b1 = cc.cent_b1()[q], b2 = cc.cent_b2()[q];
    lp.add_constraint(
        {{vx[a1], 1.0}, {vx[a2], 1.0}, {vx[b1], -1.0}, {vx[b2], -1.0}},
        Relation::Equal, 0.0);
    lp.add_constraint(
        {{vy[a1], 1.0}, {vy[a2], 1.0}, {vy[b1], -1.0}, {vy[b2], -1.0}},
        Relation::Equal, 0.0);
  }
  return s;
}

}  // namespace aplace::legal
