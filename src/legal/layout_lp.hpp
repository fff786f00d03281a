#pragma once
// The hard-constraint LP shared by both LP legalizers. The single-stage ILP
// (paper Eq. 4a-4j) and the two-stage LP of prior work [11] place device
// centers, in grid units, under the same rows: die extents (4c), pairwise
// separation (4e/4i), symmetry about one axis variable per group (4f),
// alignment (4g/4h) and common-centroid diagonal sums.

#include <functional>
#include <vector>

#include "legal/relative_order.hpp"
#include "netlist/compiled.hpp"
#include "solver/lp.hpp"

namespace aplace::legal {

struct LayoutLp {
  solver::LpProblem lp;
  std::vector<int> vx, vy;  ///< device-center variables
  int vW = -1, vH = -1;     ///< layout extents
};

/// Adds the x/y variables of every device, then W and H at `extent_cost`
/// each, then calls `before_rows` (when set) so a caller can add its own
/// variables and rows ahead of the shared ones, then adds the shared rows
/// for `orders`. Variable and row order is fixed, so the LP's pivots are.
[[nodiscard]] LayoutLp build_layout_lp(
    const netlist::CompiledCircuit& cc, const std::vector<PairOrder>& orders,
    double grid_pitch, double extent_cost,
    const std::function<void(LayoutLp&)>& before_rows = {});

}  // namespace aplace::legal
