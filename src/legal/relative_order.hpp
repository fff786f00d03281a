#pragma once
// Pairwise separation directions derived from a global-placement solution
// (paper Fig. 4a): for every device pair, decide whether legalization should
// separate them horizontally or vertically, and in which order.
//
// Overlapping pairs use the paper's rule — overlap width dx < dy goes to the
// horizontal set P^H (cheapest push), otherwise vertical. Non-overlapping
// pairs keep their current separating dimension (larger gap wins) so the
// optimizer cannot create *new* overlaps while compacting.

#include <optional>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"

namespace aplace::legal {

struct PairOrder {
  DeviceId left_or_bottom;
  DeviceId right_or_top;
  bool horizontal = true;  ///< true: member of P^H, false: P^V

  friend bool operator==(const PairOrder&, const PairOrder&) = default;
};

/// Derive separation constraints for pairs that are overlapping or within
/// `proximity_margin` um of each other (the paper constrains only
/// overlapping pairs; the margin guards against near-misses). Pairs whose
/// direction is forced by a constraint group (symmetry / alignment /
/// ordering) are always included. Pass proximity_margin = infinity to
/// constrain every pair. Callers run lazy rounds: solve, detect any new
/// overlaps, extend with derive_single_order(), re-solve.
[[nodiscard]] std::vector<PairOrder> derive_pair_orders(
    const netlist::Circuit& circuit, std::span<const double> positions,
    double proximity_margin = 1.0);

/// Direction + order for one pair at the given positions (overlap rule).
[[nodiscard]] PairOrder derive_single_order(const netlist::Circuit& circuit,
                                            std::span<const double> positions,
                                            DeviceId a, DeviceId b);

/// Direction forced by a constraint group between two devices, if any:
/// true = must separate horizontally, false = vertically, nullopt = free.
[[nodiscard]] std::optional<bool> forced_direction(
    const netlist::Circuit& circuit, DeviceId a, DeviceId b);

/// Drop separation constraints implied transitively within one dimension:
/// a left-of b and b left-of c implies a left-of c with slack >= w_b > 0, so
/// the (a, c) edge is redundant. Cuts the all-pairs O(n^2) constraint set to
/// roughly the adjacency structure, which is what makes the LP/ILP solves
/// fast at analog sizes.
[[nodiscard]] std::vector<PairOrder> reduce_transitive(
    std::vector<PairOrder> orders, std::size_t num_devices);

}  // namespace aplace::legal
