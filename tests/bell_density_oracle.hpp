#pragma once
// Test-only reference bell density: the original per-bin NTUplace3 kernel,
// kept verbatim as the oracle for the separable production kernel in
// src/density/bell.cpp. Both build the occupancy with BinGrid::splat.
//
// The production kernel evaluates bell_value/bell_derivative once per
// support column and row instead of once per (row, column) pair; every
// product and sum keeps its operands and its order. Its value, gradient and overflow must
// therefore match this oracle bit for bit.

#include <span>

#include "density/bin_grid.hpp"
#include "netlist/compiled.hpp"

namespace aplace::density::oracle {

struct BellEval {
  double value = 0.0;
  double overflow = 0.0;
};

/// Per-bin bell penalty at v on `grid`; adds scale * gradient into grad
/// (same contract as BellDensity::value_and_grad).
[[nodiscard]] BellEval bell_value_and_grad(const netlist::CompiledCircuit& cc,
                                           const BinGrid& grid,
                                           std::span<const double> v,
                                           std::span<double> grad,
                                           double scale);

}  // namespace aplace::density::oracle
