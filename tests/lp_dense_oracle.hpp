#pragma once
// Test-only reference LP solver: the original dense two-phase tableau
// simplex, kept verbatim as the oracle for the production kernel in
// src/solver/lp.cpp.
//
// The production kernel takes exactly the same pivot sequence (Dantzig
// pricing, Bland after a degeneracy streak, lowest-basis tie-break in the
// ratio test); it only skips the arithmetic on structurally zero entries.
// Its answers must therefore match this oracle's status and pivot count
// exactly and its x/objective bit for bit, up to the sign of zero.

#include "solver/lp.hpp"

namespace aplace::solver::oracle {

/// Dense-tableau solve of the LP relaxation (integrality marks ignored).
[[nodiscard]] LpSolution solve_lp_dense(const LpProblem& p,
                                        SimplexOptions opts = {});

}  // namespace aplace::solver::oracle
