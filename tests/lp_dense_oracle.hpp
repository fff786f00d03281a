#pragma once
// Test-only reference LP solver: the original dense two-phase primal
// tableau simplex (Dantzig pricing, Bland after a degeneracy streak,
// lowest-basis tie-break in the ratio test), kept verbatim as the oracle
// for the dual simplex kernel in src/solver/lp.cpp.
//
// The two take different pivot paths and may stop at different optimal
// vertices of a degenerate program, so the kernel must match this oracle's
// status and optimal objective (to 1e-9 relative), not its vertex or its
// pivot count.

#include "solver/lp.hpp"

namespace aplace::solver::oracle {

/// Dense-tableau solve of the LP relaxation (integrality marks ignored).
[[nodiscard]] LpSolution solve_lp_dense(const LpProblem& p,
                                        SimplexOptions opts = {});

}  // namespace aplace::solver::oracle
