#pragma once
// Options shared by both analytical global placers. EPlaceGpOptions and
// NtuGpOptions extend this struct, so call sites keep flat field access
// (opts.gp.seed, opts.gp.utilization, ...) while the common knobs are
// declared — and documented — exactly once.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "base/cancel.hpp"
#include "base/deadline.hpp"

namespace aplace::gp {

class ObjectiveTerm;

struct GpCommonOptions {
  std::size_t bins = 32;        ///< density bins per side
  double utilization = 0.55;    ///< region side = sqrt(total area / util)
  /// Stop once density overflow drops below this (the detailed placer
  /// removes the residual). ePlace-A hands off earlier (0.18 default); the
  /// prior-work flow runs its outer loop down to 0.07.
  double stop_overflow = 0.18;

  double tau_rel = 0.04;      ///< initial symmetry weight (vs. WL gradient)
  double tau_growth = 1.04;   ///< symmetry/alignment/ordering growth per
                              ///< outer iteration (1.5 for prior work)
  double align_rel = 0.08;    ///< alignment weight, tied to the tau scale
  double order_rel = 0.08;    ///< ordering weight, tied to the tau scale
  double boundary_rel = 2.0;  ///< boundary hinge vs. WL gradient per bin
  double extra_rel = 2.0;     ///< extra-term (GNN) weight vs. WL gradient
  /// One more objective term (e.g. gnn::PhiTerm for the performance-driven
  /// flows), registered last. A term keeps per-run scratch, so concurrent
  /// placers each need their own.
  std::shared_ptr<ObjectiveTerm> extra_term;

  std::uint64_t seed = 3;  ///< initial-spread jitter
  /// Wall-clock budget shared with the rest of the flow.
  Deadline deadline;
  /// Cooperative cancellation, polled wherever the deadline is polled
  /// (multi-start loop, outer loop, every inner solver iteration).
  base::CancelToken cancel;
};

}  // namespace aplace::gp
