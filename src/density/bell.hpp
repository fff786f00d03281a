#pragma once
// Bell-shaped density penalty (NTUplace3, Chen et al. TCAD'08) used by the
// prior-work analytical placer [11].
//
// Each device spreads a smooth "potential" over nearby bins via the
// separable bell function p(d) (quadratic core, quadratic tail, compact
// support); the penalty is sum_b max(0, D_b - M_b)^2 where D_b is the
// smoothed density of bin b and M_b one full bin's area: analog devices span
// many bins, so only density beyond a full bin is penalized. Normalization
// constants c_i keep each device's total contribution equal to its area and
// are treated as constants in the gradient (as in NTUplace3).
//
// The 2D bell is the product px(col) * py(row) of two 1D profiles, so each
// evaluation computes bell_value / bell_derivative once per support column
// and row of a device and forms every bin weight as a product. The sums
// keep the per-bin kernel's operands and order, so the value, gradient and
// overflow equal it bit for bit (tests/bell_density_oracle.{hpp,cpp} keeps
// that kernel as the oracle).

#include <memory>
#include <span>

#include "density/bin_grid.hpp"
#include "netlist/compiled.hpp"
#include "numeric/matrix.hpp"

namespace aplace::density {

/// Bell spreading profile for one dimension.
/// d = |center - bin_center|, w = device extent, wb = bin extent.
[[nodiscard]] double bell_value(double d, double w, double wb);
/// d(bell)/dd (negative for d > 0 inside the support).
[[nodiscard]] double bell_derivative(double d, double w, double wb);

class BellDensity {
 public:
  BellDensity(std::shared_ptr<const netlist::CompiledCircuit> compiled,
              const geom::Rect& region, std::size_t nx, std::size_t ny);

  [[nodiscard]] const BinGrid& grid() const { return grid_; }

  /// Penalty value at v; adds scale * gradient into grad. Refreshes
  /// overflow() (computed from true footprints, as in ElectroDensity).
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale);

  [[nodiscard]] double overflow() const { return overflow_; }

 private:
  /// Per-device bell support range on the bin grid.
  struct Support {
    std::size_t cx0, cx1, cy0, cy1;
  };

  std::shared_ptr<const netlist::CompiledCircuit> compiled_;
  BinGrid grid_;
  // Device footprints, viewing the compiled snapshot's flat arrays.
  std::span<const double> dev_w_, dev_h_, dev_area_;
  double overflow_ = 1.0;
  // Evaluation scratch, hoisted so the CG hot loop stays allocation-free.
  numeric::Matrix dmat_, occ_, resid_;
  std::vector<double> norm_;
  std::vector<Support> support_;
  // Separable profiles of the device being processed, indexed by bin
  // column / row over its support: bell value and derivative.
  std::vector<double> px_, dpx_, py_, dpy_;

  /// Fill px_/py_ (and dpx_/dpy_ when `derivatives`) of device i at (x, y)
  /// over its support s.
  void fill_profiles(std::size_t i, double x, double y, const Support& s,
                     bool derivatives);
};

}  // namespace aplace::density
