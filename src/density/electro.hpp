#pragma once
// Electrostatics-based density system (ePlace, Lu et al. TCAD'15).
//
// Devices are positive charges with magnitude = footprint area. The charge
// density rho on a bin grid drives a Poisson solve with Neumann boundary
// conditions via 2D DCT (numeric/spectral):
//
//   a_{u,v}   = DCT2(rho)
//   psi_{x,y} = sum a_{u,v} / (w_u^2 + w_v^2) cos(w_u x) cos(w_v y)
//   E_x       = sum a_{u,v} w_u / (w_u^2 + w_v^2) sin(..) cos(..)
//
// with w_u = pi*u/M in bin units ((u,v) = (0,0) excluded, which implicitly
// removes the mean charge as Neumann solvability requires). The potential
// energy N(v) = 1/2 sum_i q_i psi(x_i) is the smoothed overlap term of the
// placement objective; its gradient w.r.t. a device center is -q_i * E
// averaged over the device footprint. The footprints that splat the
// charge also average the potential, so N = (A_bin/2) sum_b rho_b psi_b
// whenever every footprint lies inside the region (its in-region overlap
// equals its area), and DCT orthogonality turns that into a sum over the
// coefficients:
//
//   N = (A_bin/2) Nx Ny sum_{(u,v) != 0} c_u c_v a_{u,v}^2 / w_{u,v}^2,
//   c_0 = 1, c_k = 1/2,
//
// so psi itself is never synthesized: each evaluation runs three 2D
// transforms (one analysis, two field syntheses). A device wider or taller
// than the region is centered and its footprint sticks out; the sum then
// weighs its potential average by the footprint area instead of the
// in-region overlap. The optimizer reads only the gradient; N feeds the
// objective traces.
//
// The bilinear splat and the force interpolation exist twice: the scalar
// per-bin reference (BinGrid::splat / overlap_area loops) and a 4-lane
// simd::Vec4d kernel that exploits separability — overlap(bin, rect) =
// ov_x(col) * ov_y(row) exactly — precomputing per-column overlaps once per
// device and streaming each bin row 4 columns at a time (cache-blocked by
// construction: rows are contiguous in the row-major matrices).
// An instance takes the path simd::default_enabled() names when it is
// constructed; both paths keep the chunk-ordered ThreadPool reduction, so
// each is bit-identical at any thread count, and they agree to <= 1e-12
// relative (tests/simd_test.cpp).

#include <memory>
#include <span>

#include "base/aligned.hpp"
#include "density/bin_grid.hpp"
#include "netlist/compiled.hpp"
#include "numeric/spectral.hpp"

namespace aplace::density {

class ElectroDensity {
 public:
  ElectroDensity(std::shared_ptr<const netlist::CompiledCircuit> compiled,
                 const geom::Rect& region, std::size_t nx, std::size_t ny);

  [[nodiscard]] const BinGrid& grid() const { return grid_; }

  /// Phase 1 of value_and_grad: splat charge + occupancy at v, normalize
  /// rho, refresh overflow(). Exposed so the splat kernel can be timed in
  /// isolation (bench_micro_kernels); value_and_grad calls it internally.
  void build_density(std::span<const double> v);

  /// Evaluate the potential energy N at v = (x.., y..) and *add*
  /// scale * dN/dv into grad. Also refreshes overflow(). Devices whose
  /// footprint has escaped the region are evaluated at the nearest
  /// in-region position, so they always feel a restoring density force.
  /// Allocation-free after construction.
  ///
  /// Circuits with more devices than the parallel grain run the charge
  /// accumulation and the force loop on the global thread pool. The device
  /// range is cut into fixed chunks (per-chunk density partials summed in
  /// chunk order), so results are bit-identical for every thread count.
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale);

  /// Density overflow after the last evaluation: sum over bins of
  /// max(0, occupancy - target*binArea) normalized by total device area.
  /// The classic ePlace stopping metric.
  [[nodiscard]] double overflow() const { return overflow_; }

  /// Last computed per-bin charge density (for tests / inspection).
  [[nodiscard]] const numeric::Matrix& rho() const { return rho_; }
  [[nodiscard]] const numeric::Matrix& field_x() const { return ex_; }
  [[nodiscard]] const numeric::Matrix& field_y() const { return ey_; }

 private:
  struct DeviceInfo {
    double w, h;        // effective (possibly inflated) footprint
    double charge;      // true area
    double real_w, real_h;
  };

  // Per-chunk SIMD scratch: padded per-column / per-row overlap lengths of
  // the device being processed (separable splat/force kernels).
  struct DevScratch {
    base::AlignedVec ovx, ovy;
  };

  /// Device center clamped so its inflated footprint stays inside the
  /// region (escaped devices are looked up at the nearest boundary bins).
  [[nodiscard]] geom::Point clamped_center(const geom::Point& c,
                                           const DeviceInfo& d) const;

  std::shared_ptr<const netlist::CompiledCircuit> compiled_;
  BinGrid grid_;
  numeric::spectral::Basis basis_x_, basis_y_;
  std::vector<DeviceInfo> devices_;
  bool use_simd_;  ///< simd::default_enabled() at construction

  // Scratch matrices reused across evaluations: value_and_grad performs no
  // heap allocation after construction (the Nesterov hot loop).
  numeric::Matrix rho_, ex_, ey_, occupancy_;
  double overflow_ = 1.0;

  // Parallel decomposition: devices are cut into fixed chunks of
  // kDeviceGrain (independent of thread count). Each chunk splats into its
  // own density/occupancy partial; the partials are summed in chunk order.
  // Small circuits have exactly one chunk and take the direct serial path.
  static constexpr std::size_t kDeviceGrain = 256;
  std::vector<numeric::Matrix> rho_part_, occ_part_;
  std::vector<DevScratch> scratch_;  // one per chunk (>= 1)
};

}  // namespace aplace::density
