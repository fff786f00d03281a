#include "density/electro.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "base/simd.hpp"
#include "base/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::density {
namespace {

using base::padded4;
using simd::Vec4d;

// Per-column overlap lengths of `rect` against x-bins [c0, c1], written to
// ov[0..count) with zeroed pad lanes; mirrors bin_rect()/overlap_area()
// arithmetic exactly (min(xhi) - max(xlo), clamped at 0), so the separable
// product ov_x * ov_y is bit-identical to the scalar per-bin overlap.
std::size_t fill_overlaps(double region_lo, double bin_len, std::size_t b0,
                          std::size_t b1, double rect_lo, double rect_hi,
                          double* ov) {
  const std::size_t count = b1 - b0 + 1;
  for (std::size_t j = 0; j < count; ++j) {
    const double lo = region_lo + static_cast<double>(b0 + j) * bin_len;
    const double d = std::min(lo + bin_len, rect_hi) - std::max(lo, rect_lo);
    ov[j] = d > 0 ? d : 0.0;
  }
  for (std::size_t j = count; j < padded4(count); ++j) ov[j] = 0.0;
  return count;
}

// 4-lane separable splat: into(r, c) += (amount/area) * ov_y(r) * ov_x(c),
// streaming each bin row left to right (rows are contiguous in the
// row-major matrix, so this is cache-blocked by construction).
void splat_simd(const BinGrid& grid, const geom::Rect& rect, double amount,
                numeric::Matrix& into,
                std::pair<base::AlignedVec&, base::AlignedVec&> scratch) {
  if (rect.area() <= 0) return;
  const auto [cx0, cx1] = grid.x_range(rect.xlo(), rect.xhi());
  const auto [cy0, cy1] = grid.y_range(rect.ylo(), rect.yhi());
  double* ovx = scratch.first.data();
  double* ovy = scratch.second.data();
  const std::size_t nxd = fill_overlaps(grid.region().xlo(), grid.bin_w(),
                                        cx0, cx1, rect.xlo(), rect.xhi(), ovx);
  fill_overlaps(grid.region().ylo(), grid.bin_h(), cy0, cy1, rect.ylo(),
                rect.yhi(), ovy);
  const double per_area = amount / rect.area();
  for (std::size_t r = cy0; r <= cy1; ++r) {
    const double w = per_area * ovy[r - cy0];
    if (w <= 0) continue;
    double* row = &into(r, cx0);
    const Vec4d wv = Vec4d::broadcast(w);
    std::size_t j = 0;
    for (; j + 4 <= nxd; j += 4) {
      Vec4d::fma(wv, Vec4d::load(ovx + j), Vec4d::loadu(row + j))
          .storeu(row + j);
    }
    for (; j < nxd; ++j) row[j] += w * ovx[j];
  }
}

struct ForceAcc {
  double ex = 0, ey = 0, area = 0;
};

// 4-lane separable force interpolation: per-row dot products of the
// per-column overlaps against the ex/ey rows (two fused accumulators
// sharing one ovx load), each scaled by the row overlap; the overlapped
// area factors into (sum ov_x) * (sum ov_y).
ForceAcc force_simd(const BinGrid& grid, const numeric::Matrix& exm,
                    const numeric::Matrix& eym, const geom::Rect& rect,
                    std::pair<base::AlignedVec&, base::AlignedVec&> scratch) {
  ForceAcc acc;
  const auto [cx0, cx1] = grid.x_range(rect.xlo(), rect.xhi());
  const auto [cy0, cy1] = grid.y_range(rect.ylo(), rect.yhi());
  double* ovx = scratch.first.data();
  double* ovy = scratch.second.data();
  const std::size_t nxd = fill_overlaps(grid.region().xlo(), grid.bin_w(),
                                        cx0, cx1, rect.xlo(), rect.xhi(), ovx);
  const std::size_t nyd = fill_overlaps(grid.region().ylo(), grid.bin_h(),
                                        cy0, cy1, rect.ylo(), rect.yhi(), ovy);
  double sum_x = 0, sum_y = 0;
  for (std::size_t j = 0; j < nxd; ++j) sum_x += ovx[j];
  for (std::size_t j = 0; j < nyd; ++j) sum_y += ovy[j];
  acc.area = sum_x * sum_y;
  for (std::size_t r = 0; r < nyd; ++r) {
    const double wy = ovy[r];
    if (wy <= 0) continue;
    const std::size_t row_off = (cy0 + r) * exm.cols() + cx0;
    const double* xrow = exm.data().data() + row_off;
    const double* yrow = eym.data().data() + row_off;
    Vec4d ax = Vec4d::zero(), ay = Vec4d::zero();
    std::size_t j = 0;
    for (; j + 4 <= nxd; j += 4) {
      const Vec4d w = Vec4d::load(ovx + j);
      ax = Vec4d::fma(w, Vec4d::loadu(xrow + j), ax);
      ay = Vec4d::fma(w, Vec4d::loadu(yrow + j), ay);
    }
    if (j < nxd) {
      // Masked tail: ovx pad lanes are zero, matrix rows are loaded through
      // a partial copy so the read never crosses the row's end.
      const std::size_t rem = nxd - j;
      const Vec4d w = Vec4d::load(ovx + j);
      ax = Vec4d::fma(w, Vec4d::load_partial(xrow + j, rem), ax);
      ay = Vec4d::fma(w, Vec4d::load_partial(yrow + j, rem), ay);
    }
    acc.ex += wy * simd::hsum_ordered(ax);
    acc.ey += wy * simd::hsum_ordered(ay);
  }
  return acc;
}

}  // namespace

ElectroDensity::ElectroDensity(
    std::shared_ptr<const netlist::CompiledCircuit> compiled,
    const geom::Rect& region, std::size_t nx, std::size_t ny)
    : compiled_(std::move(compiled)),
      grid_(region, nx, ny),
      basis_x_(nx),
      basis_y_(ny),
      use_simd_(simd::default_enabled()),
      rho_(ny, nx),
      ex_(ny, nx),
      ey_(ny, nx),
      occupancy_(ny, nx) {
  // ePlace-style local smoothing: devices smaller than sqrt(2) * bin pitch
  // are inflated (charge preserved) so the density signal stays smooth.
  // The inflation depends on the bin grid, so this per-instance table stays
  // here; footprints come from the compiled flat arrays.
  const double min_w = std::numbers::sqrt2 * grid_.bin_w();
  const double min_h = std::numbers::sqrt2 * grid_.bin_h();
  devices_.reserve(compiled_->num_devices());
  for (std::size_t i = 0; i < compiled_->num_devices(); ++i) {
    DeviceInfo info;
    info.real_w = compiled_->dev_width()[i];
    info.real_h = compiled_->dev_height()[i];
    info.w = std::max(info.real_w, min_w);
    info.h = std::max(info.real_h, min_h);
    info.charge = compiled_->dev_area()[i];
    devices_.push_back(info);
  }
  // Per-chunk partials for the parallel splat (one chunk on the paper-scale
  // circuits, i.e. no extra memory and the direct serial path below).
  const std::size_t chunks =
      base::ThreadPool::chunk_count(devices_.size(), kDeviceGrain);
  if (chunks > 1) {
    rho_part_.assign(chunks, numeric::Matrix(ny, nx));
    occ_part_.assign(chunks, numeric::Matrix(ny, nx));
  }
  scratch_.resize(std::max<std::size_t>(chunks, 1));
  for (DevScratch& s : scratch_) {
    s.ovx.resize(padded4(nx));
    s.ovy.resize(padded4(ny));
  }
}

geom::Point ElectroDensity::clamped_center(const geom::Point& c,
                                           const DeviceInfo& d) const {
  const geom::Rect& rg = grid_.region();
  auto clamp1 = [](double v, double lo, double hi) {
    // A device larger than the region has lo > hi: center it.
    return lo <= hi ? std::clamp(v, lo, hi) : 0.5 * (lo + hi);
  };
  return {clamp1(c.x, rg.xlo() + d.w / 2, rg.xhi() - d.w / 2),
          clamp1(c.y, rg.ylo() + d.h / 2, rg.yhi() - d.h / 2)};
}

void ElectroDensity::build_density(std::span<const double> v) {
  const std::size_t n = devices_.size();
  APLACE_DCHECK(v.size() == 2 * n);

  // Clamp the lookup position into the region: a device dragged outside
  // by the wirelength pull still deposits charge into the boundary bins
  // (and in the force pass, samples the field there), so its Neumann mirror
  // image produces the force that pulls it back inside.
  const bool use_simd = use_simd_;
  auto splat_range = [&](std::size_t lo, std::size_t hi, numeric::Matrix& rho,
                         numeric::Matrix& occ, DevScratch& s) {
    for (std::size_t i = lo; i < hi; ++i) {
      const DeviceInfo& d = devices_[i];
      const geom::Point c = clamped_center({v[i], v[n + i]}, d);
      const geom::Rect eff = geom::Rect::centered(c, d.w, d.h);
      const geom::Rect real = geom::Rect::centered(c, d.real_w, d.real_h);
      if (use_simd) {
        splat_simd(grid_, eff, d.charge, rho, {s.ovx, s.ovy});
        splat_simd(grid_, real, d.charge, occ, {s.ovx, s.ovy});
      } else {
        grid_.splat(eff, d.charge, rho);
        grid_.splat(real, d.charge, occ);
      }
    }
  };
  const std::size_t chunks = base::ThreadPool::chunk_count(n, kDeviceGrain);
  base::ThreadPool& pool = base::ThreadPool::global();
  if (chunks <= 1) {
    rho_.fill(0.0);
    occupancy_.fill(0.0);  // true footprint area
    splat_range(0, n, rho_, occupancy_, scratch_[0]);
  } else {
    // Each fixed chunk of devices accumulates into its own partial; the
    // partials are then summed bin-wise in chunk order, so the result does
    // not depend on which thread ran which chunk.
    pool.parallel_for(0, chunks, 1, [&](std::size_t c0, std::size_t c1) {
      for (std::size_t c = c0; c < c1; ++c) {
        rho_part_[c].fill(0.0);
        occ_part_[c].fill(0.0);
        splat_range(c * kDeviceGrain, std::min(n, (c + 1) * kDeviceGrain),
                    rho_part_[c], occ_part_[c], scratch_[c]);
      }
    });
    const std::size_t bins = rho_.data().size();
    pool.parallel_for(0, bins, 8192, [&](std::size_t b0, std::size_t b1) {
      for (std::size_t b = b0; b < b1; ++b) {
        double r = 0, o = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
          r += rho_part_[c].data()[b];
          o += occ_part_[c].data()[b];
        }
        rho_.data()[b] = r;
        occupancy_.data()[b] = o;
      }
    });
  }
  // Convert charge per bin into density (charge / bin area). The divisor
  // is hoisted: a store to rho_ could alias grid_'s extents, so the call
  // inside the loop would be re-evaluated on every bin.
  const double bin_area = grid_.bin_area();
  for (double& x : rho_.data()) x /= bin_area;

  // --- overflow metric ------------------------------------------------------
  // Analog scale: devices are much larger than bins, so a bin interior to a
  // single device is legitimately 100% occupied. Overflow therefore counts
  // occupancy beyond a *full* bin — i.e. actual device overlap — normalized
  // by total device area.
  double over = 0;
  const double cap = grid_.bin_area();
  for (double o : occupancy_.data()) over += std::max(0.0, o - cap);
  const double total_area = compiled_->total_device_area();
  overflow_ = total_area > 0 ? over / total_area : 0.0;
}

double ElectroDensity::value_and_grad(std::span<const double> v,
                                      std::span<double> grad, double scale) {
  // One histogram sample per eval (two clock reads on a >=µs operation);
  // the spectral transforms inside count themselves via fft/transforms2d.
  static const obs::Counter evals = obs::counter("density/evals");
  static const obs::Histogram eval_seconds =
      obs::histogram("density/eval_seconds");
  const bool record = obs::enabled();
  const double obs_t0 = record ? obs::now_seconds() : 0.0;
  evals.inc();

  const std::size_t n = devices_.size();
  APLACE_DCHECK(v.size() == 2 * n && grad.size() == v.size());

  // --- charge density + overflow --------------------------------------------
  build_density(v);

  // --- spectral Poisson solve ----------------------------------------------
  // All transforms run in place on the member matrices: ex_ first holds the
  // DCT coefficients a, from which both field synthesis inputs are
  // produced, so the whole solve allocates nothing. The energy comes from
  // the coefficients (Parseval on the DCT basis): with psi = sum a/w^2 cos
  // cos and rho = sum a cos cos, sum_b rho_b psi_b = Nx Ny sum c_u c_v
  // a^2 / w^2, c_0 = 1, c_k = 1/2. It feeds traces only (GP reads the
  // gradient), so the potential itself is never synthesized.
  using namespace numeric::spectral;
  const std::size_t nx = grid_.nx(), ny = grid_.ny();
  const double pi = std::numbers::pi;

  std::copy(rho_.data().begin(), rho_.data().end(), ex_.data().begin());
  dct2d_inplace(ex_, basis_x_, basis_y_);
  double weighted = 0;  // sum c_u c_v a^2 / w^2
  for (std::size_t r = 0; r < ny; ++r) {
    const double wv = pi * static_cast<double>(r) / static_cast<double>(ny) /
                      grid_.bin_h();
    const double cv = r == 0 ? 1.0 : 0.5;
    for (std::size_t c = 0; c < nx; ++c) {
      const double wu = pi * static_cast<double>(c) / static_cast<double>(nx) /
                        grid_.bin_w();
      const double w2 = wu * wu + wv * wv;
      if (w2 <= 0) {  // (0,0): mean removed
        ex_(r, c) = 0.0;
        ey_(r, c) = 0.0;
        continue;
      }
      const double a = ex_(r, c);
      const double coef = a / w2;
      weighted += (c == 0 ? cv : 0.5 * cv) * (a * coef);
      ex_(r, c) = coef * wu;
      ey_(r, c) = coef * wv;
    }
  }
  isxcy2d_inplace(ex_, basis_x_, basis_y_);
  icxsy2d_inplace(ey_, basis_x_, basis_y_);
  const double energy = 0.5 * grid_.bin_area() * static_cast<double>(nx) *
                        static_cast<double>(ny) * weighted;

  // --- per-device forces ---------------------------------------------------
  // Gradient entries are disjoint per device, so the chunks of the parallel
  // path write without reduction (bit-identical for any thread count).
  const bool use_simd = use_simd_;
  auto force_range = [&](std::size_t lo, std::size_t hi, DevScratch& s) {
    for (std::size_t i = lo; i < hi; ++i) {
      const DeviceInfo& d = devices_[i];
      const geom::Point c = clamped_center({v[i], v[n + i]}, d);
      const geom::Rect rect = geom::Rect::centered(c, d.w, d.h);
      double ex_acc = 0, ey_acc = 0, area_acc = 0;
      if (use_simd) {
        const ForceAcc acc = force_simd(grid_, ex_, ey_, rect, {s.ovx, s.ovy});
        ex_acc = acc.ex;
        ey_acc = acc.ey;
        area_acc = acc.area;
      } else {
        const auto [cx0, cx1] = grid_.x_range(rect.xlo(), rect.xhi());
        const auto [cy0, cy1] = grid_.y_range(rect.ylo(), rect.yhi());
        for (std::size_t r = cy0; r <= cy1; ++r) {
          for (std::size_t cc = cx0; cc <= cx1; ++cc) {
            const double ov = grid_.bin_rect(r, cc).overlap_area(rect);
            if (ov <= 0) continue;
            ex_acc += ov * ex_(r, cc);
            ey_acc += ov * ey_(r, cc);
            area_acc += ov;
          }
        }
      }
      if (area_acc <= 0) continue;  // region degenerate beyond clamping
      const double q_over_a = d.charge / area_acc;
      grad[i] += scale * (-q_over_a * ex_acc);
      grad[n + i] += scale * (-q_over_a * ey_acc);
    }
  };
  const std::size_t chunks = base::ThreadPool::chunk_count(n, kDeviceGrain);
  if (chunks <= 1) {
    force_range(0, n, scratch_[0]);
  } else {
    base::ThreadPool::global().parallel_for(
        0, chunks, 1, [&](std::size_t c0, std::size_t c1) {
          for (std::size_t c = c0; c < c1; ++c) {
            force_range(c * kDeviceGrain,
                        std::min(n, (c + 1) * kDeviceGrain), scratch_[c]);
          }
        });
  }
  if (record) eval_seconds.record(obs::now_seconds() - obs_t0);
  return energy;
}

}  // namespace aplace::density
