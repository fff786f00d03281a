#include "wirelength/smooth_wl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/aligned.hpp"
#include "base/simd.hpp"
#include "base/thread_pool.hpp"

namespace aplace::wirelength {
namespace {

using base::padded4;
using simd::Vec4d;

// Pin coordinates for one dimension of one net, given the variable vector.
void gather(std::span<const double> v, std::size_t dim_offset,
            std::span<const std::uint32_t> devs, std::span<const double> offs,
            std::vector<double>& out) {
  out.clear();
  out.reserve(devs.size());
  for (std::size_t i = 0; i < devs.size(); ++i) {
    out.push_back(v[dim_offset + devs[i]] + offs[i]);
  }
}

// Same gather into an aligned scratch row, with the pad lanes [k, padded4(k))
// filled with out[0] so full-width max/min loops see neutral values.
void gather_padded(std::span<const double> v, std::size_t dim_offset,
                   std::span<const std::uint32_t> devs,
                   std::span<const double> offs, double* out) {
  const std::size_t k = devs.size();
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = v[dim_offset + devs[i]] + offs[i];
  }
  for (std::size_t i = k; i < padded4(k); ++i) out[i] = out[0];
}

// Per-chunk aligned scratch: one padded row per array, sized once to the
// longest net of the snapshot. ep/em cache the exp values between the value
// and gradient passes of the SIMD kernels.
struct NetScratch {
  base::AlignedVec coords, dcoord, coords_y, dcoord_y, ep, em;
  explicit NetScratch(std::size_t max_pins) { ensure(max_pins); }

  void ensure(std::size_t max_pins) {
    const std::size_t k4 = padded4(std::max<std::size_t>(max_pins, 1));
    if (coords.size() >= k4) return;
    coords.resize(k4);
    dcoord.resize(k4);
    coords_y.resize(4);  // fused x/y block path only runs for k <= 4
    dcoord_y.resize(4);
    ep.resize(k4);
    em.resize(k4);
  }

  /// Per-thread reusable instance: the per-chunk worker bodies run on pool
  /// threads, so a thread_local avoids six heap allocations per chunk. The
  /// contents carry no state between nets (every row is fully rewritten
  /// before it is read), so reuse cannot affect determinism.
  static NetScratch& local(std::size_t max_pins) {
    static thread_local NetScratch s(4);
    s.ensure(max_pins);
    return s;
  }
};

// ---- scalar reference kernels ----------------------------------------------
// Loop order and arithmetic are the pre-SIMD originals, element by element,
// so the scalar path reproduces historical results bit-for-bit.

// Weighted-average smooth max minus smooth min over coords[0..k), with
// gradient d(WA)/d(coord_i) written to dcoord. Numerically stabilized by
// shifting exponents by the max/min coordinate: den_p/den_m always contain
// an exp(0) = 1 term, so no finite coordinate spread can overflow — extreme
// spreads only underflow far-away pins to weight 0 (see the 1e6-spread
// regression in tests/simd_test.cpp).
double wa_extent_scalar(const double* coords, std::size_t k, double gamma,
                        double* dcoord) {
  const double cmax = *std::max_element(coords, coords + k);
  const double cmin = *std::min_element(coords, coords + k);

  double num_p = 0, den_p = 0, num_m = 0, den_m = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double c = coords[i];
    const double ep = std::exp((c - cmax) / gamma);
    const double em = std::exp(-(c - cmin) / gamma);
    num_p += c * ep;
    den_p += ep;
    num_m += c * em;
    den_m += em;
  }
  const double f_max = num_p / den_p;
  const double f_min = num_m / den_m;

  for (std::size_t i = 0; i < k; ++i) {
    const double c = coords[i];
    const double ap = std::exp((c - cmax) / gamma) / den_p;
    const double am = std::exp(-(c - cmin) / gamma) / den_m;
    const double dmax = ap * (1.0 + (c - f_max) / gamma);
    const double dmin = am * (1.0 - (c - f_min) / gamma);
    dcoord[i] = dmax - dmin;
  }
  return f_max - f_min;
}

// LSE smooth extent: gamma*ln(sum e^{c/g}) + gamma*ln(sum e^{-c/g}).
double lse_extent_scalar(const double* coords, std::size_t k, double gamma,
                         double* dcoord) {
  const double cmax = *std::max_element(coords, coords + k);
  const double cmin = *std::min_element(coords, coords + k);

  double sp = 0, sm = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double c = coords[i];
    sp += std::exp((c - cmax) / gamma);
    sm += std::exp(-(c - cmin) / gamma);
  }
  const double f_max = cmax + gamma * std::log(sp);
  const double f_min = cmin - gamma * std::log(sm);
  for (std::size_t i = 0; i < k; ++i) {
    const double c = coords[i];
    dcoord[i] = std::exp((c - cmax) / gamma) / sp -
                std::exp(-(c - cmin) / gamma) / sm;
  }
  return f_max - f_min;
}

// ---- 4-lane kernels --------------------------------------------------------
// coords is the padded row written by gather_padded (pad lanes = coords[0],
// so they are neutral for max/min). The exp values are computed once,
// masked to zero on the tail block, and cached in ep/em for the gradient
// pass — the scalar reference recomputes them, so the SIMD path saves a
// full exp sweep on top of the 4-wide evaluation.

// Shared first pass: cmax/cmin over the padded row, then
// ep[i] = exp4((c-cmax)/g), em[i] = exp4((cmin-c)/g) with zeroed tail lanes.
struct ExpSums {
  double cmax, cmin;
  Vec4d sum_cep, sum_ep, sum_cem, sum_em;  // c*ep, ep, c*em, em partials
};

// The SIMD kernels scale by reciprocals (one scalar divide per net, then
// multiplies) instead of dividing lane-wise — divpd is the slowest FP op on
// every backend and the extra rounding stays far inside the 1e-12 contract.
ExpSums exp_pass(const double* coords, std::size_t k, double inv_gamma,
                 double* ep, double* em) {
  const std::size_t k4 = padded4(k);
  Vec4d vmax = Vec4d::load(coords);
  Vec4d vmin = vmax;
  for (std::size_t i = 4; i < k4; i += 4) {
    const Vec4d v = Vec4d::load(coords + i);
    vmax = Vec4d::max(vmax, v);
    vmin = Vec4d::min(vmin, v);
  }
  ExpSums s;
  s.cmax = simd::hmax(vmax);
  s.cmin = simd::hmin(vmin);
  const Vec4d cmaxv = Vec4d::broadcast(s.cmax);
  const Vec4d cminv = Vec4d::broadcast(s.cmin);
  const Vec4d igv = Vec4d::broadcast(inv_gamma);
  s.sum_cep = s.sum_ep = s.sum_cem = s.sum_em = Vec4d::zero();
  // em_i = K / ep_i with K = exp((cmin-cmax)/g): one exp4 per block instead
  // of two, valid away from the exp4 clamp (see wa_extent_block2).
  const bool em_by_ratio = (s.cmax - s.cmin) * inv_gamma < 600.0;
  const Vec4d kv =
      em_by_ratio ? simd::exp4((cminv - cmaxv) * igv) : Vec4d::zero();
  for (std::size_t i = 0; i < k4; i += 4) {
    const Vec4d v = Vec4d::load(coords + i);
    Vec4d vep = simd::exp4((v - cmaxv) * igv);
    Vec4d vem = em_by_ratio ? kv / vep : simd::exp4((cminv - v) * igv);
    if (i + 4 > k) {  // masked tail: pad lanes contribute exact zero
      vep = vep.keep_first(k - i);
      vem = vem.keep_first(k - i);
    }
    vep.store(ep + i);
    vem.store(em + i);
    s.sum_cep = Vec4d::fma(v, vep, s.sum_cep);
    s.sum_ep = s.sum_ep + vep;
    s.sum_cem = Vec4d::fma(v, vem, s.sum_cem);
    s.sum_em = s.sum_em + vem;
  }
  return s;
}

// Fused both-dimension specialization for nets of <= 4 pins — the common
// case in analog netlists (most paper-circuit nets have 2-4 pins). The x
// and y extents are fully independent, so interleaving them doubles the
// instruction-level parallelism of this otherwise latency-bound block: the
// four exp4 dependency chains (x/y times ep/em) execute concurrently, and
// everything stays in registers (no ep/em spill, no loop, no ExpSums
// round-trip). Returns extent_x + extent_y.
double wa_extent_block2(const double* cx, const double* cy, std::size_t k,
                        double inv_gamma, double* dcx, double* dcy) {
  const Vec4d vx = Vec4d::load(cx);  // pad lanes = c[0] (neutral)
  const Vec4d vy = Vec4d::load(cy);
  const double xmax = simd::hmax(vx), xmin = simd::hmin(vx);
  const double ymax = simd::hmax(vy), ymin = simd::hmin(vy);
  const Vec4d igv = Vec4d::broadcast(inv_gamma);
  const Vec4d xep_raw = simd::exp4((vx - Vec4d::broadcast(xmax)) * igv);
  const Vec4d yep_raw = simd::exp4((vy - Vec4d::broadcast(ymax)) * igv);
  Vec4d xem, yem;
  if (std::max(xmax - xmin, ymax - ymin) * inv_gamma < 600.0) {
    // em_i = exp((cmin-c_i)/g) = K / ep_i with K = exp((cmin-cmax)/g), and K
    // is exactly the smallest lane of ep (exp is monotone) — two packed
    // divides replace two exp4 evaluations. Only valid away from the exp4
    // clamp (spread < 600*gamma): past it ep saturates and the ratio would
    // assign weight 1 to mid-span pins that should underflow to 0.
    xem = (Vec4d::broadcast(simd::hmin(xep_raw)) / xep_raw).keep_first(k);
    yem = (Vec4d::broadcast(simd::hmin(yep_raw)) / yep_raw).keep_first(k);
  } else {
    xem = simd::exp4((Vec4d::broadcast(xmin) - vx) * igv).keep_first(k);
    yem = simd::exp4((Vec4d::broadcast(ymin) - vy) * igv).keep_first(k);
  }
  const Vec4d xep = xep_raw.keep_first(k);
  const Vec4d yep = yep_raw.keep_first(k);
  // All four denominators reduce through one shuffle tree, and a single
  // packed divide produces every reciprocal this kernel needs — divides
  // are the slowest FP op, so they are the first thing to coalesce.
  const Vec4d dens = simd::hsum4(xep, xem, yep, yem);
  const Vec4d inv_dens = Vec4d::broadcast(1.0) / dens;
  const Vec4d f =
      simd::hsum4(vx * xep, vx * xem, vy * yep, vy * yem) * inv_dens;
  const double fx_max = f.lane(0), fx_min = f.lane(1);
  const double fy_max = f.lane(2), fy_min = f.lane(3);

  const Vec4d one = Vec4d::broadcast(1.0);
  const Vec4d xap = xep * Vec4d::broadcast(inv_dens.lane(0));
  const Vec4d xam = xem * Vec4d::broadcast(inv_dens.lane(1));
  const Vec4d yap = yep * Vec4d::broadcast(inv_dens.lane(2));
  const Vec4d yam = yem * Vec4d::broadcast(inv_dens.lane(3));
  const Vec4d dx_max = xap * (one + (vx - Vec4d::broadcast(fx_max)) * igv);
  const Vec4d dx_min = xam * (one - (vx - Vec4d::broadcast(fx_min)) * igv);
  const Vec4d dy_max = yap * (one + (vy - Vec4d::broadcast(fy_max)) * igv);
  const Vec4d dy_min = yam * (one - (vy - Vec4d::broadcast(fy_min)) * igv);
  (dx_max - dx_min).store(dcx);
  (dy_max - dy_min).store(dcy);
  return (fx_max - fx_min) + (fy_max - fy_min);
}

double lse_extent_block2(const double* cx, const double* cy, std::size_t k,
                         double gamma, double inv_gamma, double* dcx,
                         double* dcy) {
  const Vec4d vx = Vec4d::load(cx);
  const Vec4d vy = Vec4d::load(cy);
  const double xmax = simd::hmax(vx), xmin = simd::hmin(vx);
  const double ymax = simd::hmax(vy), ymin = simd::hmin(vy);
  const Vec4d igv = Vec4d::broadcast(inv_gamma);
  const Vec4d xep =
      simd::exp4((vx - Vec4d::broadcast(xmax)) * igv).keep_first(k);
  const Vec4d xem =
      simd::exp4((Vec4d::broadcast(xmin) - vx) * igv).keep_first(k);
  const Vec4d yep =
      simd::exp4((vy - Vec4d::broadcast(ymax)) * igv).keep_first(k);
  const Vec4d yem =
      simd::exp4((Vec4d::broadcast(ymin) - vy) * igv).keep_first(k);
  const Vec4d sums = simd::hsum4(xep, xem, yep, yem);
  const Vec4d inv_sums = Vec4d::broadcast(1.0) / sums;
  (xep * Vec4d::broadcast(inv_sums.lane(0)) -
   xem * Vec4d::broadcast(inv_sums.lane(1)))
      .store(dcx);
  (yep * Vec4d::broadcast(inv_sums.lane(2)) -
   yem * Vec4d::broadcast(inv_sums.lane(3)))
      .store(dcy);
  return ((xmax + gamma * std::log(sums.lane(0))) -
          (xmin - gamma * std::log(sums.lane(1)))) +
         ((ymax + gamma * std::log(sums.lane(2))) -
          (ymin - gamma * std::log(sums.lane(3))));
}

double wa_extent_simd(const double* coords, std::size_t k, double gamma,
                      NetScratch& scratch) {
  double* ep = scratch.ep.data();
  double* em = scratch.em.data();
  const double inv_gamma = 1.0 / gamma;
  const ExpSums s = exp_pass(coords, k, inv_gamma, ep, em);
  const double den_p = simd::hsum_ordered(s.sum_ep);
  const double den_m = simd::hsum_ordered(s.sum_em);
  const double f_max = simd::hsum_ordered(s.sum_cep) / den_p;
  const double f_min = simd::hsum_ordered(s.sum_cem) / den_m;

  const Vec4d iden_pv = Vec4d::broadcast(1.0 / den_p);
  const Vec4d iden_mv = Vec4d::broadcast(1.0 / den_m);
  const Vec4d fmaxv = Vec4d::broadcast(f_max);
  const Vec4d fminv = Vec4d::broadcast(f_min);
  const Vec4d igv = Vec4d::broadcast(inv_gamma);
  const Vec4d one = Vec4d::broadcast(1.0);
  double* dcoord = scratch.dcoord.data();
  const std::size_t k4 = padded4(k);
  for (std::size_t i = 0; i < k4; i += 4) {
    const Vec4d v = Vec4d::load(coords + i);
    const Vec4d ap = Vec4d::load(ep + i) * iden_pv;
    const Vec4d am = Vec4d::load(em + i) * iden_mv;
    const Vec4d dmax = ap * (one + (v - fmaxv) * igv);
    const Vec4d dmin = am * (one - (v - fminv) * igv);
    (dmax - dmin).store(dcoord + i);
  }
  return f_max - f_min;
}

double lse_extent_simd(const double* coords, std::size_t k, double gamma,
                       NetScratch& scratch) {
  double* ep = scratch.ep.data();
  double* em = scratch.em.data();
  const ExpSums s = exp_pass(coords, k, 1.0 / gamma, ep, em);
  const double sp = simd::hsum_ordered(s.sum_ep);
  const double sm = simd::hsum_ordered(s.sum_em);
  const double f_max = s.cmax + gamma * std::log(sp);
  const double f_min = s.cmin - gamma * std::log(sm);

  const Vec4d ispv = Vec4d::broadcast(1.0 / sp);
  const Vec4d ismv = Vec4d::broadcast(1.0 / sm);
  double* dcoord = scratch.dcoord.data();
  const std::size_t k4 = padded4(k);
  for (std::size_t i = 0; i < k4; i += 4) {
    const Vec4d d = Vec4d::load(ep + i) * ispv - Vec4d::load(em + i) * ismv;
    d.store(dcoord + i);
  }
  return f_max - f_min;
}

}  // namespace

SmoothWirelength::SmoothWirelength(
    std::shared_ptr<const netlist::CompiledCircuit> compiled)
    : compiled_(std::move(compiled)), use_simd_(simd::default_enabled()) {
  for (std::size_t ni = 0; ni < compiled_->num_wl_nets(); ++ni) {
    max_net_pins_ =
        std::max(max_net_pins_, compiled_->wl_pin_device(ni).size());
  }
}

double SmoothWirelength::exact_hpwl(std::span<const double> v) const {
  const netlist::CompiledCircuit& cc = *compiled_;
  const std::size_t n = num_devices();
  double total = 0;
  std::vector<double> coords;
  for (std::size_t ni = 0; ni < cc.num_wl_nets(); ++ni) {
    gather(v, 0, cc.wl_pin_device(ni), cc.wl_pin_dx(ni), coords);
    auto [xmin, xmax] = std::minmax_element(coords.begin(), coords.end());
    const double wx = *xmax - *xmin;
    gather(v, n, cc.wl_pin_device(ni), cc.wl_pin_dy(ni), coords);
    auto [ymin, ymax] = std::minmax_element(coords.begin(), coords.end());
    total += cc.wl_weight()[ni] * (wx + (*ymax - *ymin));
  }
  return total;
}

double SmoothWirelength::accumulate(std::span<const double> v,
                                    std::span<double> grad, Kind kind) const {
  const netlist::CompiledCircuit& cc = *compiled_;
  const std::size_t n = num_devices();
  const std::size_t num_nets = cc.num_wl_nets();
  const bool use_simd = use_simd_;
  const Kind k = kind;
  // One chunk of nets, accumulated into `g` (either the caller's gradient
  // directly, or a per-chunk partial on the parallel path).
  const double inv_gamma = 1.0 / gamma_;
  auto run_range = [&](std::size_t lo, std::size_t hi, std::span<double> g) {
    double total = 0;
    NetScratch& scratch = NetScratch::local(max_net_pins_);
    double* coords = scratch.coords.data();
    double* dcoord = scratch.dcoord.data();
    auto extent = [&](std::size_t pins) {
      if (use_simd) {
        return k == Kind::kWa ? wa_extent_simd(coords, pins, gamma_, scratch)
                              : lse_extent_simd(coords, pins, gamma_, scratch);
      }
      return k == Kind::kWa ? wa_extent_scalar(coords, pins, gamma_, dcoord)
                            : lse_extent_scalar(coords, pins, gamma_, dcoord);
    };
    double* coords_y = scratch.coords_y.data();
    double* dcoord_y = scratch.dcoord_y.data();
    for (std::size_t ni = lo; ni < hi; ++ni) {
      const std::span<const std::uint32_t> devs = cc.wl_pin_device(ni);
      const std::size_t pins = devs.size();
      const double weight = cc.wl_weight()[ni];
      if (use_simd && pins <= 4) {
        // Fused x/y block: both dimensions of a short net in one call so the
        // four exp4 dependency chains overlap (see wa_extent_block2).
        gather_padded(v, 0, devs, cc.wl_pin_dx(ni), coords);
        gather_padded(v, n, devs, cc.wl_pin_dy(ni), coords_y);
        total +=
            weight * (k == Kind::kWa
                          ? wa_extent_block2(coords, coords_y, pins, inv_gamma,
                                             dcoord, dcoord_y)
                          : lse_extent_block2(coords, coords_y, pins, gamma_,
                                              inv_gamma, dcoord, dcoord_y));
        for (std::size_t i = 0; i < pins; ++i) {
          g[devs[i]] += weight * dcoord[i];
          g[n + devs[i]] += weight * dcoord_y[i];
        }
        continue;
      }
      gather_padded(v, 0, devs, cc.wl_pin_dx(ni), coords);
      total += weight * extent(pins);
      for (std::size_t i = 0; i < pins; ++i) {
        g[devs[i]] += weight * dcoord[i];
      }
      gather_padded(v, n, devs, cc.wl_pin_dy(ni), coords);
      total += weight * extent(pins);
      for (std::size_t i = 0; i < pins; ++i) {
        g[n + devs[i]] += weight * dcoord[i];
      }
    }
    return total;
  };

  const std::size_t chunks = base::ThreadPool::chunk_count(num_nets, kNetGrain);
  if (chunks <= 1) return run_range(0, num_nets, grad);

  if (grad_part_.size() != chunks) {
    grad_part_.assign(chunks, std::vector<double>());
    total_part_.assign(chunks, 0.0);
  }
  base::ThreadPool& pool = base::ThreadPool::global();
  pool.parallel_for(0, chunks, 1, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      grad_part_[c].assign(2 * n, 0.0);
      total_part_[c] =
          run_range(c * kNetGrain, std::min(num_nets, (c + 1) * kNetGrain),
                    grad_part_[c]);
    }
  });
  // Reduce gradients device-wise, chunks in fixed order per entry.
  pool.parallel_for(0, 2 * n, 4096, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      double g = 0;
      for (std::size_t c = 0; c < chunks; ++c) g += grad_part_[c][i];
      grad[i] += g;
    }
  });
  double total = 0;
  for (std::size_t c = 0; c < chunks; ++c) total += total_part_[c];
  return total;
}

double WaWirelength::value_and_grad(std::span<const double> v,
                                    std::span<double> grad) const {
  APLACE_DCHECK(v.size() == 2 * num_devices() && grad.size() == v.size());
  return accumulate(v, grad, Kind::kWa);
}

double LseWirelength::value_and_grad(std::span<const double> v,
                                     std::span<double> grad) const {
  APLACE_DCHECK(v.size() == 2 * num_devices() && grad.size() == v.size());
  return accumulate(v, grad, Kind::kLse);
}

}  // namespace aplace::wirelength
