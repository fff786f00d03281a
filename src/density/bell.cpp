#include "density/bell.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::density {

double bell_value(double d, double w, double wb) {
  d = std::abs(d);
  const double d1 = w / 2 + wb;
  const double d2 = w / 2 + 2 * wb;
  if (d <= d1) {
    const double a = 4.0 / ((w + 2 * wb) * (w + 4 * wb));
    return 1.0 - a * d * d;
  }
  if (d <= d2) {
    const double b = 2.0 / (wb * (w + 4 * wb));
    const double t = d - d2;
    return b * t * t;
  }
  return 0.0;
}

double bell_derivative(double d, double w, double wb) {
  const double s = d < 0 ? -1.0 : 1.0;
  d = std::abs(d);
  const double d1 = w / 2 + wb;
  const double d2 = w / 2 + 2 * wb;
  if (d <= d1) {
    const double a = 4.0 / ((w + 2 * wb) * (w + 4 * wb));
    return s * (-2.0 * a * d);
  }
  if (d <= d2) {
    const double b = 2.0 / (wb * (w + 4 * wb));
    return s * (2.0 * b * (d - d2));
  }
  return 0.0;
}

BellDensity::BellDensity(
    std::shared_ptr<const netlist::CompiledCircuit> compiled,
    const geom::Rect& region, std::size_t nx, std::size_t ny)
    : compiled_(std::move(compiled)),
      grid_(region, nx, ny),
      dev_w_(compiled_->dev_width()),
      dev_h_(compiled_->dev_height()),
      dev_area_(compiled_->dev_area()),
      dmat_(ny, nx),
      occ_(ny, nx),
      resid_(ny, nx),
      px_(nx),
      dpx_(nx),
      py_(ny),
      dpy_(ny) {
  norm_.assign(dev_w_.size(), 0.0);
  support_.resize(dev_w_.size());
}

void BellDensity::fill_profiles(std::size_t i, double x, double y,
                                const Support& s, bool derivatives) {
  const double wb = grid_.bin_w(), hb = grid_.bin_h();
  for (std::size_t c = s.cx0; c <= s.cx1; ++c) {
    const double d = x - grid_.bin_center_x(c);
    px_[c] = bell_value(d, dev_w_[i], wb);
    if (derivatives) dpx_[c] = bell_derivative(d, dev_w_[i], wb);
  }
  for (std::size_t r = s.cy0; r <= s.cy1; ++r) {
    const double d = y - grid_.bin_center_y(r);
    py_[r] = bell_value(d, dev_h_[i], hb);
    if (derivatives) dpy_[r] = bell_derivative(d, dev_h_[i], hb);
  }
}

double BellDensity::value_and_grad(std::span<const double> v,
                                   std::span<double> grad, double scale) {
  // One histogram sample per eval, as in ElectroDensity.
  static const obs::Counter evals = obs::counter("density/bell_evals");
  static const obs::Histogram eval_seconds =
      obs::histogram("density/bell_eval_seconds");
  const bool record = obs::enabled();
  const double obs_t0 = record ? obs::now_seconds() : 0.0;
  evals.inc();

  const std::size_t n = dev_w_.size();
  APLACE_DCHECK(v.size() == 2 * n && grad.size() == v.size());
  const std::size_t nx = grid_.nx(), ny = grid_.ny();
  const double wb = grid_.bin_w(), hb = grid_.bin_h();

  // Smoothed density D and true occupancy (for overflow); member scratch
  // keeps the hot loop allocation-free. Two passes per device: first to get
  // the normalizers, second (after D is known) for the gradient. The bell
  // is separable, so each pass evaluates the profile once per support
  // column (px) and row (py) and forms the bin weight as px * py.
  numeric::Matrix& dmat = dmat_;
  numeric::Matrix& occ = occ_;
  dmat.fill(0.0);
  occ.fill(0.0);

  for (std::size_t i = 0; i < n; ++i) {
    const double x = v[i], y = v[n + i];
    const double rx = dev_w_[i] / 2 + 2 * wb;
    const double ry = dev_h_[i] / 2 + 2 * hb;
    const auto [cx0, cx1] = grid_.x_range(x - rx, x + rx);
    const auto [cy0, cy1] = grid_.y_range(y - ry, y + ry);
    support_[i] = {cx0, cx1, cy0, cy1};
    fill_profiles(i, x, y, support_[i], /*derivatives=*/false);
    double total = 0;
    for (std::size_t r = cy0; r <= cy1; ++r) {
      const double py = py_[r];
      if (py == 0) continue;
      for (std::size_t c = cx0; c <= cx1; ++c) total += px_[c] * py;
    }
    norm_[i] = total > 1e-12 ? dev_area_[i] / total : 0.0;
    const double norm = norm_[i];
    for (std::size_t r = cy0; r <= cy1; ++r) {
      const double py = py_[r];
      if (py == 0) continue;
      double* row = &dmat(r, 0);
      for (std::size_t c = cx0; c <= cx1; ++c) row[c] += norm * px_[c] * py;
    }
    grid_.splat(geom::Rect::centered({x, y}, dev_w_[i], dev_h_[i]),
                dev_area_[i], occ);
  }

  // Overflow from true occupancy. As in ElectroDensity, bins are smaller
  // than devices, so only occupancy beyond a full bin (= device overlap)
  // counts.
  double over = 0;
  const double cap = grid_.bin_area();
  for (double o : occ.data()) over += std::max(0.0, o - cap);
  const double total_area = compiled_->total_device_area();
  overflow_ = total_area > 0 ? over / total_area : 0.0;

  // Penalty sum_b (D_b - M_b)^2 — but only over-filled bins are penalized;
  // under-filled bins are fine for analog (area is minimized separately).
  const double expected = cap;
  double value = 0;
  numeric::Matrix& resid = resid_;
  for (std::size_t r = 0; r < ny; ++r) {
    for (std::size_t c = 0; c < nx; ++c) {
      const double e = std::max(0.0, dmat(r, c) - expected);
      resid(r, c) = e;
      value += e * e;
    }
  }

  // Gradient.
  for (std::size_t i = 0; i < n; ++i) {
    const double x = v[i], y = v[n + i];
    const Support& s = support_[i];
    fill_profiles(i, x, y, s, /*derivatives=*/true);
    const double norm = norm_[i];
    double gx = 0, gy = 0;
    for (std::size_t r = s.cy0; r <= s.cy1; ++r) {
      const double py = py_[r], dpy = dpy_[r];
      const double* row = &resid(r, 0);
      for (std::size_t c = s.cx0; c <= s.cx1; ++c) {
        const double e = row[c];
        if (e == 0) continue;
        const double t = 2 * e * norm;
        gx += t * dpx_[c] * py;
        gy += t * px_[c] * dpy;
      }
    }
    grad[i] += scale * gx;
    grad[n + i] += scale * gy;
  }
  if (record) eval_seconds.record(obs::now_seconds() - obs_t0);
  return value;
}

}  // namespace aplace::density
