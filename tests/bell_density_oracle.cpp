#include "bell_density_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "density/bell.hpp"
#include "numeric/matrix.hpp"

namespace aplace::density::oracle {
namespace {

struct Support {
  std::size_t cx0, cx1, cy0, cy1;
};

}  // namespace

BellEval bell_value_and_grad(const netlist::CompiledCircuit& cc,
                             const BinGrid& grid, std::span<const double> v,
                             std::span<double> grad, double scale) {
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();
  const std::span<const double> dev_area = cc.dev_area();
  const std::size_t n = dev_w.size();
  const std::size_t nx = grid.nx(), ny = grid.ny();
  const double wb = grid.bin_w(), hb = grid.bin_h();

  numeric::Matrix dmat(ny, nx), occ(ny, nx), resid(ny, nx);
  std::vector<double> norm(n, 0.0);
  std::vector<Support> support(n);

  for (std::size_t i = 0; i < n; ++i) {
    const double x = v[i], y = v[n + i];
    const double rx = dev_w[i] / 2 + 2 * wb;
    const double ry = dev_h[i] / 2 + 2 * hb;
    const auto [cx0, cx1] = grid.x_range(x - rx, x + rx);
    const auto [cy0, cy1] = grid.y_range(y - ry, y + ry);
    support[i] = {cx0, cx1, cy0, cy1};
    double total = 0;
    for (std::size_t r = cy0; r <= cy1; ++r) {
      const double py = bell_value(y - grid.bin_center_y(r), dev_h[i], hb);
      if (py == 0) continue;
      for (std::size_t c = cx0; c <= cx1; ++c) {
        const double px = bell_value(x - grid.bin_center_x(c), dev_w[i], wb);
        total += px * py;
      }
    }
    norm[i] = total > 1e-12 ? dev_area[i] / total : 0.0;
    for (std::size_t r = cy0; r <= cy1; ++r) {
      const double py = bell_value(y - grid.bin_center_y(r), dev_h[i], hb);
      if (py == 0) continue;
      for (std::size_t c = cx0; c <= cx1; ++c) {
        const double px = bell_value(x - grid.bin_center_x(c), dev_w[i], wb);
        dmat(r, c) += norm[i] * px * py;
      }
    }
    grid.splat(geom::Rect::centered({x, y}, dev_w[i], dev_h[i]), dev_area[i],
               occ);
  }

  double over = 0;
  const double cap = grid.bin_area();
  for (double o : occ.data()) over += std::max(0.0, o - cap);
  const double total_area = cc.total_device_area();
  BellEval out;
  out.overflow = total_area > 0 ? over / total_area : 0.0;

  const double expected = cap;
  double value = 0;
  for (std::size_t r = 0; r < ny; ++r) {
    for (std::size_t c = 0; c < nx; ++c) {
      const double e = std::max(0.0, dmat(r, c) - expected);
      resid(r, c) = e;
      value += e * e;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const double x = v[i], y = v[n + i];
    const auto [cx0, cx1, cy0, cy1] = support[i];
    double gx = 0, gy = 0;
    for (std::size_t r = cy0; r <= cy1; ++r) {
      const double yc = grid.bin_center_y(r);
      const double py = bell_value(y - yc, dev_h[i], hb);
      const double dpy = bell_derivative(y - yc, dev_h[i], hb);
      for (std::size_t c = cx0; c <= cx1; ++c) {
        const double e = resid(r, c);
        if (e == 0) continue;
        const double xc = grid.bin_center_x(c);
        const double px = bell_value(x - xc, dev_w[i], wb);
        const double dpx = bell_derivative(x - xc, dev_w[i], wb);
        gx += 2 * e * norm[i] * dpx * py;
        gy += 2 * e * norm[i] * px * dpy;
      }
    }
    grad[i] += scale * gx;
    grad[n + i] += scale * gy;
  }
  out.value = value;
  return out;
}

}  // namespace aplace::density::oracle
