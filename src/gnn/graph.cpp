#include "gnn/graph.hpp"

#include <algorithm>
#include <cmath>

namespace aplace::gnn {
namespace {

std::size_t type_index(netlist::DeviceType t) {
  return static_cast<std::size_t>(t);
}

}  // namespace

CircuitGraph::CircuitGraph(
    const std::shared_ptr<const netlist::CompiledCircuit>& compiled,
    double coord_scale)
    : n_(compiled->num_devices()),
      scale_(coord_scale),
      adj_(n_, n_),
      static_features_(n_, kFeatureDim) {
  APLACE_CHECK(coord_scale > 0);

  // Raw adjacency: clique for nets with <= 6 pins, star from the first pin
  // otherwise (keeps big supply nets from densifying the graph). The compiled
  // net->device CSR is already deduplicated and sorted ascending, matching
  // the sort+unique this loop used to perform.
  numeric::Matrix a(n_, n_);
  std::vector<double> degree(n_, 0.0);
  for (std::size_t ni = 0; ni < compiled->num_nets(); ++ni) {
    const std::span<const std::uint32_t> devs = compiled->net_devices(ni);
    if (devs.size() < 2) continue;
    auto connect = [&](std::size_t u, std::size_t w) {
      if (u == w) return;
      a(u, w) = 1.0;
      a(w, u) = 1.0;
    };
    if (devs.size() <= 6) {
      for (std::size_t i = 0; i < devs.size(); ++i)
        for (std::size_t j = i + 1; j < devs.size(); ++j)
          connect(devs[i], devs[j]);
    } else {
      for (std::size_t j = 1; j < devs.size(); ++j) connect(devs[0], devs[j]);
    }
  }
  // Self loops + row normalization.
  for (std::size_t i = 0; i < n_; ++i) a(i, i) = 1.0;
  for (std::size_t i = 0; i < n_; ++i) {
    double row = 0;
    for (std::size_t j = 0; j < n_; ++j) row += a(i, j);
    for (std::size_t j = 0; j < n_; ++j) adj_(i, j) = a(i, j) / row;
    degree[i] = row - 1.0;
  }

  // Static feature columns (x and y filled per evaluation).
  const std::span<const double> dev_w = compiled->dev_width();
  const std::span<const double> dev_h = compiled->dev_height();
  double max_dim = 1e-9;
  for (std::size_t i = 0; i < n_; ++i) {
    max_dim = std::max({max_dim, dev_w[i], dev_h[i]});
  }
  for (std::size_t i = 0; i < n_; ++i) {
    static_features_(i, 2) = dev_w[i] / max_dim;
    static_features_(i, 3) = dev_h[i] / max_dim;
    const std::size_t t = type_index(compiled->dev_type()[i]);
    APLACE_CHECK(t < kNumDeviceTypes);
    static_features_(i, 4 + t) = 1.0;
    static_features_(i, 4 + kNumDeviceTypes) =
        degree[i] / static_cast<double>(std::max<std::size_t>(n_ - 1, 1));
  }
}

numeric::Matrix CircuitGraph::features(std::span<const double> v) const {
  APLACE_DCHECK(v.size() == 2 * n_);
  numeric::Matrix f = static_features_;
  const std::size_t lx = kFeatureDim - 4, ly = kFeatureDim - 3;
  const std::size_t ax = kFeatureDim - 2, ay = kFeatureDim - 1;
  lap_sign_x_.assign(n_, 0.0);
  lap_sign_y_.assign(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    f(i, 0) = v[i] / scale_;
    f(i, 1) = v[n_ + i] / scale_;
    // Laplacian features: offset from the adjacency-weighted mean of the
    // neighborhood (self loop included in adj_), plus magnitudes. The signs
    // are cached for accumulate_position_grad's |.| chain rule.
    double mx = 0, my = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      mx += adj_(i, j) * v[j];
      my += adj_(i, j) * v[n_ + j];
    }
    f(i, lx) = (v[i] - mx) / scale_;
    f(i, ly) = (v[n_ + i] - my) / scale_;
    f(i, ax) = std::abs(f(i, lx));
    f(i, ay) = std::abs(f(i, ly));
    lap_sign_x_[i] = f(i, lx) >= 0 ? 1.0 : -1.0;
    lap_sign_y_[i] = f(i, ly) >= 0 ? 1.0 : -1.0;
  }
  return f;
}

void CircuitGraph::accumulate_position_grad(const numeric::Matrix& fg,
                                            std::span<double> grad_v) const {
  APLACE_DCHECK(fg.rows() == n_ && fg.cols() == kFeatureDim);
  APLACE_DCHECK(grad_v.size() == 2 * n_);
  APLACE_CHECK_MSG(lap_sign_x_.size() == n_,
                   "call features() before accumulate_position_grad()");
  const std::size_t lx = kFeatureDim - 4, ly = kFeatureDim - 3;
  const std::size_t ax = kFeatureDim - 2, ay = kFeatureDim - 1;
  for (std::size_t i = 0; i < n_; ++i) {
    grad_v[i] += fg(i, 0) / scale_;
    grad_v[n_ + i] += fg(i, 1) / scale_;
    // Laplacian chain rule: d lap_i / d x_k = delta_ik - adj(i, k); the
    // magnitude features contribute sign(lap_i) times the same Jacobian.
    const double gx = fg(i, lx) + fg(i, ax) * lap_sign_x_[i];
    const double gy = fg(i, ly) + fg(i, ay) * lap_sign_y_[i];
    grad_v[i] += gx / scale_;
    grad_v[n_ + i] += gy / scale_;
    for (std::size_t k = 0; k < n_; ++k) {
      grad_v[k] -= gx * adj_(i, k) / scale_;
      grad_v[n_ + k] -= gy * adj_(i, k) / scale_;
    }
  }
}

}  // namespace aplace::gnn
