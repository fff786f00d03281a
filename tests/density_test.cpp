// Density models: bin-grid splatting conservation, electrostatic field
// behaviour and overflow semantics, bell-shaped penalty values/derivatives.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "bell_density_oracle.hpp"
#include "circuits/testcases.hpp"
#include "density/bell.hpp"
#include "density/bin_grid.hpp"
#include "density/electro.hpp"
#include "numeric/rng.hpp"
#include "numeric/spectral.hpp"
#include "test_util.hpp"

namespace aplace::density {
namespace {

TEST(BinGridTest, Geometry) {
  const BinGrid g({0, 0, 8, 4}, 4, 2);
  EXPECT_DOUBLE_EQ(g.bin_w(), 2.0);
  EXPECT_DOUBLE_EQ(g.bin_h(), 2.0);
  EXPECT_DOUBLE_EQ(g.bin_center_x(0), 1.0);
  EXPECT_DOUBLE_EQ(g.bin_center_y(1), 3.0);
  EXPECT_EQ(g.bin_rect(1, 2), geom::Rect(4, 2, 6, 4));
}

TEST(BinGridTest, RangeClamping) {
  const BinGrid g({0, 0, 8, 8}, 4, 4);
  const auto [a, b] = g.x_range(3.0, 5.0);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  const auto [c, d] = g.x_range(-5.0, -1.0);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(d, 0u);
  const auto [e, f] = g.x_range(9.0, 12.0);
  EXPECT_EQ(e, 3u);
  EXPECT_EQ(f, 3u);
}

TEST(BinGridTest, SplatConservesAmountInside) {
  const BinGrid g({0, 0, 8, 8}, 8, 8);
  numeric::Matrix m(8, 8);
  g.splat(geom::Rect(1.3, 2.1, 4.6, 5.2), 10.0, m);
  double total = 0;
  for (double v : m.data()) total += v;
  EXPECT_NEAR(total, 10.0, 1e-9);
}

TEST(BinGridTest, SplatDropsOutsideArea) {
  const BinGrid g({0, 0, 4, 4}, 4, 4);
  numeric::Matrix m(4, 4);
  // Half of the rect lies left of the region.
  g.splat(geom::Rect(-2, 0, 2, 4), 8.0, m);
  double total = 0;
  for (double v : m.data()) total += v;
  EXPECT_NEAR(total, 4.0, 1e-9);
}

TEST(ElectroTest, FieldPushesApart) {
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(test::compile(c), {0, 0, 16, 16}, 16, 16);
  // Both devices near the center, side by side with overlap.
  std::vector<double> v{7.6, 8.4, 8.0, 8.0};
  std::vector<double> g(4, 0.0);
  ed.value_and_grad(v, g, 1.0);
  // Descent direction -g must separate them further in x.
  EXPECT_GT(g[0], 0.0) << "left device pushed left";
  EXPECT_LT(g[1], 0.0) << "right device pushed right";
}

TEST(ElectroTest, EnergyDropsWhenSpread) {
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(test::compile(c), {0, 0, 16, 16}, 16, 16);
  std::vector<double> g(4, 0.0);
  const std::vector<double> vs{8, 8, 8, 8};
  const std::vector<double> vp{4, 12, 8, 8};
  const double stacked = ed.value_and_grad(vs, g, 0.0);
  const double spread = ed.value_and_grad(vp, g, 0.0);
  EXPECT_LT(spread, stacked);
}

TEST(ElectroTest, OverflowMeasuresOverlapOnly) {
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(test::compile(c), {0, 0, 16, 16}, 16, 16);
  std::vector<double> g(4, 0.0);
  // Disjoint placement: overflow ~ 0 (bins inside devices are exactly full).
  const std::vector<double> vp{4, 12, 8, 8};
  const std::vector<double> vs{8, 8, 8, 8};
  ed.value_and_grad(vp, g, 0.0);
  EXPECT_LT(ed.overflow(), 0.05);
  // Fully stacked at the same spot: most of the smaller device overlaps.
  ed.value_and_grad(vs, g, 0.0);
  EXPECT_GT(ed.overflow(), 0.2);
}

TEST(ElectroTest, GradientRoughlyMatchesFiniteDifference) {
  // The electrostatic gradient is exact for the spectral field but the
  // per-device averaging makes it an approximation; check direction and
  // magnitude within a loose factor.
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(test::compile(c), {0, 0, 16, 16}, 32, 32);
  const std::vector<double> v{7.0, 9.0, 8.0, 8.2};
  std::vector<double> g(4, 0.0);
  ed.value_and_grad(v, g, 1.0);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> tmp(4, 0.0);
        return ed.value_and_grad(x, tmp, 0.0);
      },
      v, 1e-4);
  for (int i = 0; i < 4; ++i) {
    if (std::abs(fd[i]) < 1e-3) continue;
    EXPECT_GT(g[i] * fd[i], 0.0) << "sign mismatch at " << i;
    // Per-device field averaging makes this a fairly coarse approximation
    // of the finite-difference derivative; direction and rough magnitude
    // are what the optimizer relies on.
    EXPECT_NEAR(g[i], fd[i], 0.75 * std::abs(fd[i]) + 1e-2) << i;
  }
}

TEST(ElectroTest, EscapedDeviceFeelsRestoringForce) {
  // A device dragged fully outside the region used to accumulate zero
  // overlap and silently feel no density force; the clamped lookup must
  // give it a nonzero gradient pointing back inside.
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(test::compile(c), {0, 0, 16, 16}, 16, 16);
  // Device 0 escaped far left of the region, device 1 well inside.
  const std::vector<double> v{-6.0, 8.0, 8.0, 8.0};
  std::vector<double> g(4, 0.0);
  ed.value_and_grad(v, g, 1.0);
  // Descent direction -g must move device 0 in +x (back toward the region):
  // its charge lands in the boundary bins, and the Neumann mirror image
  // repels it inward.
  EXPECT_LT(g[0], 0.0) << "escaped device must be pulled back inside";
  EXPECT_NE(g[0], 0.0);

  // Same on the other axis: escaped above the region, pulled down.
  const std::vector<double> vy{8.0, 8.0, 23.0, 8.0};
  std::fill(g.begin(), g.end(), 0.0);
  ed.value_and_grad(vy, g, 1.0);
  EXPECT_GT(g[2], 0.0) << "escaped device must be pulled back down";
}

TEST(ElectroTest, GradientMatchesFiniteDifferenceOnFftPath) {
  // Finite-difference sanity of the gradient after the FFT rewiring, on a
  // power-of-two grid (the FFT path) at a different size than the legacy
  // test. Tolerances are loose for the same reason as above: the per-device
  // field averaging is an approximation of dN/dv.
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(test::compile(c), {0, 0, 16, 16}, 64, 64);
  const std::vector<double> v{6.5, 9.5, 8.5, 7.5};
  std::vector<double> g(4, 0.0);
  ed.value_and_grad(v, g, 1.0);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> tmp(4, 0.0);
        return ed.value_and_grad(x, tmp, 0.0);
      },
      v, 1e-4);
  for (int i = 0; i < 4; ++i) {
    if (std::abs(fd[i]) < 1e-3) continue;
    EXPECT_GT(g[i] * fd[i], 0.0) << "sign mismatch at " << i;
    EXPECT_NEAR(g[i], fd[i], 0.75 * std::abs(fd[i]) + 1e-2) << i;
  }
}

TEST(BellTest, ValueProfile) {
  const double w = 4, wb = 1;
  EXPECT_NEAR(bell_value(0, w, wb), 1.0, 1e-12);
  // Support ends at w/2 + 2wb = 4.
  EXPECT_NEAR(bell_value(4.0, w, wb), 0.0, 1e-12);
  EXPECT_NEAR(bell_value(5.0, w, wb), 0.0, 1e-12);
  // Continuity at the branch point d1 = 3.
  EXPECT_NEAR(bell_value(3.0 - 1e-9, w, wb), bell_value(3.0 + 1e-9, w, wb),
              1e-6);
  // Monotone decreasing on [0, 4].
  double prev = 2;
  for (double d = 0; d <= 4.01; d += 0.25) {
    const double val = bell_value(d, w, wb);
    EXPECT_LE(val, prev + 1e-12);
    prev = val;
  }
}

TEST(BellTest, DerivativeMatchesFiniteDifference) {
  const double w = 3, wb = 0.7;
  for (double d : {-3.0, -1.2, -0.3, 0.4, 1.1, 2.0, 2.6}) {
    const double fd =
        (bell_value(d + 1e-6, w, wb) - bell_value(d - 1e-6, w, wb)) / 2e-6;
    EXPECT_NEAR(bell_derivative(d, w, wb), fd, 1e-5) << "d=" << d;
  }
}

TEST(BellDensityTest, PenaltyDropsWhenSpread) {
  // Needs bins fine enough that the bell-smoothed density can exceed a full
  // bin where the devices overlap (32 bins -> 0.5 um over 2-4 um devices).
  const netlist::Circuit c = test::two_device_circuit();
  BellDensity bd(test::compile(c), {0, 0, 16, 16}, 32, 32);
  std::vector<double> g(4, 0.0);
  const std::vector<double> vs{8, 8, 8, 8};
  const std::vector<double> vp{4, 12, 8, 8};
  const double stacked = bd.value_and_grad(vs, g, 0.0);
  const double spread = bd.value_and_grad(vp, g, 0.0);
  EXPECT_LT(spread, stacked);
}

TEST(BellDensityTest, GradientMatchesFiniteDifference) {
  const netlist::Circuit c = test::two_device_circuit();
  BellDensity bd(test::compile(c), {0, 0, 16, 16}, 16, 16);
  const std::vector<double> v{7.2, 9.1, 7.9, 8.3};
  std::vector<double> g(4, 0.0);
  bd.value_and_grad(v, g, 1.0);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> tmp(4, 0.0);
        return bd.value_and_grad(x, tmp, 0.0);
      },
      v, 1e-5);
  for (int i = 0; i < 4; ++i) {
    // Normalizers are held constant in the analytic gradient (NTUplace3
    // convention), so allow a modest tolerance.
    EXPECT_NEAR(g[i], fd[i], 0.2 * std::abs(fd[i]) + 0.05) << i;
  }
}

// ---- separable bell kernel vs. the per-bin oracle ---------------------------

// The four placement shapes the oracle comparison sweeps: devices piled at
// the center (the GP start), spread over the region, partly escaped past
// its edges (clamped bin ranges), and uniformly random.
enum class Shape : std::uint8_t { Clustered, Spread, Escaped, Random };
constexpr Shape kShapes[] = {Shape::Clustered, Shape::Spread, Shape::Escaped,
                             Shape::Random};

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::Clustered: return "clustered";
    case Shape::Spread: return "spread";
    case Shape::Escaped: return "escaped";
    case Shape::Random: return "random";
  }
  return "?";
}

std::vector<double> shaped_positions(Shape shape, std::size_t n, double side) {
  std::vector<double> v(2 * n);
  numeric::Rng rng(17);
  const double golden = std::numbers::pi * (3.0 - std::sqrt(5.0));
  for (std::size_t i = 0; i < n; ++i) {
    const double fi = static_cast<double>(i);
    double x = 0, y = 0;
    switch (shape) {
      case Shape::Clustered: {
        const double r = 0.02 * side * std::sqrt(fi + 0.5);
        x = 0.5 * side + r * std::cos(golden * fi);
        y = 0.5 * side + r * std::sin(golden * fi);
        break;
      }
      case Shape::Spread:
        x = side * (0.5 + 0.45 * std::sin(1.7 * fi + 0.3));
        y = side * (0.5 + 0.45 * std::cos(2.3 * fi + 1.1));
        break;
      case Shape::Escaped:
        x = side * (0.5 + 0.8 * std::sin(1.3 * fi + 0.7));
        y = side * (0.5 + 0.8 * std::cos(0.9 * fi + 0.2));
        if (i % 3 == 0) x += (i % 2 == 0 ? -1.0 : 1.0) * side;
        break;
      case Shape::Random:
        x = rng.uniform(0.0, side);
        y = rng.uniform(0.0, side);
        break;
    }
    v[i] = x;
    v[n + i] = y;
  }
  return v;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

class BellOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BellOracleTest, SeparableKernelMatchesPerBinOracleBitwise) {
  const circuits::TestCase tc = circuits::make_testcase(GetParam());
  const auto cc = test::compile(tc.circuit);
  const std::size_t n = cc->num_devices();
  const double side = std::sqrt(cc->total_device_area() / 0.5);
  const geom::Rect region{0, 0, side, side};
  for (const std::size_t bins : {16u, 32u, 64u}) {
    BellDensity bd(cc, region, bins, bins);
    for (const Shape shape : kShapes) {
      const std::vector<double> v = shaped_positions(shape, n, side);
      // Start from a nonzero gradient: both kernels add scale * grad.
      std::vector<double> g(2 * n), g_ref(2 * n);
      for (std::size_t k = 0; k < 2 * n; ++k) {
        g[k] = g_ref[k] = 0.125 * static_cast<double>(k % 7) - 0.3;
      }
      const double value = bd.value_and_grad(v, g, 0.7);
      const oracle::BellEval ref =
          oracle::bell_value_and_grad(*cc, bd.grid(), v, g_ref, 0.7);
      const std::string where = GetParam() + " bins=" + std::to_string(bins) +
                                " shape=" + shape_name(shape);
      EXPECT_GT(ref.value + ref.overflow, 0.0) << where;
      EXPECT_EQ(bits(value), bits(ref.value)) << where;
      EXPECT_EQ(bits(bd.overflow()), bits(ref.overflow)) << where;
      for (std::size_t k = 0; k < 2 * n; ++k) {
        ASSERT_EQ(bits(g[k]), bits(g_ref[k])) << where << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, BellOracleTest,
                         ::testing::ValuesIn(circuits::testcase_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// ---- spectral energy vs. the spatial formula --------------------------------

// N = 1/2 sum_i (q_i / A_i) sum_b ov_ib psi_b over the inflated, clamped
// footprints: the per-device potential average value_and_grad used before
// it took N from the DCT coefficients. psi is synthesized here from rho.
double spatial_energy(const ElectroDensity& ed,
                      const netlist::CompiledCircuit& cc,
                      std::span<const double> v) {
  const BinGrid& grid = ed.grid();
  const std::size_t nx = grid.nx(), ny = grid.ny();
  const numeric::spectral::Basis bx(nx), by(ny);
  numeric::Matrix psi = numeric::spectral::dct2d(ed.rho(), bx, by);
  for (std::size_t r = 0; r < ny; ++r) {
    const double wv = std::numbers::pi * static_cast<double>(r) /
                      static_cast<double>(ny) / grid.bin_h();
    for (std::size_t c = 0; c < nx; ++c) {
      const double wu = std::numbers::pi * static_cast<double>(c) /
                        static_cast<double>(nx) / grid.bin_w();
      const double w2 = wu * wu + wv * wv;
      psi(r, c) = w2 > 0 ? psi(r, c) / w2 : 0.0;
    }
  }
  psi = numeric::spectral::idct2d(psi, bx, by);

  const std::size_t n = cc.num_devices();
  const geom::Rect& rg = grid.region();
  double energy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = std::max(cc.dev_width()[i],
                              std::numbers::sqrt2 * grid.bin_w());
    const double h = std::max(cc.dev_height()[i],
                              std::numbers::sqrt2 * grid.bin_h());
    const double x = std::clamp(v[i], rg.xlo() + w / 2, rg.xhi() - w / 2);
    const double y = std::clamp(v[n + i], rg.ylo() + h / 2, rg.yhi() - h / 2);
    const geom::Rect rect = geom::Rect::centered({x, y}, w, h);
    const auto [cx0, cx1] = grid.x_range(rect.xlo(), rect.xhi());
    const auto [cy0, cy1] = grid.y_range(rect.ylo(), rect.yhi());
    double psi_acc = 0, area_acc = 0;
    for (std::size_t r = cy0; r <= cy1; ++r) {
      for (std::size_t c = cx0; c <= cx1; ++c) {
        const double ov = grid.bin_rect(r, c).overlap_area(rect);
        if (ov <= 0) continue;
        psi_acc += ov * psi(r, c);
        area_acc += ov;
      }
    }
    energy += 0.5 * (cc.dev_area()[i] / area_acc) * psi_acc;
  }
  return energy;
}

class SpectralEnergyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SpectralEnergyTest, MatchesSpatialFormula) {
  const circuits::TestCase tc = circuits::make_testcase(GetParam());
  const auto cc = test::compile(tc.circuit);
  const std::size_t n = cc->num_devices();
  const double side = std::sqrt(cc->total_device_area() / 0.5);
  for (const std::size_t bins : {16u, 32u, 64u}) {
    ElectroDensity ed(cc, {0, 0, side, side}, bins, bins);
    for (const Shape shape : kShapes) {
      const std::vector<double> v = shaped_positions(shape, n, side);
      std::vector<double> g(2 * n, 0.0);
      const double energy = ed.value_and_grad(v, g, 1.0);
      const double ref = spatial_energy(ed, *cc, v);
      const std::string where = GetParam() + " bins=" + std::to_string(bins) +
                                " shape=" + shape_name(shape);
      ASSERT_GT(ref, 0.0) << where;
      EXPECT_LE(std::abs(energy - ref), 1e-10 * ref)
          << where << " spectral=" << energy << " spatial=" << ref;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, SpectralEnergyTest,
                         ::testing::ValuesIn(circuits::testcase_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace aplace::density
