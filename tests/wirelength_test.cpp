// Wirelength smoothing: WA/LSE values bound exact HPWL, gradients match
// finite differences, gamma annealing tightens the approximation, and the
// area term behaves likewise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "circuits/testcases.hpp"
#include "netlist/placement.hpp"
#include "test_util.hpp"
#include "wirelength/area_term.hpp"
#include "wirelength/smooth_wl.hpp"

namespace aplace {
namespace {

using test::numeric_gradient;

std::vector<double> spread_positions(const netlist::Circuit& c,
                                     double pitch = 3.1) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.7 * static_cast<double>(i % 5) + 0.3 * static_cast<double>(i);
    v[n + i] = pitch * static_cast<double>(i / 5) +
               0.7 * static_cast<double>(i % 3);
  }
  return v;
}

TEST(WirelengthTest, ExactHpwlMatchesPlacement) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const netlist::Circuit& c = tc.circuit;
  const std::size_t n = c.num_devices();
  const std::vector<double> v = spread_positions(c);

  netlist::Placement pl(c);
  for (std::size_t i = 0; i < n; ++i) {
    pl.set_position(DeviceId{i}, {v[i], v[n + i]});
  }
  wirelength::WaWirelength wl(test::compile(c));
  EXPECT_NEAR(wl.exact_hpwl(v), pl.total_hpwl(), 1e-9);
}

TEST(WirelengthTest, DegenerateNetsAreSkipped) {
  // A single-pin (dangling) net used to reach minmax_element on the pin
  // range; it must contribute nothing to value, gradient or exact HPWL.
  netlist::Circuit c("dangling");
  const DeviceId a = c.add_device("A", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId b = c.add_device("B", netlist::DeviceType::Nmos, 2, 2);
  const PinId pa = c.add_pin(a, "p", {1, 1});
  const PinId pb = c.add_pin(b, "p", {1, 1});
  const PinId dangling = c.add_pin(b, "q", {0.5, 0.5});
  c.add_net("n", {pa, pb});
  c.add_net("stub", {dangling}, /*weight=*/7.0);
  c.finalize();

  netlist::Circuit ref("reference");
  const DeviceId ra = ref.add_device("A", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId rb = ref.add_device("B", netlist::DeviceType::Nmos, 2, 2);
  ref.add_net("n", {ref.add_pin(ra, "p", {1, 1}), ref.add_pin(rb, "p", {1, 1})});
  ref.finalize();

  const std::vector<double> v{0.0, 5.0, 1.0, 4.0};
  wirelength::WaWirelength wl(test::compile(c));
  wirelength::WaWirelength wl_ref(test::compile(ref));
  EXPECT_DOUBLE_EQ(wl.exact_hpwl(v), wl_ref.exact_hpwl(v));

  std::vector<double> g(4, 0.0), g_ref(4, 0.0);
  EXPECT_DOUBLE_EQ(wl.value_and_grad(v, g), wl_ref.value_and_grad(v, g_ref));
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(g[i], g_ref[i]);

  wirelength::LseWirelength lse(test::compile(c));
  std::fill(g.begin(), g.end(), 0.0);
  EXPECT_TRUE(std::isfinite(lse.value_and_grad(v, g)));
}

TEST(WirelengthTest, WaOverestimatesShrinkingWithGamma) {
  const netlist::Circuit c = test::two_device_circuit();
  std::vector<double> v = {0.0, 7.0, 0.0, 3.0};
  wirelength::WaWirelength wl(test::compile(c));
  const double exact = wl.exact_hpwl(v);

  std::vector<double> grad(4, 0.0);
  wl.set_gamma(4.0);
  const double loose = wl.value_and_grad(v, grad);
  wl.set_gamma(0.05);
  std::fill(grad.begin(), grad.end(), 0.0);
  const double tight = wl.value_and_grad(v, grad);

  // WA underestimates the true max-min extent; tighter gamma approaches it.
  EXPECT_LE(loose, exact + 1e-9);
  EXPECT_LE(tight, exact + 1e-9);
  EXPECT_GT(tight, loose - 1e-12);
  EXPECT_NEAR(tight, exact, 0.05 * exact + 1e-6);
}

TEST(WirelengthTest, LseOverestimatesShrinkingWithGamma) {
  const netlist::Circuit c = test::two_device_circuit();
  std::vector<double> v = {0.0, 7.0, 0.0, 3.0};
  wirelength::LseWirelength wl(test::compile(c));
  const double exact = wl.exact_hpwl(v);

  std::vector<double> grad(4, 0.0);
  wl.set_gamma(4.0);
  const double loose = wl.value_and_grad(v, grad);
  wl.set_gamma(0.05);
  std::fill(grad.begin(), grad.end(), 0.0);
  const double tight = wl.value_and_grad(v, grad);

  // LSE overestimates; tighter gamma approaches from above.
  EXPECT_GE(loose, exact - 1e-9);
  EXPECT_GE(tight, exact - 1e-9);
  EXPECT_LE(tight, loose + 1e-12);
  EXPECT_NEAR(tight, exact, 0.05 * exact + 1e-6);
}

// WA estimation error should be smaller than LSE at equal gamma (the
// paper's reason for choosing WA, after Hsu et al. DAC'11).
// Characterization: both smoothers converge to the exact HPWL as gamma
// shrinks, from below (WA) and above (LSE). Note: the paper (citing Hsu et
// al. DAC'11) attributes part of ePlace-A's edge to WA being tighter than
// LSE; for the low-degree nets that dominate analog circuits the two are
// actually comparable — for a 2-pin net of extent d, |err_WA| ~ 2d e^{-d/g}
// vs |err_LSE| ~ 2g e^{-d/g} — so we only assert convergence, not ranking.
// (Recorded as a reproduction finding in EXPERIMENTS.md.)
TEST(WirelengthTest, BothSmoothersConvergeWithGamma) {
  for (const std::string& name : {"Adder", "VGA", "SCF"}) {
    circuits::TestCase tc = circuits::make_testcase(name);
    const netlist::Circuit& c = tc.circuit;
    const std::vector<double> v = spread_positions(c);
    wirelength::WaWirelength wa(test::compile(c));
    wirelength::LseWirelength lse(test::compile(c));
    std::vector<double> g(v.size(), 0.0);
    const double exact = wa.exact_hpwl(v);
    double prev_wa = -1e300, prev_lse = 1e300;
    for (double gamma : {2.0, 0.5, 0.1}) {
      wa.set_gamma(gamma);
      lse.set_gamma(gamma);
      std::fill(g.begin(), g.end(), 0.0);
      const double vwa = wa.value_and_grad(v, g);
      std::fill(g.begin(), g.end(), 0.0);
      const double vlse = lse.value_and_grad(v, g);
      EXPECT_LE(vwa, exact + 1e-6) << name;    // WA from below
      EXPECT_GE(vlse, exact - 1e-6) << name;   // LSE from above
      EXPECT_GE(vwa, prev_wa - 1e-9) << name;  // monotone in gamma
      EXPECT_LE(vlse, prev_lse + 1e-9) << name;
      prev_wa = vwa;
      prev_lse = vlse;
    }
    EXPECT_NEAR(prev_wa, exact, 0.02 * exact);
    EXPECT_NEAR(prev_lse, exact, 0.02 * exact);
  }
}

// The kind is a std::string, not a const char*: gtest prints a char pointer
// with its address, which would put a per-run address in the test's name.
class SmoothWlGradientTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(SmoothWlGradientTest, MatchesFiniteDifference) {
  const auto [kind, gamma] = GetParam();
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const netlist::Circuit& c = tc.circuit;
  const std::vector<double> v = spread_positions(c);

  std::unique_ptr<wirelength::SmoothWirelength> wl;
  if (kind == "wa") {
    wl = std::make_unique<wirelength::WaWirelength>(test::compile(c));
  } else {
    wl = std::make_unique<wirelength::LseWirelength>(test::compile(c));
  }
  wl->set_gamma(gamma);

  std::vector<double> grad(v.size(), 0.0);
  wl->value_and_grad(v, grad);

  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> g(x.size(), 0.0);
        return wl->value_and_grad(x, g);
      },
      v);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(grad[i], fd[i], 1e-5 + 1e-4 * std::abs(fd[i]))
        << kind << " gamma=" << gamma << " index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gammas, SmoothWlGradientTest,
    ::testing::Combine(::testing::Values(std::string("wa"), std::string("lse")),
                       ::testing::Values(0.3, 1.0, 5.0)));

TEST(AreaTermTest, ExactAreaMatchesPlacementBbox) {
  circuits::TestCase tc = circuits::make_testcase("VGA");
  const netlist::Circuit& c = tc.circuit;
  const std::size_t n = c.num_devices();
  const std::vector<double> v = spread_positions(c);
  netlist::Placement pl(c);
  for (std::size_t i = 0; i < n; ++i) {
    pl.set_position(DeviceId{i}, {v[i], v[n + i]});
  }
  wirelength::WaAreaTerm area(test::compile(c));
  EXPECT_NEAR(area.exact_area(v), pl.layout_area(), 1e-9);
}

TEST(AreaTermTest, GradientMatchesFiniteDifference) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const netlist::Circuit& c = tc.circuit;
  const std::vector<double> v = spread_positions(c);
  wirelength::WaAreaTerm area(test::compile(c));
  area.set_gamma(0.8);

  std::vector<double> grad(v.size(), 0.0);
  area.value_and_grad(v, grad, 1.0);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> g(x.size(), 0.0);
        return area.value_and_grad(x, g, 1.0);
      },
      v);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(grad[i], fd[i], 1e-4 + 1e-4 * std::abs(fd[i])) << i;
  }
}

TEST(AreaTermTest, SmoothedAreaApproachesExact) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const std::vector<double> v = spread_positions(tc.circuit);
  wirelength::WaAreaTerm area(test::compile(tc.circuit));
  std::vector<double> g(v.size(), 0.0);
  area.set_gamma(0.05);
  const double smoothed = area.value_and_grad(v, g, 0.0);
  EXPECT_NEAR(smoothed, area.exact_area(v), 0.1 * area.exact_area(v));
}

}  // namespace
}  // namespace aplace
