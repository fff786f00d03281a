// Global placement: constraint-penalty gradients against finite
// differences, symmetry projection, and end-to-end behaviour of both GP
// engines (spreading, constraint satisfaction trends, extra-term hooks).

#include <gtest/gtest.h>

#include "circuits/testcases.hpp"
#include "gp/eplace_gp.hpp"
#include "gp/ntu_gp.hpp"
#include "gp/penalties.hpp"
#include "netlist/placement.hpp"
#include "test_util.hpp"

namespace aplace::gp {
namespace {

std::vector<double> irregular_positions(const netlist::Circuit& c) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 2.3 * static_cast<double>(i % 4) + 0.31 * static_cast<double>(i);
    v[n + i] =
        1.9 * static_cast<double>(i / 4) + 0.17 * static_cast<double>(i % 7);
  }
  return v;
}

class PenaltyGradientTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PenaltyGradientTest, MatchesFiniteDifference) {
  const std::string kind = GetParam();
  const netlist::Circuit c = test::constrained_circuit();
  const ConstraintPenalties pen(test::compile(c));
  const std::vector<double> v = irregular_positions(c);
  const geom::Rect region{0.5, 0.5, 6.0, 5.0};  // forces boundary hinges on

  auto eval = [&](const std::vector<double>& x, std::vector<double>* g) {
    std::vector<double> tmp(x.size(), 0.0);
    double val = 0;
    if (kind == "symmetry") val = pen.symmetry(x, tmp, 1.0);
    else if (kind == "alignment") val = pen.alignment(x, tmp, 1.0);
    else if (kind == "ordering") val = pen.ordering(x, tmp, 1.0);
    else val = pen.boundary(x, tmp, 1.0, region);
    if (g) *g = tmp;
    return val;
  };

  std::vector<double> grad;
  eval(v, &grad);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) { return eval(x, nullptr); }, v);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(grad[i], fd[i], 1e-4 + 1e-4 * std::abs(fd[i]))
        << kind << " index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, PenaltyGradientTest,
                         ::testing::Values("symmetry", "alignment",
                                           "ordering", "boundary"));

TEST(PenaltiesTest, SymmetryZeroAtSymmetricState) {
  const netlist::Circuit c = test::constrained_circuit();
  const ConstraintPenalties pen(test::compile(c));
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n, 0.0);
  // A, B mirrored about x=5 at equal y; S centered.
  v[c.find_device("A").index()] = 3;
  v[c.find_device("B").index()] = 7;
  v[n + c.find_device("A").index()] = 2;
  v[n + c.find_device("B").index()] = 2;
  v[c.find_device("S").index()] = 5;
  v[c.find_device("R1").index()] = 1;
  v[c.find_device("R2").index()] = 9;
  std::vector<double> g(2 * n, 0.0);
  EXPECT_NEAR(pen.symmetry(v, g, 1.0), 0.0, 1e-12);
}

TEST(PenaltiesTest, ProjectionZeroesSymmetryPenalty) {
  const netlist::Circuit c = test::constrained_circuit();
  const ConstraintPenalties pen(test::compile(c));
  std::vector<double> v = irregular_positions(c);
  std::vector<double> g(v.size(), 0.0);
  EXPECT_GT(pen.symmetry(v, g, 1.0), 0.0);
  pen.project_symmetry(v);
  std::fill(g.begin(), g.end(), 0.0);
  EXPECT_NEAR(pen.symmetry(v, g, 1.0), 0.0, 1e-12);
}

TEST(PenaltiesTest, BoundaryZeroInside) {
  const netlist::Circuit c = test::constrained_circuit();
  const ConstraintPenalties pen(test::compile(c));
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n, 50.0);  // all well inside a huge region
  std::vector<double> g(2 * n, 0.0);
  EXPECT_DOUBLE_EQ(pen.boundary(v, g, 1.0, {0, 0, 100, 100}), 0.0);
  for (double x : g) EXPECT_DOUBLE_EQ(x, 0.0);
}

// --- ePlace GP ---------------------------------------------------------------

TEST(EPlaceGpTest, SpreadsAndKeepsDevicesNearRegion) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  EPlaceGlobalPlacer placer(test::compile(tc.circuit), opts);
  const GpResult r = placer.run();
  ASSERT_EQ(r.positions.size(), 2 * tc.circuit.num_devices());
  EXPECT_GT(r.iterations, opts.min_iters);

  netlist::Placement pl(tc.circuit);
  const std::size_t n = tc.circuit.num_devices();
  for (std::size_t i = 0; i < n; ++i) {
    pl.set_position(DeviceId{i}, {r.positions[i], r.positions[n + i]});
  }
  // Residual overlap far below the fully-stacked initial state.
  EXPECT_LT(pl.total_overlap_area(), 0.5 * tc.circuit.total_device_area());
  // Devices stay within (or very near) the placement region.
  const geom::Rect region = placer.region().inflated(2.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(region.contains(pl.position(DeviceId{i})))
        << tc.circuit.device(DeviceId{i}).name;
  }
}

TEST(EPlaceGpTest, DeterministicForSeed) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  const GpResult a = EPlaceGlobalPlacer(test::compile(tc.circuit), opts).run();
  const GpResult b = EPlaceGlobalPlacer(test::compile(tc.circuit), opts).run();
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.positions[i], b.positions[i]);
  }
}

TEST(EPlaceGpTest, HardSymmetryProducesExactMirrors) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  opts.hard_symmetry = true;
  EPlaceGlobalPlacer placer(test::compile(tc.circuit), opts);
  const GpResult r = placer.run();
  const ConstraintPenalties pen(test::compile(tc.circuit));
  std::vector<double> g(r.positions.size(), 0.0);
  std::vector<double> v = r.positions;
  EXPECT_NEAR(pen.symmetry(v, g, 1.0), 0.0, 1e-9);
}

TEST(EPlaceGpTest, SoftSymmetryNearlySymmetric) {
  circuits::TestCase tc = circuits::make_testcase("CM-OTA1");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  EPlaceGlobalPlacer placer(test::compile(tc.circuit), opts);
  const GpResult r = placer.run();
  const ConstraintPenalties pen(test::compile(tc.circuit));
  std::vector<double> g(r.positions.size(), 0.0);
  std::vector<double> v = r.positions;
  // Soft constraints: small but not necessarily zero residual, relative to
  // the layout scale.
  const double residual = pen.symmetry(v, g, 1.0);
  EXPECT_LT(residual, tc.circuit.total_device_area());
}

TEST(EPlaceGpTest, ExtraTermReceivesCalls) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  opts.max_iters = 40;
  opts.min_iters = 10;
  int calls = 0;
  opts.extra_term = std::make_shared<FunctionTerm>(
      "extra", [&](std::span<const double>, std::span<double>) {
        ++calls;
        return 0.0;
      });
  EPlaceGlobalPlacer placer(test::compile(tc.circuit), opts);
  (void)placer.run();
  EXPECT_GT(calls, 10);
}

TEST(EPlaceGpTest, LseSmoothingOptionRuns) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  opts.smoothing = WlSmoothing::LogSumExp;
  const GpResult r = EPlaceGlobalPlacer(test::compile(tc.circuit), opts).run();
  EXPECT_GT(r.hpwl, 0.0);
}

// --- prior-work GP --------------------------------------------------------------

TEST(NtuGpTest, RunsAndReducesWirelength) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  NtuGpOptions opts;
  PriorAnalyticalGlobalPlacer placer(test::compile(tc.circuit), opts);
  const GpResult r = placer.run();
  ASSERT_EQ(r.positions.size(), 2 * tc.circuit.num_devices());
  // Wirelength should beat a naive row placement by a wide margin.
  netlist::Placement rows(tc.circuit);
  double x = 0;
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    const netlist::Device& d = tc.circuit.device(DeviceId{i});
    rows.set_position(DeviceId{i}, {x + d.width / 2, d.height / 2});
    x += d.width;
  }
  EXPECT_LT(r.hpwl, rows.total_hpwl());
}

TEST(NtuGpTest, Deterministic) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const GpResult a =
      PriorAnalyticalGlobalPlacer(test::compile(tc.circuit), {}).run();
  const GpResult b =
      PriorAnalyticalGlobalPlacer(test::compile(tc.circuit), {}).run();
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.positions[i], b.positions[i]);
  }
}

}  // namespace
}  // namespace aplace::gp
