// Common-centroid constraint: netlist validation, evaluator residuals,
// GP penalty gradient, and exact satisfaction through both legalizers.

#include <gtest/gtest.h>

#include "gp/penalties.hpp"
#include "legal/ilp_detailed.hpp"
#include "legal/two_stage_lp.hpp"
#include "netlist/evaluator.hpp"
#include "test_util.hpp"

namespace aplace {
namespace {

// Four matched 2x2 devices (a cross-coupled quad) plus a bias device.
netlist::Circuit quad_circuit() {
  netlist::Circuit c("quad");
  std::vector<PinId> pins;
  for (const char* name : {"A1", "A2", "B1", "B2", "T"}) {
    const DeviceId d = c.add_device(name, netlist::DeviceType::Nmos, 2, 2);
    pins.push_back(c.add_center_pin(d, "p"));
  }
  c.add_net("n", pins);
  c.add_common_centroid({c.find_device("A1"), c.find_device("A2"),
                         c.find_device("B1"), c.find_device("B2")});
  c.finalize();
  return c;
}

TEST(CentroidTest, RejectsDuplicateDevices) {
  netlist::Circuit c("bad");
  const DeviceId a = c.add_device("A", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId b = c.add_device("B", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId d = c.add_device("D", netlist::DeviceType::Nmos, 2, 2);
  EXPECT_THROW(c.add_common_centroid({a, a, b, d}), CheckError);
}

TEST(CentroidTest, FinalizeRejectsFootprintMismatch) {
  netlist::Circuit c("bad2");
  const DeviceId a1 = c.add_device("A1", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId a2 = c.add_device("A2", netlist::DeviceType::Nmos, 3, 2);
  const DeviceId b1 = c.add_device("B1", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId b2 = c.add_device("B2", netlist::DeviceType::Nmos, 2, 2);
  std::vector<PinId> pins;
  for (DeviceId d : {a1, a2, b1, b2}) {
    pins.push_back(c.add_center_pin(d, "p"));
  }
  c.add_net("n", pins);
  c.add_common_centroid({a1, a2, b1, b2});
  EXPECT_THROW(c.finalize(), CheckError);
}

TEST(CentroidTest, EvaluatorResidual) {
  const netlist::Circuit c = quad_circuit();
  netlist::Placement pl(c);
  // Perfect cross-coupled 2x2 arrangement.
  pl.set_position(c.find_device("A1"), {1, 1});
  pl.set_position(c.find_device("B1"), {3, 1});
  pl.set_position(c.find_device("B2"), {1, 3});
  pl.set_position(c.find_device("A2"), {3, 3});
  pl.set_position(c.find_device("T"), {6, 1});
  const netlist::Evaluator ev(c);
  EXPECT_NEAR(ev.centroid_residual(pl, c.constraints().common_centroids[0]),
              0.0, 1e-12);
  EXPECT_TRUE(ev.evaluate(pl).legal());

  pl.set_position(c.find_device("A2"), {4, 3});  // break by 1 in x
  EXPECT_NEAR(ev.centroid_residual(pl, c.constraints().common_centroids[0]),
              1.0, 1e-12);
  EXPECT_FALSE(ev.evaluate(pl).legal());
}

TEST(CentroidTest, PenaltyGradientMatchesFiniteDifference) {
  const netlist::Circuit c = quad_circuit();
  const gp::ConstraintPenalties pen(test::compile(c));
  std::vector<double> v{0.7, 3.1, 2.9, 1.2, 6.0, 1.1, 2.8, 0.9, 3.3, 1.0};
  std::vector<double> grad(v.size(), 0.0);
  pen.common_centroid(v, grad, 1.0);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> g(x.size(), 0.0);
        return pen.common_centroid(x, g, 1.0);
      },
      v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(grad[i], fd[i], 1e-6 + 1e-6 * std::abs(fd[i])) << i;
  }
}

TEST(CentroidTest, IlpSatisfiesExactly) {
  const netlist::Circuit c = quad_circuit();
  // Start from a rough cross arrangement with overlap.
  const std::vector<double> v{1.0, 2.6, 2.4, 0.8, 5.5,
                              1.0, 2.6, 0.9, 2.7, 1.0};
  const legal::IlpResult r =
      legal::IlpDetailedPlacer(test::compile(c)).place(v);
  ASSERT_TRUE(r.ok());
  const netlist::QualityReport q = netlist::Evaluator(c).evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6)) << "centroid=" << q.centroid_violation
                             << " overlap=" << q.overlap_area;
  EXPECT_NEAR(q.centroid_violation, 0.0, 1e-6);
}

TEST(CentroidTest, TwoStageSatisfiesExactly) {
  const netlist::Circuit c = quad_circuit();
  const std::vector<double> v{1.0, 2.6, 2.4, 0.8, 5.5,
                              1.0, 2.6, 0.9, 2.7, 1.0};
  const legal::TwoStageResult r =
      legal::TwoStageLpLegalizer(test::compile(c)).place(v);
  ASSERT_TRUE(r.ok());
  const netlist::QualityReport q = netlist::Evaluator(c).evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6)) << "centroid=" << q.centroid_violation;
}

}  // namespace
}  // namespace aplace
