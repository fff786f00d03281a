// GNN performance model: graph construction, forward/backward correctness
// (finite differences on both weights and input coordinates) and training.

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/testcases.hpp"
#include "gnn/graph.hpp"
#include "gnn/model.hpp"
#include "gnn/trainer.hpp"
#include "test_util.hpp"

namespace aplace::gnn {
namespace {

std::vector<double> grid_positions(const netlist::Circuit& c) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    // Irregular spacing: keeps every laplacian feature away from its |.|
    // kink so finite differences are valid.
    v[i] = 2.0 * static_cast<double>(i % 4) + 1 +
           0.137 * static_cast<double>(i);
    v[n + i] = 2.0 * static_cast<double>(i / 4) + 1 +
               0.211 * static_cast<double>((i * 7) % 5);
  }
  return v;
}

TEST(CircuitGraphTest, AdjacencyRowStochastic) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(test::compile(tc.circuit), 10.0);
  const numeric::Matrix& a = g.adjacency();
  ASSERT_EQ(a.rows(), tc.circuit.num_devices());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double row = 0;
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_GE(a(r, c), 0.0);
      row += a(r, c);
    }
    EXPECT_NEAR(row, 1.0, 1e-12);
    EXPECT_GT(a(r, r), 0.0) << "self loop present";
  }
}

TEST(CircuitGraphTest, ConnectedDevicesShareEdges) {
  const netlist::Circuit c = test::two_device_circuit();
  const CircuitGraph g(test::compile(c), 10.0);
  EXPECT_GT(g.adjacency()(0, 1), 0.0);
  EXPECT_GT(g.adjacency()(1, 0), 0.0);
}

TEST(CircuitGraphTest, FeaturesCarryPositionsAndStatics) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(test::compile(tc.circuit), 10.0);
  const std::vector<double> v = grid_positions(tc.circuit);
  const numeric::Matrix f = g.features(v);
  ASSERT_EQ(f.cols(), kFeatureDim);
  const std::size_t n = tc.circuit.num_devices();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(f(i, 0), v[i] / 10.0);
    EXPECT_DOUBLE_EQ(f(i, 1), v[n + i] / 10.0);
    // Exactly one type one-hot set.
    double onehot = 0;
    for (std::size_t t = 0; t < kNumDeviceTypes; ++t) onehot += f(i, 4 + t);
    EXPECT_DOUBLE_EQ(onehot, 1.0);
  }
}

TEST(GnnModelTest, ForwardInUnitInterval) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(test::compile(tc.circuit), 10.0);
  GnnModel model;
  numeric::Rng rng(3);
  model.initialize(rng);
  GnnModel::Activations act;
  const double phi =
      model.forward(g.adjacency(), g.features(grid_positions(tc.circuit)), act);
  EXPECT_GT(phi, 0.0);
  EXPECT_LT(phi, 1.0);
  EXPECT_DOUBLE_EQ(act.phi, phi);
}

TEST(GnnModelTest, ParameterRoundtrip) {
  GnnModel model;
  numeric::Rng rng(5);
  model.initialize(rng);
  const std::vector<double> p = model.parameters();
  ASSERT_EQ(p.size(), model.num_parameters());
  GnnModel copy;
  copy.set_parameters(p);
  EXPECT_EQ(copy.parameters(), p);
}

TEST(GnnModelTest, WeightGradientMatchesFiniteDifference) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(test::compile(tc.circuit), 10.0);
  GnnModel model;
  numeric::Rng rng(7);
  model.initialize(rng);
  const numeric::Matrix x = g.features(grid_positions(tc.circuit));

  GnnModel::Activations act;
  model.forward(g.adjacency(), x, act);
  std::vector<double> grad(model.num_parameters(), 0.0);
  // d(logit)/d(params): dlogit = 1.
  model.backward(g.adjacency(), act, 1.0, grad, nullptr);

  std::vector<double> params = model.parameters();
  const double h = 1e-6;
  // Spot-check a spread of parameter indices (full sweep is slow).
  for (std::size_t k = 0; k < params.size();
       k += std::max<std::size_t>(params.size() / 37, 1)) {
    const double orig = params[k];
    params[k] = orig + h;
    model.set_parameters(params);
    model.forward(g.adjacency(), x, act);
    const double lp = act.logit;
    params[k] = orig - h;
    model.set_parameters(params);
    model.forward(g.adjacency(), x, act);
    const double lm = act.logit;
    params[k] = orig;
    model.set_parameters(params);
    const double fd = (lp - lm) / (2 * h);
    EXPECT_NEAR(grad[k], fd, 1e-5 + 1e-4 * std::abs(fd)) << "param " << k;
  }
}

TEST(GnnModelTest, InputGradientMatchesFiniteDifference) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(test::compile(tc.circuit), 10.0);
  GnnModel model;
  numeric::Rng rng(11);
  model.initialize(rng);
  std::vector<double> v = grid_positions(tc.circuit);

  numeric::Matrix xg;
  const double phi0 =
      model.phi_and_input_grad(g.adjacency(), g.features(v), xg);
  (void)phi0;
  std::vector<double> grad_v(v.size(), 0.0);
  g.accumulate_position_grad(xg, grad_v);

  GnnModel::Activations act;
  const double h = 1e-5;
  for (std::size_t i = 0; i < v.size(); i += 3) {
    const double orig = v[i];
    v[i] = orig + h;
    const double fp = model.forward(g.adjacency(), g.features(v), act);
    v[i] = orig - h;
    const double fm = model.forward(g.adjacency(), g.features(v), act);
    v[i] = orig;
    const double fd = (fp - fm) / (2 * h);
    EXPECT_NEAR(grad_v[i], fd, 1e-6 + 1e-3 * std::abs(fd)) << "coord " << i;
  }
}

TEST(TrainerTest, LearnsSeparableLabels) {
  // Label = 1 when the layout is "stretched" (device 0 far right). The GNN
  // must learn this from coordinates.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const netlist::Circuit& c = tc.circuit;
  const CircuitGraph g(test::compile(c), 10.0);
  const std::size_t n = c.num_devices();

  numeric::Rng rng(13);
  std::vector<Sample> samples;
  for (int k = 0; k < 160; ++k) {
    std::vector<double> v(2 * n);
    const bool stretched = k % 2 == 0;
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = rng.uniform(0, 4) + (stretched ? 12.0 : 0.0);
      v[n + i] = rng.uniform(0, 4);
    }
    samples.push_back({std::move(v), stretched ? 1.0 : 0.0});
  }

  GnnModel model;
  numeric::Rng init(17);
  model.initialize(init);
  TrainOptions topts;
  topts.epochs = 250;
  topts.lr = 2e-2;
  Trainer trainer(g, model, topts);
  const TrainReport report = trainer.train(samples);
  EXPECT_GT(report.train_accuracy, 0.95) << "loss=" << report.final_loss;
  EXPECT_GT(report.validation_accuracy, 0.9);
}

}  // namespace
}  // namespace aplace::gnn
