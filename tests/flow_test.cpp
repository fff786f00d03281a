// End-to-end flow integration: each method produces legal placements on
// paper testcases; performance-driven variants improve the GNN objective;
// ablation directions (area term, soft symmetry) match the paper.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "circuits/testcases.hpp"
#include "core/flow.hpp"
#include "core/perf_flow.hpp"

namespace aplace::core {
namespace {

class ConventionalFlowTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConventionalFlowTest, AllThreeMethodsLegal) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;

  EPlaceAOptions eopts;
  eopts.candidates = 1;  // keep the test fast
  const FlowResult ep = run_eplace_a(c, eopts);
  EXPECT_TRUE(ep.legal(1e-6)) << "ePlace-A illegal on " << GetParam();
  EXPECT_GT(ep.area(), 0);
  EXPECT_GT(ep.hpwl(), 0);

  const FlowResult pw = run_prior_work(c);
  EXPECT_TRUE(pw.legal(1e-6)) << "prior work illegal on " << GetParam();

  SaFlowOptions sopts;
  sopts.sa.max_moves = 30000;
  const FlowResult sa = run_sa(c, sopts);
  EXPECT_TRUE(sa.legal(1e-6)) << "SA illegal on " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Subset, ConventionalFlowTest,
                         ::testing::Values("Adder", "CC-OTA", "CM-OTA1",
                                           "VCO1"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(FlowTest, AreaTermAblationMatchesPaperDirection) {
  // Paper Fig. 2: dropping the area term inflates area substantially.
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceAOptions with, without;
  with.candidates = without.candidates = 1;
  without.gp.eta_rel = 0.0;
  const FlowResult rw = run_eplace_a(tc.circuit, with);
  const FlowResult ro = run_eplace_a(tc.circuit, without);
  ASSERT_TRUE(rw.legal() && ro.legal());
  EXPECT_LT(rw.area(), ro.area() * 1.10)
      << "area term should not hurt area meaningfully";
}

TEST(FlowTest, HardSymmetryRunsAndStaysLegal) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceAOptions opts;
  opts.candidates = 1;
  opts.gp.hard_symmetry = true;
  const FlowResult r = run_eplace_a(tc.circuit, opts);
  EXPECT_TRUE(r.legal(1e-6));
}

TEST(FlowTest, RuntimesAreRecorded) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceAOptions opts;
  opts.candidates = 1;
  const FlowResult r = run_eplace_a(tc.circuit, opts);
  EXPECT_GT(r.gp_seconds, 0);
  EXPECT_GT(r.dp_seconds, 0);
  EXPECT_GE(r.total_seconds, r.gp_seconds + r.dp_seconds - 1e-9);
}

TEST(FlowTest, AnalyticalFlowsCarryPerTermTraces) {
  // Both analytical placers run through CompositeObjective, so every
  // FlowResult must surface the per-term instrumentation; SA has no
  // gradient terms and stays empty.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceAOptions eopts;
  eopts.candidates = 2;  // exercise candidate trace aggregation too
  const FlowResult ep = run_eplace_a(tc.circuit, eopts);
  ASSERT_FALSE(ep.gp_trace.empty());
  for (const char* term : {"wirelength", "density", "boundary"}) {
    const gp::TermStats* st = ep.gp_trace.find(term);
    ASSERT_NE(st, nullptr) << term;
    EXPECT_GT(st->evals, 0u) << term;
  }
  EXPECT_GT(ep.gp_trace.total_seconds(), 0.0);
  EXPECT_FALSE(ep.gp_trace.samples.empty());

  const FlowResult pw = run_prior_work(tc.circuit);
  ASSERT_FALSE(pw.gp_trace.empty());
  EXPECT_NE(pw.gp_trace.find("wirelength"), nullptr);
  EXPECT_NE(pw.gp_trace.find("density"), nullptr);
  EXPECT_FALSE(pw.gp_trace.samples.empty());

  SaFlowOptions sopts;
  sopts.sa.max_moves = 5000;
  const FlowResult sa = run_sa(tc.circuit, sopts);
  EXPECT_TRUE(sa.gp_trace.empty());
}

// --- robustness: fallback chain, budgets, structured errors ---------------

TEST(FlowRobustnessTest, ForcedInfeasiblePrimaryRecoversViaFallback) {
  // The ISSUE's mandatory case: force the primary ILP to report infeasible
  // and require the chain to still deliver a legal placement with a
  // degraded FallbackLevel.
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceAOptions opts;
  opts.candidates = 1;
  opts.inject.fail_primary_dp = true;
  const FlowResult r = run_eplace_a(tc.circuit, opts);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.legal(1e-6));
  EXPECT_NE(r.fallback, FallbackLevel::None)
      << "primary was forced to fail; a fallback must have produced this";
}

TEST(FlowRobustnessTest, FullInjectedChainBottomsOutAtGreedyShift) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceAOptions opts;
  opts.candidates = 1;
  opts.inject.fail_primary_dp = true;
  opts.inject.fail_rounded_lp = true;
  opts.inject.fail_two_stage = true;
  const FlowResult r = run_eplace_a(tc.circuit, opts);
  EXPECT_EQ(r.fallback, FallbackLevel::GreedyShift)
      << "status: " << r.status.to_string();
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.legal(1e-6));
}

TEST(FlowRobustnessTest, PriorWorkRecoversFromForcedPrimaryFailure) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  PriorWorkOptions opts;
  opts.inject.fail_primary_dp = true;
  const FlowResult r = run_prior_work(tc.circuit, opts);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.legal(1e-6));
  EXPECT_EQ(r.fallback, FallbackLevel::GreedyShift);
}

TEST(FlowRobustnessTest, SaRecoversFromForcedPrimaryFailure) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  SaFlowOptions opts;
  opts.sa.max_moves = 20000;
  opts.inject.fail_primary_dp = true;
  const FlowResult r = run_sa(tc.circuit, opts);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.legal(1e-6));
  EXPECT_NE(r.fallback, FallbackLevel::None);
}

TEST(FlowRobustnessTest, TinyTimeBudgetDegradesWithoutThrowing) {
  // An already-expired wall-clock budget: every deadline-aware stage must
  // step aside and the deadline-free greedy last resort still has to end
  // the flow with a legal placement.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceAOptions opts;
  opts.candidates = 2;
  opts.time_budget_seconds = 1e-6;
  std::optional<FlowResult> r;
  EXPECT_NO_THROW(r.emplace(run_eplace_a(tc.circuit, opts)));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->deadline_hit);
  EXPECT_TRUE(r->ok()) << r->status.to_string();
  EXPECT_TRUE(r->legal(1e-6));
  EXPECT_EQ(r->fallback, FallbackLevel::GreedyShift)
      << "deadline-aware legalizers should have reported BudgetExhausted";
}

TEST(FlowRobustnessTest, InvalidInputReturnsStructuredStatus) {
  // Unfinalized circuit with a dangling pin: pre-flight validation must
  // reject it from every flow without throwing.
  netlist::Circuit c("broken");
  const auto d = c.add_device("m1", netlist::DeviceType::Nmos, 2.0, 1.0);
  c.add_center_pin(d, "g");  // never connected; finalize() never called

  std::optional<FlowResult> r;
  EXPECT_NO_THROW(r.emplace(run_eplace_a(c)));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
  EXPECT_EQ(r->status.code(), aplace::StatusCode::InvalidInput);
  EXPECT_NE(r->status.to_string().find("pre-flight"), std::string::npos)
      << r->status.to_string();

  const FlowResult pw = run_prior_work(c);
  EXPECT_EQ(pw.status.code(), aplace::StatusCode::InvalidInput);

  const FlowResult sa = run_sa(c);
  EXPECT_EQ(sa.status.code(), aplace::StatusCode::InvalidInput);
}

// --- performance-driven ---------------------------------------------------------

DatasetOptions quick_dataset() {
  DatasetOptions d;
  d.random_samples = 120;
  d.optimized_samples = 4;
  d.sa_moves_per_sample = 500;
  return d;
}

gnn::TrainOptions quick_training() {
  gnn::TrainOptions t;
  t.epochs = 60;
  return t;
}

// One quick Adder context, built once and shared by the suite's tests.
class PerfFlowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    adder_ = std::make_unique<circuits::TestCase>(
        circuits::make_testcase("Adder"));
    ctx_ = build_perf_context(adder_->circuit, adder_->spec, quick_dataset(),
                              quick_training());
  }
  static void TearDownTestSuite() {
    ctx_.reset();
    adder_.reset();
  }
  static const netlist::Circuit& adder() { return adder_->circuit; }
  static PerfContext& ctx() { return *ctx_; }

 private:
  static inline std::unique_ptr<circuits::TestCase> adder_;
  static inline std::unique_ptr<PerfContext> ctx_;
};

TEST_F(PerfFlowTest, ContextBuildsAndGnnLearnsSomething) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());
  ASSERT_NE(ctx, nullptr);
  EXPECT_GT(ctx->label_threshold, 0.0);
  EXPECT_LT(ctx->label_threshold, 1.0);
  EXPECT_GT(ctx->training.train_accuracy, 0.6)
      << "GNN failed to fit the placement-quality labels at all";
}

TEST_F(PerfFlowTest, EPlaceApLegalAndScored) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());
  EPlaceAOptions opts;
  opts.candidates = 1;
  const PerfFlowResult r = run_eplace_ap(tc.circuit, *ctx, opts);
  EXPECT_TRUE(r.flow.legal(1e-6));
  EXPECT_GT(r.perf.fom, 0.0);
  EXPECT_LE(r.perf.fom, 1.0);
}

TEST_F(PerfFlowTest, PerfDrivenVariantsRunForAllMethods) {
  EPlaceAOptions eopts;
  eopts.candidates = 1;
  const PerfFlowResult ap = run_eplace_ap(adder(), ctx(), eopts);
  EXPECT_TRUE(ap.flow.legal(1e-6));

  const PerfFlowResult pw = run_prior_work_perf(adder(), ctx());
  EXPECT_TRUE(pw.flow.legal(1e-6));

  SaFlowOptions sopts;
  sopts.sa.max_moves = 4000;
  const PerfFlowResult sp = run_sa_perf(adder(), ctx(), sopts, 1.0);
  EXPECT_TRUE(sp.flow.legal(1e-6));
}

TEST_F(PerfFlowTest, GnnPhiIsProbability) {
  SaFlowOptions sopts;
  sopts.sa.max_moves = 2000;
  const FlowResult r = run_sa(adder(), sopts);
  const double phi = gnn_phi(ctx(), r.placement);
  EXPECT_GT(phi, 0.0);
  EXPECT_LT(phi, 1.0);
}

TEST_F(PerfFlowTest, ForcedPrimaryFailureRecoversViaFallbackChain) {
  EPlaceAOptions eopts;
  eopts.candidates = 1;
  eopts.inject.fail_primary_dp = true;
  const PerfFlowResult ap = run_eplace_ap(adder(), ctx(), eopts);
  EXPECT_TRUE(ap.flow.ok()) << ap.flow.status.to_string();
  EXPECT_TRUE(ap.flow.legal(1e-6));
  EXPECT_NE(ap.flow.fallback, FallbackLevel::None);

  PriorWorkOptions popts;
  popts.inject.fail_primary_dp = true;
  const PerfFlowResult pw = run_prior_work_perf(adder(), ctx(), popts);
  EXPECT_TRUE(pw.flow.ok()) << pw.flow.status.to_string();
  EXPECT_TRUE(pw.flow.legal(1e-6));
  EXPECT_NE(pw.flow.fallback, FallbackLevel::None);
}

TEST_F(PerfFlowTest, PreCancelledEPlaceApReturnsCancelled) {
  EPlaceAOptions opts;
  opts.candidates = 1;
  opts.cancel = base::CancelToken::make_cancellable();
  opts.cancel.request_cancel();
  std::optional<PerfFlowResult> r;
  EXPECT_NO_THROW(r.emplace(run_eplace_ap(adder(), ctx(), opts)));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->flow.status.code(), aplace::StatusCode::Cancelled)
      << r->flow.status.to_string();
}

}  // namespace
}  // namespace aplace::core
