// Incremental SA cost engine: property tests against from-scratch
// recomputation on every circuit and the no-leaked-state contract of
// sample_random. The LCS-vs-naive packer identity is in sa_test.cpp.

#include <gtest/gtest.h>

#include "circuits/testcases.hpp"
#include "netlist/evaluator.hpp"
#include "sa/annealer.hpp"
#include "test_util.hpp"

namespace aplace::sa {
namespace {

class IncrementalAllCircuitsTest
    : public ::testing::TestWithParam<std::string> {};

// The heart of the engine's correctness story: run randomized sequences of
// all five move kinds (sequence swaps, flips, island row swap/mirror) with
// random accept/reject, and after every move compare the incremental
// bookkeeping against (a) a from-scratch recompute of the cost and (b) a
// freshly realized placement of the committed representation. 1e-9 leaves
// room only for delta-accumulation rounding.
TEST_P(IncrementalAllCircuitsTest, MatchesFullRecomputeUnderRandomMoves) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  SaPlacer placer(test::compile(tc.circuit), {});
  EXPECT_LE(placer.verify_incremental(101, 400), 1e-9);
  // A second run must be independent of the first (no leaked state).
  const double a = placer.verify_incremental(202, 200);
  const double b =
      SaPlacer(test::compile(tc.circuit), {}).verify_incremental(202, 200);
  EXPECT_DOUBLE_EQ(a, b);
}

// The incremental engine must not change what the annealer produces in
// kind: legal placements with exact island symmetry.
TEST_P(IncrementalAllCircuitsTest, AnnealerStaysLegal) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  SaOptions opts;
  opts.seed = 31;
  opts.max_moves = 4000;
  const SaResult r = SaPlacer(test::compile(tc.circuit), opts).place();
  const netlist::QualityReport q =
      netlist::Evaluator(tc.circuit).evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6)) << "overlap=" << q.overlap_area
                             << " sym=" << q.symmetry_violation;
  EXPECT_GT(r.moves_per_second, 0.0);
  EXPECT_GT(r.eval_stats.evals, 0u);
  // The delta evaluator must actually skip work, not just match. Sequence
  // swaps cascade packing shifts to downstream blocks, so the average move
  // still dirties a large fraction of nets on the small circuits — but
  // never all of them.
  EXPECT_LT(r.eval_stats.net_eval_ratio(), 0.95);
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, IncrementalAllCircuitsTest,
                         ::testing::ValuesIn(circuits::testcase_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// Legacy full-recompute path still anneals to a legal, deterministic result
// (it is the oracle side of the throughput benches).
TEST(SaIncrementalTest, LegacyEngineStillWorks) {
  circuits::TestCase tc = circuits::make_testcase("Comp1");
  SaOptions opts;
  opts.seed = 23;
  opts.max_moves = 3000;
  opts.incremental = false;
  const SaResult a = SaPlacer(test::compile(tc.circuit), opts).place();
  const SaResult b = SaPlacer(test::compile(tc.circuit), opts).place();
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  const netlist::QualityReport q =
      netlist::Evaluator(tc.circuit).evaluate(a.placement);
  EXPECT_TRUE(q.legal(1e-6));
  EXPECT_EQ(a.eval_stats.evals, 0u);  // stats belong to the delta engine
}

// sample_random used to permanently mutate the placer's island/orientation
// state, so annealing after sampling started from a different configuration
// than a fresh placer. Sampling now runs on dedicated copies: place() after
// heavy sampling matches a pristine placer exactly, and the samples drawn
// for a fixed rng are unchanged by an interleaved place().
TEST(SaIncrementalTest, SampleRandomDoesNotPerturbAnnealing) {
  circuits::TestCase tc = circuits::make_testcase("VGA");
  SaOptions opts;
  opts.seed = 7;
  opts.max_moves = 2000;

  SaPlacer sampled(test::compile(tc.circuit), opts);
  numeric::Rng rng(41);
  for (int k = 0; k < 8; ++k) (void)sampled.sample_random(rng);
  const SaResult after_sampling = sampled.place();
  const SaResult fresh = SaPlacer(test::compile(tc.circuit), opts).place();
  EXPECT_DOUBLE_EQ(after_sampling.cost, fresh.cost);
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    EXPECT_EQ(after_sampling.placement.position(DeviceId{i}),
              fresh.placement.position(DeviceId{i}));
  }

  // Sampling sequence is a function of the rng alone.
  SaPlacer s1(test::compile(tc.circuit), opts);
  SaPlacer s2(test::compile(tc.circuit), opts);
  numeric::Rng r1(77), r2(77);
  (void)s1.sample_random(r1);
  (void)s2.sample_random(r2);
  (void)s2.place();  // must not disturb the sampling stream
  const netlist::Placement p1 = s1.sample_random(r1);
  const netlist::Placement p2 = s2.sample_random(r2);
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    EXPECT_EQ(p1.position(DeviceId{i}), p2.position(DeviceId{i}));
  }
}

}  // namespace
}  // namespace aplace::sa
