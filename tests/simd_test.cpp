// SIMD layer contract tests (tests/simd_test.cpp):
//  * Vec4d lane-op semantics: masked loads/stores, ordered reductions,
//    lane reversal, scatter-accumulate order, nearest-even rounding.
//  * exp4 accuracy (<= simd::kExpMaxRelError over the clamped domain) and
//    saturation behaviour beyond the clamp.
//  * Registry-wide property: every hot kernel pair (WA/LSE wirelength,
//    electrostatic splat/force, DCT/DST butterflies) agrees between its
//    scalar reference and its vectorized path to <= 1e-12 relative on all
//    ten paper circuits.
//  * Both GP flows run end-to-end with SIMD forced on and forced off.
//  * Overflow regression: WA/LSE stay finite (and scalar/SIMD-consistent)
//    at a 1e6-unit coordinate spread where naive exp() would overflow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/simd.hpp"
#include "circuits/testcases.hpp"
#include "core/flow.hpp"
#include "density/electro.hpp"
#include "numeric/fft.hpp"
#include "test_util.hpp"
#include "wirelength/smooth_wl.hpp"

namespace aplace {
namespace {

using simd::Vec4d;

constexpr double kRelTol = 1e-12;

struct DefaultSimdGuard {
  bool saved = simd::default_enabled();
  ~DefaultSimdGuard() { simd::set_default_enabled(saved); }
};

/// Engines take the path simd::default_enabled() names when they are
/// constructed, so each parity test builds one scalar and one SIMD
/// instance under a temporarily switched default.
template <class Make>
auto make_with_simd(bool on, Make&& make) {
  const DefaultSimdGuard guard;
  simd::set_default_enabled(on);
  return make();
}

std::unique_ptr<wirelength::SmoothWirelength> make_wl(
    bool lse, const netlist::Circuit& c, double gamma, bool simd_on) {
  return make_with_simd(simd_on, [&] {
    std::unique_ptr<wirelength::SmoothWirelength> wl;
    if (lse) {
      wl = std::make_unique<wirelength::LseWirelength>(test::compile(c));
    } else {
      wl = std::make_unique<wirelength::WaWirelength>(test::compile(c));
    }
    wl->set_gamma(gamma);
    return wl;
  });
}

/// |a - b| <= tol * max(1, |a|, |b|): the "1e-12 relative" kernel contract
/// with an absolute floor so near-zero entries compare by absolute error.
void expect_rel_close(double a, double b, double tol = kRelTol) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  EXPECT_LE(std::abs(a - b), tol * scale) << "a=" << a << " b=" << b;
}

void expect_vectors_close(const std::vector<double>& a,
                          const std::vector<double>& b,
                          double tol = kRelTol) {
  ASSERT_EQ(a.size(), b.size());
  double scale = 1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    scale = std::max({scale, std::abs(a[i]), std::abs(b[i])});
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::abs(a[i] - b[i]), tol * scale)
        << "index " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Deterministic spread-out positions inside [0, extent]^2.
std::vector<double> registry_positions(const netlist::Circuit& c,
                                       double extent) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double fi = static_cast<double>(i);
    v[i] = extent * (0.5 + 0.45 * std::sin(1.7 * fi + 0.3));
    v[n + i] = extent * (0.5 + 0.45 * std::cos(2.3 * fi + 1.1));
  }
  return v;
}

// ---- Vec4d lane semantics ---------------------------------------------------

TEST(SimdTest, SetLaneRoundTrip) {
  const Vec4d v = Vec4d::set(1.5, -2.25, 3.0, -0.0);
  EXPECT_EQ(v.lane(0), 1.5);
  EXPECT_EQ(v.lane(1), -2.25);
  EXPECT_EQ(v.lane(2), 3.0);
  EXPECT_EQ(v.lane(3), 0.0);
}

TEST(SimdTest, LoadPartialZeroFillsTail) {
  const double src[3] = {7.0, 8.0, 9.0};
  const Vec4d v = Vec4d::load_partial(src, 3);
  EXPECT_EQ(v.lane(0), 7.0);
  EXPECT_EQ(v.lane(1), 8.0);
  EXPECT_EQ(v.lane(2), 9.0);
  EXPECT_EQ(v.lane(3), 0.0);
  const Vec4d none = Vec4d::load_partial(src, 0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(none.lane(i), 0.0);
}

TEST(SimdTest, StorePartialLeavesTailUntouched) {
  double dst[4] = {-1.0, -1.0, -1.0, -1.0};
  Vec4d::set(1, 2, 3, 4).store_partial(dst, 2);
  EXPECT_EQ(dst[0], 1.0);
  EXPECT_EQ(dst[1], 2.0);
  EXPECT_EQ(dst[2], -1.0);
  EXPECT_EQ(dst[3], -1.0);
}

TEST(SimdTest, KeepFirstMasksExactlyIncludingInfNan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Vec4d v = Vec4d::set(inf, nan, 3.0, 4.0).keep_first(2);
  EXPECT_TRUE(std::isinf(v.lane(0)));
  EXPECT_TRUE(std::isnan(v.lane(1)));
  EXPECT_EQ(v.lane(2), 0.0);
  EXPECT_EQ(v.lane(3), 0.0);
  // keep_first(4) is the identity.
  const Vec4d w = Vec4d::set(1, 2, 3, 4).keep_first(4);
  EXPECT_EQ(w.lane(3), 4.0);
}

TEST(SimdTest, ReverseSwapsAllFourLanes) {
  const Vec4d v = Vec4d::set(1, 2, 3, 4).reverse();
  EXPECT_EQ(v.lane(0), 4.0);
  EXPECT_EQ(v.lane(1), 3.0);
  EXPECT_EQ(v.lane(2), 2.0);
  EXPECT_EQ(v.lane(3), 1.0);
}

TEST(SimdTest, GatherReadsThroughIndexTable) {
  const double base[6] = {0, 10, 20, 30, 40, 50};
  const std::uint32_t idx[4] = {5, 0, 3, 3};
  const Vec4d v = Vec4d::gather(base, idx);
  EXPECT_EQ(v.lane(0), 50.0);
  EXPECT_EQ(v.lane(1), 0.0);
  EXPECT_EQ(v.lane(2), 30.0);
  EXPECT_EQ(v.lane(3), 30.0);
}

TEST(SimdTest, ScatterAddAccumulatesDuplicatesInLaneOrder) {
  double base[2] = {100.0, 0.0};
  const std::uint32_t idx[4] = {0, 1, 0, 1};
  Vec4d::set(1, 2, 4, 8).scatter_add(base, idx, 4);
  EXPECT_EQ(base[0], ((100.0 + 1.0) + 4.0));
  EXPECT_EQ(base[1], (2.0 + 8.0));
  // Masked scatter touches only the first n lanes.
  double base2[2] = {0.0, 0.0};
  Vec4d::set(1, 2, 4, 8).scatter_add(base2, idx, 1);
  EXPECT_EQ(base2[0], 1.0);
  EXPECT_EQ(base2[1], 0.0);
}

TEST(SimdTest, HsumOrderedUsesDocumentedAssociation) {
  // Catastrophic-cancellation probe: only the documented association
  // ((l0 + l1) + l2) + l3 yields exactly 1.0 here.
  const double a = 1e16, b = 1.0, c = -1e16, d = 1.0;
  const Vec4d v = Vec4d::set(a, b, c, d);
  EXPECT_EQ(simd::hsum_ordered(v), ((a + b) + c) + d);
  EXPECT_EQ(simd::hsum_ordered(v), 1.0);
}

TEST(SimdTest, HmaxHminIgnoreLaneOrder) {
  const Vec4d v = Vec4d::set(-3.0, 7.5, 0.0, -11.0);
  EXPECT_EQ(simd::hmax(v), 7.5);
  EXPECT_EQ(simd::hmin(v), -11.0);
}

TEST(SimdTest, RoundNearestTiesToEven) {
  const Vec4d v = Vec4d::round_nearest(Vec4d::set(2.5, 3.5, -2.5, 0.5));
  EXPECT_EQ(v.lane(0), 2.0);
  EXPECT_EQ(v.lane(1), 4.0);
  EXPECT_EQ(v.lane(2), -2.0);
  EXPECT_EQ(v.lane(3), 0.0);
}

TEST(SimdTest, FmaMatchesMulAddToContractTolerance) {
  const Vec4d r = Vec4d::fma(Vec4d::set(1.25, -3.0, 0.5, 1e8),
                             Vec4d::set(2.0, 0.25, -8.0, 1e-8),
                             Vec4d::set(1.0, 1.0, 1.0, 1.0));
  const double expect[4] = {3.5, 0.25, -3.0, 2.0};
  for (std::size_t i = 0; i < 4; ++i) {
    expect_rel_close(r.lane(i), expect[i]);
  }
}

TEST(SimdTest, ZeroTailAndPadded4) {
  static_assert(base::padded4(0) == 0);
  static_assert(base::padded4(1) == 4);
  static_assert(base::padded4(4) == 4);
  static_assert(base::padded4(5) == 8);
  base::AlignedVec buf(base::padded4(6), -1.0);
  simd::zero_tail(buf.data(), 6, buf.size());
  EXPECT_EQ(buf[5], -1.0);
  EXPECT_EQ(buf[6], 0.0);
  EXPECT_EQ(buf[7], 0.0);
}

TEST(SimdTest, AlignedVecIs32ByteAligned) {
  base::AlignedVec v(17);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 32, 0u);
}

// ---- exp4 -------------------------------------------------------------------

TEST(SimdTest, Exp4AccuracyOverClampedDomain) {
  // Dense sweep of the full clamped domain, four staggered lanes per step.
  double max_rel = 0.0;
  for (double x = -simd::kExpClamp; x <= simd::kExpClamp; x += 0.377) {
    const Vec4d in = Vec4d::set(x, x + 0.091, x + 0.173, x + 0.311);
    const Vec4d out = simd::exp4(in);
    for (std::size_t l = 0; l < 4; ++l) {
      const double xi = in.lane(l);
      if (xi > simd::kExpClamp) continue;
      const double ref = std::exp(xi);
      const double got = out.lane(l);
      ASSERT_TRUE(std::isfinite(got)) << "x=" << xi;
      ASSERT_GT(got, 0.0) << "x=" << xi;
      max_rel = std::max(max_rel, std::abs(got - ref) / ref);
    }
  }
  EXPECT_LE(max_rel, simd::kExpMaxRelError);
}

TEST(SimdTest, Exp4ExactAtZeroAndSaturatesBeyondClamp) {
  EXPECT_EQ(simd::exp4(Vec4d::zero()).lane(0), 1.0);
  const Vec4d big = simd::exp4(Vec4d::set(1e9, 800.0, -1e9, -800.0));
  // Clamped arguments saturate to exp(+/-700) — finite, positive, no inf.
  expect_rel_close(big.lane(0), std::exp(700.0), simd::kExpMaxRelError);
  expect_rel_close(big.lane(1), std::exp(700.0), simd::kExpMaxRelError);
  EXPECT_TRUE(std::isfinite(big.lane(0)));
  EXPECT_GT(big.lane(2), 0.0);
  EXPECT_EQ(big.lane(2), big.lane(3));
}

// ---- kernel scalar-vs-SIMD agreement (full registry) ------------------------

class SimdKernelParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SimdKernelParityTest, WirelengthScalarVsSimd) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const std::vector<double> v = registry_positions(c, 48.0);

  for (const bool lse : {false, true}) {
    const auto wl_scalar = make_wl(lse, c, 0.8, false);
    const auto wl_simd = make_wl(lse, c, 0.8, true);

    std::vector<double> g_scalar(v.size(), 0.0), g_simd(v.size(), 0.0);
    const double val_scalar = wl_scalar->value_and_grad(v, g_scalar);
    const double val_simd = wl_simd->value_and_grad(v, g_simd);

    ASSERT_TRUE(std::isfinite(val_scalar));
    ASSERT_TRUE(std::isfinite(val_simd));
    expect_rel_close(val_scalar, val_simd);
    expect_vectors_close(g_scalar, g_simd);
  }
}

TEST_P(SimdKernelParityTest, ElectroDensityScalarVsSimd) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const double extent = 64.0;
  const std::vector<double> v = registry_positions(c, extent);

  const auto make_ed = [&] {
    return density::ElectroDensity(test::compile(c), {0, 0, extent, extent},
                                   64, 64);
  };
  density::ElectroDensity ed_scalar = make_with_simd(false, make_ed);
  density::ElectroDensity ed_simd = make_with_simd(true, make_ed);

  std::vector<double> g_scalar(v.size(), 0.0);
  const double val_scalar = ed_scalar.value_and_grad(v, g_scalar, 1.0);
  const double ovf_scalar = ed_scalar.overflow();
  const std::vector<double> rho_scalar(ed_scalar.rho().data().begin(),
                                       ed_scalar.rho().data().end());

  std::vector<double> g_simd(v.size(), 0.0);
  const double val_simd = ed_simd.value_and_grad(v, g_simd, 1.0);
  const double ovf_simd = ed_simd.overflow();
  const std::vector<double> rho_simd(ed_simd.rho().data().begin(),
                                     ed_simd.rho().data().end());

  ASSERT_TRUE(std::isfinite(val_scalar));
  expect_rel_close(val_scalar, val_simd);
  expect_rel_close(ovf_scalar, ovf_simd);
  expect_vectors_close(rho_scalar, rho_simd);
  expect_vectors_close(g_scalar, g_simd);
}

INSTANTIATE_TEST_SUITE_P(FullRegistry, SimdKernelParityTest,
                         ::testing::ValuesIn(circuits::testcase_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// ---- FFT/DCT scalar-vs-SIMD -------------------------------------------------

TEST(SimdFftTest, SpectralTransformsScalarVsSimd) {
  for (const std::size_t n : {std::size_t{4}, std::size_t{8}, std::size_t{32},
                              std::size_t{256}}) {
    const auto make_plan = [n] { return numeric::fft::FftPlan(n); };
    const numeric::fft::FftPlan plan_scalar = make_with_simd(false, make_plan);
    const numeric::fft::FftPlan plan_simd = make_with_simd(true, make_plan);
    std::vector<double> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = std::sin(0.37 * static_cast<double>(i) + 0.2) +
              0.25 * std::cos(1.9 * static_cast<double>(i));
    }
    using Fn = void (numeric::fft::FftPlan::*)(const double*, std::size_t,
                                               double*, std::size_t) const;
    for (const Fn fn : {static_cast<Fn>(&numeric::fft::FftPlan::dct2),
                        static_cast<Fn>(&numeric::fft::FftPlan::dct3),
                        static_cast<Fn>(&numeric::fft::FftPlan::dst3)}) {
      std::vector<double> out_scalar(n), out_simd(n);
      (plan_scalar.*fn)(in.data(), 1, out_scalar.data(), 1);
      (plan_simd.*fn)(in.data(), 1, out_simd.data(), 1);
      expect_vectors_close(out_scalar, out_simd);

      // Strided (column-transform) layout: stride 3 exercises the scalar
      // gather fallback of the quarter-wave loops on the SIMD path too.
      std::vector<double> sin(3 * n, 0.0), s_scalar(3 * n, 0.0),
          s_simd(3 * n, 0.0);
      for (std::size_t i = 0; i < n; ++i) sin[3 * i] = in[i];
      (plan_scalar.*fn)(sin.data(), 3, s_scalar.data(), 3);
      (plan_simd.*fn)(sin.data(), 3, s_simd.data(), 3);
      expect_vectors_close(s_scalar, s_simd);
    }
  }
}

TEST(SimdFftTest, Dct2Dct3RoundTripWithSimd) {
  const std::size_t n = 64;
  const numeric::fft::FftPlan plan =
      make_with_simd(true, [n] { return numeric::fft::FftPlan(n); });
  std::vector<double> in(n), spec(n), back(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = std::cos(0.13 * static_cast<double>(i * i % 17));
  }
  plan.dct2(in.data(), 1, spec.data(), 1);
  plan.dct3(spec.data(), 1, back.data(), 1);
  expect_vectors_close(in, back, 1e-11);
}

// ---- overflow regression: 1e6-unit coordinate spread ------------------------

TEST(SimdOverflowTest, WirelengthFiniteAtMillionUnitSpread) {
  // A chain net spanning 1e6 units: exp((c - min)/gamma) would overflow for
  // any naive (unshifted) exponential at gamma ~ 1. Both paths must stay
  // finite and agree — the scalar kernel max/min-shifts, the SIMD kernel
  // additionally clamps inside exp4.
  netlist::Circuit c("spread");
  std::vector<DeviceId> devs;
  std::vector<PinId> pins;
  for (int i = 0; i < 7; ++i) {
    devs.push_back(c.add_device("D" + std::to_string(i),
                                netlist::DeviceType::Nmos, 2, 2));
    pins.push_back(c.add_pin(devs.back(), "p", {1, 1}));
  }
  c.add_net("chain", pins);
  c.add_net("pair",
            {c.add_pin(devs[0], "q", {0.5, 0.5}),
             c.add_pin(devs[6], "q", {0.5, 0.5})},
            /*weight=*/2.0);
  c.finalize();

  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.0e6 * static_cast<double>(i) / static_cast<double>(n - 1);
    v[n + i] = 0.5e6 * static_cast<double>((i * 3) % n) /
               static_cast<double>(n - 1);
  }

  for (const bool lse : {false, true}) {
    const auto wl_scalar = make_wl(lse, c, 1.0, false);
    const auto wl_simd = make_wl(lse, c, 1.0, true);

    std::vector<double> g_scalar(v.size(), 0.0), g_simd(v.size(), 0.0);
    const double val_scalar = wl_scalar->value_and_grad(v, g_scalar);
    const double val_simd = wl_simd->value_and_grad(v, g_simd);

    ASSERT_TRUE(std::isfinite(val_scalar));
    ASSERT_TRUE(std::isfinite(val_simd));
    for (const double g : g_scalar) ASSERT_TRUE(std::isfinite(g));
    for (const double g : g_simd) ASSERT_TRUE(std::isfinite(g));
    expect_rel_close(val_scalar, val_simd);
    expect_vectors_close(g_scalar, g_simd);

    // At spread >> gamma the smoothed length converges to exact HPWL; for
    // WA from above within a vanishing margin. A loose sanity bracket:
    const double exact = wl_scalar->exact_hpwl(v);
    EXPECT_NEAR(val_scalar, exact, 1e-6 * exact);
  }
}

// ---- GP flows end-to-end with SIMD forced on / off --------------------------

TEST(SimdFlowTest, BothGpFlowsLegalWithSimdOnAndOff) {
  DefaultSimdGuard guard;
  circuits::TestCase tc = circuits::make_testcase("Adder");

  double hpwl_ep[2] = {0, 0}, hpwl_pw[2] = {0, 0};
  for (const bool on : {false, true}) {
    simd::set_default_enabled(on);

    core::EPlaceAOptions eopts;
    eopts.candidates = 1;
    eopts.gp.seed = 3;
    const core::FlowResult ep = core::run_eplace_a(tc.circuit, eopts);
    EXPECT_TRUE(ep.legal(1e-6)) << "ePlace-A illegal, simd=" << on;
    ASSERT_TRUE(std::isfinite(ep.hpwl()));
    EXPECT_GT(ep.hpwl(), 0);
    hpwl_ep[on ? 1 : 0] = ep.hpwl();

    const core::FlowResult pw = core::run_prior_work(tc.circuit);
    EXPECT_TRUE(pw.legal(1e-6)) << "prior work illegal, simd=" << on;
    ASSERT_TRUE(std::isfinite(pw.hpwl()));
    EXPECT_GT(pw.hpwl(), 0);
    hpwl_pw[on ? 1 : 0] = pw.hpwl();
  }

  // The two paths agree to 1e-12 per evaluation but trajectories through
  // the nonconvex optimizer may diverge; quality must stay in the same
  // ballpark (loose 2x bracket, not bit equality).
  EXPECT_LT(std::max(hpwl_ep[0], hpwl_ep[1]),
            2.0 * std::min(hpwl_ep[0], hpwl_ep[1]));
  EXPECT_LT(std::max(hpwl_pw[0], hpwl_pw[1]),
            2.0 * std::min(hpwl_pw[0], hpwl_pw[1]));
}

}  // namespace
}  // namespace aplace
