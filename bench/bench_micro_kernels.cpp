// google-benchmark microbenchmarks of the computational kernels: spectral
// Poisson solve, WA wirelength gradient, LP solve, ILP legalization,
// sequence-pair packing, GNN forward+backward. Useful for tracking
// performance regressions of the inner loops that dominate the flows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "base/simd.hpp"
#include "bench_common.hpp"
#include "circuits/testcases.hpp"
#include "density/bell.hpp"
#include "density/electro.hpp"
#include "gnn/graph.hpp"
#include "gnn/model.hpp"
#include "gp/eplace_gp.hpp"
#include "gp/gp_options.hpp"
#include "legal/ilp_detailed.hpp"
#include "netlist/compiled.hpp"
#include "netlist/evaluator.hpp"
#include "numeric/fft.hpp"
#include "numeric/rng.hpp"
#include "numeric/spectral.hpp"
#include "sa/annealer.hpp"
#include "sa/sequence_pair.hpp"
#include "solver/lp.hpp"
#include "wirelength/smooth_wl.hpp"

namespace {

using namespace aplace;

std::vector<double> spread(const netlist::Circuit& c) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 2.0 * static_cast<double>(i % 6) + 1;
    v[n + i] = 2.0 * static_cast<double>(i / 6) + 1;
  }
  return v;
}

void BM_ElectroSolve(benchmark::State& state) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const auto bins = static_cast<std::size_t>(state.range(0));
  density::ElectroDensity ed(
      std::make_shared<const netlist::CompiledCircuit>(tc.circuit),
      {0, 0, 16, 16}, bins, bins);
  const std::vector<double> v = spread(tc.circuit);
  std::vector<double> g(v.size(), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed.value_and_grad(v, g, 1.0));
  }
}
BENCHMARK(BM_ElectroSolve)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Full 2D spectral Poisson solve (analysis + potential + both field
// syntheses) on one random density matrix, FFT path vs. dense-basis oracle.
numeric::Matrix random_density(std::size_t bins) {
  numeric::Matrix m(bins, bins);
  numeric::Rng rng(7);
  for (double& x : m.data()) x = rng.uniform(0, 1);
  return m;
}

void spectral_solve_fft(const numeric::Matrix& m,
                        const numeric::spectral::Basis& bx,
                        const numeric::spectral::Basis& by,
                        numeric::Matrix& psi, numeric::Matrix& ex,
                        numeric::Matrix& ey) {
  using namespace numeric::spectral;
  std::copy(m.data().begin(), m.data().end(), psi.data().begin());
  dct2d_inplace(psi, bx, by);
  std::copy(psi.data().begin(), psi.data().end(), ex.data().begin());
  std::copy(psi.data().begin(), psi.data().end(), ey.data().begin());
  idct2d_inplace(psi, bx, by);
  isxcy2d_inplace(ex, bx, by);
  icxsy2d_inplace(ey, bx, by);
}

void spectral_solve_naive(const numeric::Matrix& m,
                          const numeric::spectral::Basis& bx,
                          const numeric::spectral::Basis& by,
                          numeric::Matrix& psi, numeric::Matrix& ex,
                          numeric::Matrix& ey) {
  using namespace numeric::spectral;
  const numeric::Matrix a = dct2d_naive(m, bx, by);
  psi = idct2d_naive(a, bx, by);
  ex = isxcy2d_naive(a, bx, by);
  ey = icxsy2d_naive(a, bx, by);
}

void BM_SpectralSolveFft(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  const numeric::spectral::Basis bx(bins), by(bins);
  numeric::Matrix m = random_density(bins);
  numeric::Matrix psi(bins, bins), ex(bins, bins), ey(bins, bins);
  for (auto _ : state) {
    spectral_solve_fft(m, bx, by, psi, ex, ey);
    benchmark::DoNotOptimize(psi.data().data());
  }
}
BENCHMARK(BM_SpectralSolveFft)->Arg(64)->Arg(128)->Arg(256);

void BM_SpectralSolveNaive(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  const numeric::spectral::Basis bx(bins), by(bins);
  const numeric::Matrix m = random_density(bins);
  numeric::Matrix psi(bins, bins), ex(bins, bins), ey(bins, bins);
  for (auto _ : state) {
    spectral_solve_naive(m, bx, by, psi, ex, ey);
    benchmark::DoNotOptimize(psi.data().data());
  }
}
BENCHMARK(BM_SpectralSolveNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_WaWirelengthGrad(benchmark::State& state) {
  circuits::TestCase tc = circuits::make_testcase("SCF");
  wirelength::WaWirelength wl(
      std::make_shared<const netlist::CompiledCircuit>(tc.circuit));
  wl.set_gamma(1.0);
  const std::vector<double> v = spread(tc.circuit);
  std::vector<double> g(v.size(), 0.0);
  for (auto _ : state) {
    std::fill(g.begin(), g.end(), 0.0);
    benchmark::DoNotOptimize(wl.value_and_grad(v, g));
  }
}
BENCHMARK(BM_WaWirelengthGrad);

void BM_LpSolveChain(benchmark::State& state) {
  // Placement-like separation-chain LP of the given size.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    solver::LpProblem p;
    std::vector<int> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(p.add_variable(1, solver::kInf, i == n - 1 ? 1.0 : 0.0));
    }
    for (int i = 0; i + 1 < n; ++i) {
      p.add_constraint({{xs[i], 1}, {xs[i + 1], -1}}, solver::Relation::LessEq,
                       -2.0);
    }
    benchmark::DoNotOptimize(solve_lp(p));
  }
}
BENCHMARK(BM_LpSolveChain)->Arg(20)->Arg(60)->Arg(120);

void BM_SequencePairPack(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sa::SequencePair sp(n);
  numeric::Rng rng(1);
  sp.shuffle(rng);
  std::vector<double> w(n), h(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = rng.uniform(1, 4);
    h[i] = rng.uniform(1, 4);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.pack(w, h));
  }
}
BENCHMARK(BM_SequencePairPack)->Arg(10)->Arg(30)->Arg(60);

void BM_SequencePairPackNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sa::SequencePair sp(n);
  numeric::Rng rng(1);
  sp.shuffle(rng);
  std::vector<double> w(n), h(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = rng.uniform(1, 4);
    h[i] = rng.uniform(1, 4);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.pack_naive(w, h));
  }
}
BENCHMARK(BM_SequencePairPackNaive)->Arg(10)->Arg(30)->Arg(60);

void BM_GnnForwardBackward(benchmark::State& state) {
  circuits::TestCase tc = circuits::make_testcase("CM-OTA2");
  gnn::CircuitGraph graph(
      std::make_shared<const netlist::CompiledCircuit>(tc.circuit), 15.0);
  gnn::GnnModel model;
  numeric::Rng rng(2);
  model.initialize(rng);
  const numeric::Matrix x = graph.features(spread(tc.circuit));
  numeric::Matrix xg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.phi_and_input_grad(graph.adjacency(), x, xg));
  }
}
BENCHMARK(BM_GnnForwardBackward);

// Per-term objective breakdown of both analytical placers on one circuit:
// where the gradient time goes (spectral solve vs. wirelength vs. penalty
// terms) and what each term's weight/value ended at. The trace rows land in
// BENCH_micro_kernels.json under "term_traces".
void print_gp_term_breakdown(bench::JsonReport& json) {
  const std::string circuit = "CC-OTA";
  circuits::TestCase tc = circuits::make_testcase(circuit);
  std::printf("\n==== analytical placers: objective-term breakdown ====\n");

  const core::FlowResult ep =
      core::run_eplace_a(tc.circuit, bench::paper_eplace_options());
  bench::print_term_trace("ePlace-A (" + circuit + ")", ep.gp_trace);
  json.add_term_trace(circuit, "eplace-a", ep.gp_trace);

  const core::FlowResult pw =
      core::run_prior_work(tc.circuit, bench::paper_prior_options());
  bench::print_term_trace("prior-work (" + circuit + ")", pw.gp_trace);
  json.add_term_trace(circuit, "prior-work", pw.gp_trace);
}

// Quick-mode SA kernel table: the full-recompute annealer vs. the
// incremental engine on the largest paper circuit at an identical move
// budget, plus the naive-vs-LCS packing kernel on its own. The SA rows
// carry moves_per_sec, which the regression gate rate-checks, so a change
// that silently destroys annealing throughput fails CI.
void print_sa_kernel_table(bench::JsonReport& json) {
  using clock = std::chrono::steady_clock;

  std::string largest;
  std::size_t most = 0;
  for (const std::string& name : circuits::testcase_names()) {
    const std::size_t n = circuits::make_testcase(name).circuit.num_devices();
    if (n > most) {
      most = n;
      largest = name;
    }
  }
  circuits::TestCase tc = circuits::make_testcase(largest);
  const netlist::Evaluator eval(tc.circuit);
  std::printf(
      "\n==== SA cost engine: full recompute vs incremental (%s, %zu devices) "
      "====\n",
      largest.c_str(), most);
  std::printf("%-22s %12s %12s %12s %10s %7s\n", "engine", "anneal (s)",
              "moves/sec", "hpwl", "area", "legal");

  sa::SaOptions base = bench::paper_sa_options();
  base.seed = 1;
  // Fixed move budget: throughput comparisons are meaningless if the two
  // engines anneal different move counts, and the quick default (20k moves,
  // tens of ms) is timer-noise dominated.
  base.max_moves = bench::quick_mode() ? 150000 : 400000;
  const auto cc = std::make_shared<const netlist::CompiledCircuit>(tc.circuit);
  const auto run_engine = [&](const char* flow, bool incremental) {
    sa::SaOptions o = base;
    // The "before" side recomputes the full cost per move.
    o.incremental = incremental;
    // Best of three: the anneal is deterministic for a fixed seed, so reps
    // agree on every metric except wall time; max moves/sec is the run
    // least disturbed by machine load.
    sa::SaResult r = sa::SaPlacer(cc, o).place();
    for (int rep = 1; rep < 3; ++rep) {
      sa::SaResult again = sa::SaPlacer(cc, o).place();
      if (again.moves_per_second > r.moves_per_second) r = std::move(again);
    }
    const netlist::QualityReport q = eval.evaluate(r.placement);
    std::printf("%-22s %12.3f %12.0f %12.2f %10.2f %7s\n", flow,
                r.anneal_seconds, r.moves_per_second, q.hpwl, q.area,
                q.legal(1e-6) ? "yes" : "NO");
    json.add_sa_run(largest, flow, base.seed, r.anneal_seconds, q.hpwl,
                    q.area, q.legal(1e-6), r.moves_per_second);
    // Per-move evaluation latency as its own timed row.
    json.add_timing(largest,
                    incremental ? "sa-move-eval-incremental"
                                : "sa-move-eval-full",
                    r.moves_evaluated > 0
                        ? r.anneal_seconds /
                              static_cast<double>(r.moves_evaluated)
                        : 0.0);
    return r;
  };
  const sa::SaResult full = run_engine("sa-anneal-full", false);
  const sa::SaResult inc = run_engine("sa-anneal-incremental", true);
  if (full.moves_per_second > 0) {
    const double speedup = inc.moves_per_second / full.moves_per_second;
    std::printf("incremental speedup: %.1fx, net evals/move: %.0f%% of full\n",
                speedup, 100.0 * inc.eval_stats.net_eval_ratio());
    json.add_metric("sa_incremental_speedup", speedup);
    json.add_metric("sa_net_eval_ratio", inc.eval_stats.net_eval_ratio());
  }

  // Packing kernel alone, naive longest-path vs. Tang-Wong LCS.
  std::printf("\n%-10s %14s %14s %10s\n", "blocks", "naive (us)", "lcs (us)",
              "speedup");
  for (const std::size_t n : {30u, 120u, 480u}) {
    sa::SequencePair sp(n);
    numeric::Rng rng(3);
    sp.shuffle(rng);
    std::vector<double> w(n), h(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.uniform(1, 4);
      h[i] = rng.uniform(1, 4);
    }
    sa::SequencePair::Packing pk;
    const int reps = n >= 480 ? 200 : 2000;
    auto t0 = clock::now();
    for (int i = 0; i < reps; ++i) pk = sp.pack_naive(w, h);
    const double naive_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        reps;
    t0 = clock::now();
    for (int i = 0; i < reps; ++i) sp.pack_into(w, h, pk);
    const double lcs_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        reps;
    std::printf("%-10zu %14.2f %14.2f %9.1fx\n", n, naive_us, lcs_us,
                naive_us / lcs_us);
    char label[32];
    std::snprintf(label, sizeof label, "n=%zu", n);
    json.add_timing(label, "seqpair-pack-naive", naive_us / 1e6);
    json.add_timing(label, "seqpair-pack-lcs", lcs_us / 1e6);
  }
}

// Quick-mode legalizer row: IlpDetailedPlacer::place on VCO2 from one fixed
// GP start, best of three. The ILP legalizer is most of ePlace-A's time and
// its cost is the LP kernel's, so this row (ilp-place) is the regression
// gate for src/solver/lp.cpp inside a real legalization.
void print_ilp_table(bench::JsonReport& json) {
  using clock = std::chrono::steady_clock;
  const std::string circuit = "VCO2";
  circuits::TestCase tc = circuits::make_testcase(circuit);
  const auto cc = std::make_shared<const netlist::CompiledCircuit>(tc.circuit);
  const gp::GpResult start = gp::EPlaceGlobalPlacer(cc, {}).run();
  const legal::IlpDetailedPlacer placer(cc, {});
  double best = 1e300;
  bool ok = true;
  long nodes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    const legal::IlpResult r = placer.place(start.positions);
    best = std::min(
        best, std::chrono::duration<double>(clock::now() - t0).count());
    ok = ok && r.ok();
    nodes = r.bb_nodes;
  }
  std::printf("\n==== ILP legalizer (%s, fixed GP start) ====\n",
              circuit.c_str());
  std::printf("ilp-place %.3f s (best of 3), %ld B&B nodes, %s\n", best,
              nodes, ok ? "ok" : "FAILED");
  json.add_timing(circuit, "ilp-place", best);
}

// Exact HPWL through the AoS path: walk Net/Pin objects and ask the
// Placement for each pin position. This is what every engine did before the
// compiled flat core existed — kept here as the "before" side of the
// hpwl-flat comparison.
double hpwl_via_placement(const netlist::Circuit& c,
                          const netlist::Placement& p) {
  double total = 0;
  for (std::size_t n = 0; n < c.num_nets(); ++n) {
    const netlist::Net& net = c.net(NetId{n});
    if (net.degree() < 2) continue;
    double xmin = 0, xmax = 0, ymin = 0, ymax = 0;
    bool first = true;
    for (const PinId pid : net.pins) {
      const geom::Point pt = p.pin_position(pid);
      if (first) {
        xmin = xmax = pt.x;
        ymin = ymax = pt.y;
        first = false;
      } else {
        xmin = std::min(xmin, pt.x);
        xmax = std::max(xmax, pt.x);
        ymin = std::min(ymin, pt.y);
        ymax = std::max(ymax, pt.y);
      }
    }
    total += net.weight * ((xmax - xmin) + (ymax - ymin));
  }
  return total;
}

// The same HPWL over the compiled wirelength table and flat SoA coordinates:
// pin position = device center + precomputed center-relative offset, no
// object indirection. Matches hpwl_via_placement exactly for unflipped
// devices (the wl table bakes in the unflipped offsets).
double hpwl_via_flat(const netlist::CompiledCircuit& cc,
                     const netlist::PlacementState& s) {
  const std::span<const double> weight = cc.wl_weight();
  double total = 0;
  for (std::size_t i = 0; i < cc.num_wl_nets(); ++i) {
    const std::span<const std::uint32_t> dev = cc.wl_pin_device(i);
    const std::span<const double> dx = cc.wl_pin_dx(i);
    const std::span<const double> dy = cc.wl_pin_dy(i);
    double xmin = s.x[dev[0]] + dx[0], xmax = xmin;
    double ymin = s.y[dev[0]] + dy[0], ymax = ymin;
    for (std::size_t k = 1; k < dev.size(); ++k) {
      const double x = s.x[dev[k]] + dx[k];
      const double y = s.y[dev[k]] + dy[k];
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
    }
    total += weight[i] * ((xmax - xmin) + (ymax - ymin));
  }
  return total;
}

// Quick-mode compiled-core table: CompiledCircuit construction cost per
// circuit (compile-topology) and exact HPWL over the flat wirelength table
// vs. the AoS Placement walk (hpwl-flat vs. hpwl-placement). The regression
// gate tracks all three rows, so the flat path silently regressing below
// the AoS path fails CI.
void print_compiled_core_table(bench::JsonReport& json) {
  using clock = std::chrono::steady_clock;
  std::printf("\n==== compiled flat-netlist core ====\n");
  std::printf("%-10s %14s %16s %14s %10s\n", "circuit", "compile (us)",
              "hpwl-plc (us)", "hpwl-flat (us)", "speedup");
  for (const char* name : {"CC-OTA", "SCF"}) {
    circuits::TestCase tc = circuits::make_testcase(name);
    const netlist::Circuit& c = tc.circuit;

    const int compile_reps = 2000;
    auto t0 = clock::now();
    for (int i = 0; i < compile_reps; ++i) {
      netlist::CompiledCircuit cc(c);
      benchmark::DoNotOptimize(&cc);
    }
    const double compile_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        compile_reps;

    const netlist::CompiledCircuit cc(c);
    netlist::Placement p(c);
    const std::vector<double> v = spread(c);
    const std::size_t n = c.num_devices();
    for (std::size_t i = 0; i < n; ++i) {
      p.set_position(DeviceId{i}, {v[i], v[n + i]});
    }
    const netlist::PlacementState state =
        netlist::PlacementState::from_placement(p);

    const int reps = 20000;
    double sink = 0;
    t0 = clock::now();
    for (int i = 0; i < reps; ++i) sink += hpwl_via_placement(c, p);
    const double plc_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        reps;
    t0 = clock::now();
    for (int i = 0; i < reps; ++i) sink -= hpwl_via_flat(cc, state);
    const double flat_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        reps;
    benchmark::DoNotOptimize(sink);
    if (std::abs(sink) > 1e-9 * reps) {
      std::printf("WARNING: flat and placement HPWL disagree on %s\n", name);
    }

    std::printf("%-10s %14.2f %16.3f %14.3f %9.1fx\n", name, compile_us,
                plc_us, flat_us, plc_us / flat_us);
    json.add_timing(name, "compile-topology", compile_us / 1e6);
    json.add_timing(name, "hpwl-placement", plc_us / 1e6);
    json.add_timing(name, "hpwl-flat", flat_us / 1e6);
  }
}

// Engines take the path simd::default_enabled() names when they are
// constructed: build one under a temporarily switched default.
struct SimdDefault {
  bool saved = simd::default_enabled();
  explicit SimdDefault(bool on) { simd::set_default_enabled(on); }
  ~SimdDefault() { simd::set_default_enabled(saved); }
};
template <class Make>
auto make_with_simd(bool on, Make&& make) {
  const SimdDefault scoped(on);
  return make();
}

// Quick-mode SIMD kernel table: scalar reference vs. Vec4d path of the
// three analytical hot kernels, each timed best-of-3 on the largest paper
// circuit (docs/PERFORMANCE.md explains how to read the rows):
//   wa-grad-*  WA wirelength value+gradient over the compiled pin CSR
//   splat-*    electrostatic charge build (bilinear splat + normalize) on
//              a 256x256 bin grid
//   fft-*      dct2+dct3+dst3 trio at n=256 (the Poisson solve's inner 1D
//              transforms)
// plus one value_and_grad of each density model at the GP defaults (32x32
// bins, region side sqrt(area / utilization)), the grid the flows use:
//   bell-density     prior work's NTUplace3 bell penalty
//   electro-density  ePlace-A's electrostatic energy (splat, 3-transform
//                    spectral solve, footprint-averaged forces)
// The rows land in BENCH_micro_kernels.json and the *_simd_speedup metrics
// are gated by scripts/check_bench_regression.py, so losing the vector
// path (or a build change silently disabling it) fails CI.
void print_simd_kernel_table(bench::JsonReport& json) {
  using clock = std::chrono::steady_clock;

  std::string largest;
  std::size_t most = 0;
  for (const std::string& name : circuits::testcase_names()) {
    const std::size_t n = circuits::make_testcase(name).circuit.num_devices();
    if (n > most) {
      most = n;
      largest = name;
    }
  }
  circuits::TestCase tc = circuits::make_testcase(largest);
  const auto cc = std::make_shared<const netlist::CompiledCircuit>(tc.circuit);
  std::printf("\n==== SIMD kernels: scalar vs %s (%s, %zu devices) ====\n",
              simd::dispatch_name(), largest.c_str(), most);
  std::printf("%-12s %14s %14s %10s\n", "kernel", "scalar (us)", "simd (us)",
              "speedup");

  // Best of three timed repetitions of `reps` calls: the run least
  // disturbed by machine load, same policy as the SA table.
  const auto best_of3 = [&](int reps, const auto& fn) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = clock::now();
      for (int i = 0; i < reps; ++i) fn();
      const double us =
          std::chrono::duration<double, std::micro>(clock::now() - t0)
              .count() /
          reps;
      best = std::min(best, us);
    }
    return best;
  };
  const auto row = [&](const char* kernel, const std::string& label,
                       double scalar_us, double simd_us) {
    std::printf("%-12s %14.2f %14.2f %9.2fx\n", kernel, scalar_us, simd_us,
                scalar_us / simd_us);
    json.add_timing(label, std::string(kernel) + "-scalar", scalar_us / 1e6);
    json.add_timing(label, std::string(kernel) + "-simd", simd_us / 1e6);
    json.add_metric(std::string(kernel) + "_simd_speedup",
                    scalar_us / simd_us);
  };

  const std::vector<double> v = spread(tc.circuit);
  double sink = 0;

  // WA wirelength value + gradient over the full circuit.
  {
    const auto make_wl = [&] { return wirelength::WaWirelength(cc); };
    wirelength::WaWirelength wl_scalar = make_with_simd(false, make_wl);
    wirelength::WaWirelength wl_simd = make_with_simd(true, make_wl);
    std::vector<double> g(v.size(), 0.0);
    const int reps = bench::quick_mode() ? 300 : 1000;
    const auto time = [&](wirelength::WaWirelength& wl) {
      wl.set_gamma(1.0);
      return best_of3(reps, [&] {
        std::fill(g.begin(), g.end(), 0.0);
        sink += wl.value_and_grad(v, g);
      });
    };
    const double scalar_us = time(wl_scalar);
    const double simd_us = time(wl_simd);
    row("wa-grad", largest, scalar_us, simd_us);
  }

  // Charge-density build (bilinear splat + normalize + overflow) at the
  // paper's largest grid. The tight region makes every device span many
  // bin columns, which is exactly the regime the 256x256 grids of the
  // production flows put the splat in.
  {
    const auto make_ed = [&] {
      return density::ElectroDensity(cc, {0, 0, 16, 16}, 256, 256);
    };
    density::ElectroDensity ed_scalar = make_with_simd(false, make_ed);
    density::ElectroDensity ed_simd = make_with_simd(true, make_ed);
    const int reps = bench::quick_mode() ? 30 : 100;
    const double scalar_us =
        best_of3(reps, [&] { ed_scalar.build_density(v); });
    const double simd_us = best_of3(reps, [&] { ed_simd.build_density(v); });
    row("splat", largest, scalar_us, simd_us);
  }

  // The Poisson solve's inner 1D transforms: forward DCT + both syntheses.
  {
    const std::size_t n = 256;
    const auto make_plan = [n] { return numeric::fft::FftPlan(n); };
    const numeric::fft::FftPlan plan_scalar = make_with_simd(false, make_plan);
    const numeric::fft::FftPlan plan_simd = make_with_simd(true, make_plan);
    std::vector<double> in(n), spec(n), out(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = std::sin(0.7 * static_cast<double>(i));
    }
    const int reps = bench::quick_mode() ? 2000 : 10000;
    const auto time = [&](const numeric::fft::FftPlan& plan) {
      return best_of3(reps, [&] {
        plan.dct2(in.data(), 1, spec.data(), 1);
        plan.dct3(spec.data(), 1, out.data(), 1);
        plan.dst3(spec.data(), 1, out.data(), 1);
        sink += out[1];
      });
    };
    const double scalar_us = time(plan_scalar);
    const double simd_us = time(plan_simd);
    row("fft", "n=256", scalar_us, simd_us);
  }

  // Both density models as GP calls them (SIMD default), one column each.
  {
    const gp::GpCommonOptions opts;
    const double side = std::sqrt(cc->total_device_area() / opts.utilization);
    const geom::Rect region{0, 0, side, side};
    const std::size_t n = cc->num_devices();
    std::vector<double> pos(2 * n), g(2 * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double fi = static_cast<double>(i);
      pos[i] = side * (0.5 + 0.35 * std::sin(1.7 * fi + 0.3));
      pos[n + i] = side * (0.5 + 0.35 * std::cos(2.3 * fi + 1.1));
    }
    density::BellDensity bell(cc, region, opts.bins, opts.bins);
    density::ElectroDensity electro(cc, region, opts.bins, opts.bins);
    const int reps = bench::quick_mode() ? 300 : 1000;
    const double bell_us =
        best_of3(reps, [&] { sink += bell.value_and_grad(pos, g, 1.0); });
    const double electro_us =
        best_of3(reps, [&] { sink += electro.value_and_grad(pos, g, 1.0); });
    std::printf("%-16s %10s   (%zux%zu bins)\n", "density kernel", "eval (us)",
                opts.bins, opts.bins);
    std::printf("%-16s %10.2f\n%-16s %10.2f\n", "bell-density", bell_us,
                "electro-density", electro_us);
    json.add_timing(largest, "bell-density", bell_us / 1e6);
    json.add_timing(largest, "electro-density", electro_us / 1e6);
  }
  benchmark::DoNotOptimize(sink);
}

// Quick-mode before/after table: times the full 2D spectral solve on the
// dense-basis (before) and FFT (after) paths without the google-benchmark
// harness, so `APLACE_QUICK=1 ./bench_micro_kernels` prints the comparison
// in a second or two.
void print_spectral_table() {
  using clock = std::chrono::steady_clock;
  bench::JsonReport json("micro_kernels");
  std::printf("==== spectral Poisson solve: dense basis vs. FFT ====\n");
  std::printf("%8s %14s %14s %10s\n", "bins", "naive (ms)", "fft (ms)",
              "speedup");
  for (const std::size_t bins : {64u, 128u, 256u}) {
    const numeric::spectral::Basis bx(bins), by(bins);
    numeric::Matrix m = random_density(bins);
    numeric::Matrix psi(bins, bins), ex(bins, bins), ey(bins, bins);

    // One warm-up each (builds the lazy dense tables / touches caches).
    spectral_solve_naive(m, bx, by, psi, ex, ey);
    spectral_solve_fft(m, bx, by, psi, ex, ey);

    const int naive_reps = bins >= 256 ? 3 : 10;
    auto t0 = clock::now();
    for (int i = 0; i < naive_reps; ++i) {
      spectral_solve_naive(m, bx, by, psi, ex, ey);
    }
    const double naive_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count() /
        naive_reps;

    const int fft_reps = 50;
    t0 = clock::now();
    for (int i = 0; i < fft_reps; ++i) {
      spectral_solve_fft(m, bx, by, psi, ex, ey);
    }
    const double fft_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count() /
        fft_reps;

    std::printf("%5zux%zu %14.3f %14.3f %9.1fx\n", bins, bins, naive_ms,
                fft_ms, naive_ms / fft_ms);
    char label[32];
    std::snprintf(label, sizeof label, "%zux%zu", bins, bins);
    json.add_timing(label, "spectral-naive", naive_ms / 1e3);
    json.add_timing(label, "spectral-fft", fft_ms / 1e3);
  }
  print_simd_kernel_table(json);
  print_compiled_core_table(json);
  print_sa_kernel_table(json);
  print_ilp_table(json);
  print_gp_term_breakdown(json);
  json.write();
}

}  // namespace

int main(int argc, char** argv) {
  const char* quick = std::getenv("APLACE_QUICK");
  if (quick != nullptr && quick[0] != '\0' && quick[0] != '0') {
    print_spectral_table();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
