#include "core/perf_flow.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "gnn/phi_term.hpp"
#include "numeric/rng.hpp"
#include "sa/annealer.hpp"

namespace aplace::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<double> positions_of(const netlist::Placement& pl) {
  const std::size_t n = pl.circuit().num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point p = pl.position(DeviceId{i});
    v[i] = p.x;
    v[n + i] = p.y;
  }
  return v;
}

double coord_scale_of(const netlist::Circuit& c) {
  return std::sqrt(c.total_device_area() / 0.5);
}

// The context's snapshot, shared by every engine a perf flow builds.
const std::shared_ptr<const netlist::CompiledCircuit>& snapshot_of(
    const PerfContext& ctx, const netlist::Circuit& circuit) {
  APLACE_CHECK_MSG(&ctx.compiled->circuit() == &circuit,
                   "PerfContext was built for another circuit than '"
                       << circuit.name() << "'");
  return ctx.compiled;
}

}  // namespace

std::unique_ptr<PerfContext> build_perf_context(
    const netlist::Circuit& circuit, const perf::PerformanceSpec& spec,
    DatasetOptions opts, gnn::TrainOptions train_opts) {
  // One snapshot for the whole set-up: the model, the graph, the samplers
  // and the analytical sample run all fetch it from this cache.
  auto cache = std::make_shared<CompileCache>();
  const auto compiled = cache->get_or_compile(circuit);
  auto ctx = std::make_unique<PerfContext>(
      compiled, perf::PerformanceModel(compiled, spec),
      gnn::CircuitGraph(compiled, coord_scale_of(circuit)));

  // --- sample placements ------------------------------------------------------
  numeric::Rng rng(opts.seed);
  std::vector<netlist::Placement> placements;
  placements.reserve(
      static_cast<std::size_t>(opts.random_samples + opts.optimized_samples));
  {
    sa::SaOptions sopts;
    sopts.seed = opts.seed;
    sa::SaPlacer sampler(compiled, sopts);
    for (int k = 0; k < opts.random_samples; ++k) {
      placements.push_back(sampler.sample_random(rng));
    }
  }
  for (int k = 0; k < opts.optimized_samples; ++k) {
    sa::SaOptions sopts;
    sopts.seed = opts.seed + 1000 + static_cast<std::uint64_t>(k);
    sopts.max_moves = opts.sa_moves_per_sample;
    sopts.area_weight = 0.25 + 0.5 * rng.uniform();
    sa::SaPlacer sap(compiled, sopts);
    placements.push_back(sap.place().placement);
  }
  if (opts.analytic_samples > 0) {
    // Neighborhood of a good analytical placement: jittered copies teach
    // the model the local landscape where ePlace-AP descends.
    EPlaceAOptions eopts;
    eopts.candidates = 1;
    eopts.gp.num_starts = 1;
    eopts.compile_cache = cache;
    const FlowResult base = run_eplace_a(circuit, eopts);
    const std::size_t n = circuit.num_devices();
    for (int k = 0; k < opts.analytic_samples; ++k) {
      netlist::Placement pl = base.placement;
      const double sigma = 0.1 + 2.0 * rng.uniform();
      for (std::size_t i = 0; i < n; ++i) {
        const geom::Point p = pl.position(DeviceId{i});
        pl.set_position(DeviceId{i}, {p.x + rng.normal(0, sigma),
                                      p.y + rng.normal(0, sigma)});
      }
      placements.push_back(std::move(pl));
    }
  }

  // --- label by routed surrogate performance ---------------------------------
  const route::GridRouter router;
  std::vector<double> foms;
  foms.reserve(placements.size());
  for (const netlist::Placement& pl : placements) {
    const route::RoutingResult rr = router.route(*ctx->compiled, pl);
    foms.push_back(ctx->model.evaluate(pl, &rr).fom);
  }
  // Median-FOM threshold keeps the two classes balanced for every circuit
  // (the paper's threshold is user-specified; balance is what training
  // needs). Reported FOMs in the benches are raw, threshold-independent.
  std::vector<double> sorted = foms;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  ctx->label_threshold = sorted[sorted.size() / 2];

  std::vector<gnn::Sample> samples;
  samples.reserve(placements.size());
  for (std::size_t k = 0; k < placements.size(); ++k) {
    samples.push_back(gnn::Sample{
        positions_of(placements[k]),
        foms[k] < ctx->label_threshold ? 1.0 : 0.0});
  }

  // --- train -------------------------------------------------------------------
  numeric::Rng init_rng(opts.seed + 77);
  ctx->net.initialize(init_rng);
  gnn::Trainer trainer(ctx->graph, ctx->net, train_opts);
  ctx->training = trainer.train(samples);
  return ctx;
}

perf::PerformanceResult evaluate_routed(const PerfContext& ctx,
                                        const netlist::Placement& placement) {
  const route::GridRouter router;
  const route::RoutingResult rr = router.route(*ctx.compiled, placement);
  return ctx.model.evaluate(placement, &rr);
}

double gnn_phi(const PerfContext& ctx, const netlist::Placement& placement) {
  gnn::GnnModel::Activations act;
  const numeric::Matrix x = ctx.graph.features(positions_of(placement));
  return ctx.net.forward(ctx.graph.adjacency(), x, act);
}

PerfFlowResult run_eplace_ap(const netlist::Circuit& circuit, PerfContext& ctx,
                             EPlaceAOptions opts) {
  APLACE_CHECK(opts.candidates >= 1);
  const auto& compiled = snapshot_of(ctx, circuit);
  const netlist::Evaluator eval(circuit);
  PerfFlowResult best{FlowResult{netlist::Placement(circuit), {}, 0, 0, 0},
                      {}};
  double best_score = std::numeric_limits<double>::infinity();
  double scale_area = 1.0, scale_hpwl = 1.0;
  double acc_gp = 0, acc_dp = 0, acc_total = 0;

  // Candidate 0 is the conventional trajectory (no GNN term): when the
  // model is noisy on a circuit, its own phi-aware score can still fall
  // back to the conventional placement rather than regress below it.
  for (int k = 0; k <= opts.candidates; ++k) {
    gp::EPlaceGpOptions gopts = opts.gp;
    gopts.seed = opts.gp.seed + 48ULL * static_cast<std::uint64_t>(k);

    const auto t0 = Clock::now();
    gp::EPlaceGlobalPlacer placer(compiled, gopts);
    if (k > 0) {
      placer.set_extra_term(std::make_shared<gnn::PhiTerm>(ctx.graph, ctx.net));
    }
    gp::GpResult gpr = placer.run();
    const double gp_s = seconds_since(t0);

    const auto t1 = Clock::now();
    const legal::IlpDetailedPlacer dp(compiled, opts.dp);
    legal::IlpResult dpr = dp.place(gpr.positions);
    APLACE_CHECK_MSG(dpr.ok(), "ePlace-AP detailed placement failed on '"
                                   << circuit.name() << "'");
    const double dp_s = seconds_since(t1);
    acc_gp += gp_s;
    acc_dp += dp_s;
    acc_total += gp_s + dp_s;

    PerfFlowResult cand{
        FlowResult{std::move(dpr.placement), {}, 0, 0, 0}, {}};
    cand.flow.quality = eval.evaluate(cand.flow.placement);
    cand.flow.gp_trace = std::move(gpr.trace);
    if (k == 0) {
      scale_area = std::max(cand.flow.quality.area, 1e-9);
      scale_hpwl = std::max(cand.flow.quality.hpwl, 1e-9);
    }
    // Candidate choice by the method's own objective: normalized geometry
    // plus the GNN's failure probability (not the surrogate oracle).
    const double score = cand.flow.quality.area / scale_area +
                         cand.flow.quality.hpwl / scale_hpwl +
                         2.0 * gnn_phi(ctx, cand.flow.placement);
    if (score < best_score) {
      best_score = score;
      std::swap(best, cand);
    }
    if (k > 0) {
      // Fold the losing candidate's per-term counters into the winner's
      // trace (winner keeps its weights and convergence samples).
      best.flow.gp_trace.merge_counts(cand.flow.gp_trace);
    }
  }
  best.flow.gp_seconds = acc_gp;
  best.flow.dp_seconds = acc_dp;
  best.flow.total_seconds = acc_total;
  best.perf = evaluate_routed(ctx, best.flow.placement);
  return best;
}

PerfFlowResult run_prior_work_perf(const netlist::Circuit& circuit,
                                   PerfContext& ctx, PriorWorkOptions opts) {
  const auto& compiled = snapshot_of(ctx, circuit);
  const auto t0 = Clock::now();
  gp::PriorAnalyticalGlobalPlacer placer(compiled, opts.gp);
  placer.set_extra_term(std::make_shared<gnn::PhiTerm>(ctx.graph, ctx.net));
  gp::GpResult gpr = placer.run();
  const double gp_s = seconds_since(t0);

  const auto t1 = Clock::now();
  const legal::TwoStageLpLegalizer dp(compiled, opts.dp);
  legal::TwoStageResult dpr = dp.place(gpr.positions);
  APLACE_CHECK_MSG(dpr.ok(), "Perf* detailed placement failed on '"
                                 << circuit.name() << "'");
  const double dp_s = seconds_since(t1);

  PerfFlowResult out{
      FlowResult{std::move(dpr.placement), {}, gp_s, dp_s, gp_s + dp_s}, {}};
  out.flow.quality = netlist::Evaluator(circuit).evaluate(out.flow.placement);
  out.flow.gp_trace = std::move(gpr.trace);
  out.perf = evaluate_routed(ctx, out.flow.placement);
  return out;
}

PerfFlowResult run_sa_perf(const netlist::Circuit& circuit, PerfContext& ctx,
                           SaFlowOptions opts, double alpha) {
  const auto t0 = Clock::now();
  sa::SaOptions sopts = opts.sa;
  sopts.extra_cost = [&ctx, alpha](const netlist::Placement& pl) {
    return alpha * gnn_phi(ctx, pl);
  };
  sa::SaPlacer placer(snapshot_of(ctx, circuit), sopts);
  sa::SaResult sar = placer.place();
  const double total = seconds_since(t0);

  PerfFlowResult out{FlowResult{std::move(sar.placement), {}, 0, 0, total},
                     {}};
  out.flow.quality = netlist::Evaluator(circuit).evaluate(out.flow.placement);
  out.flow.sa_moves_per_second = sar.moves_per_second;
  out.flow.sa_net_eval_ratio = sar.eval_stats.net_eval_ratio();
  out.perf = evaluate_routed(ctx, out.flow.placement);
  return out;
}

}  // namespace aplace::core
