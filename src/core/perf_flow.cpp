#include "core/perf_flow.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "numeric/rng.hpp"
#include "sa/annealer.hpp"

namespace aplace::core {
namespace {

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

}  // namespace aplace::core
