#pragma once
// Performance-driven placement (paper Sec. V): GNN-guided variants of all
// three methods.
//
//   * PerfContext    — per-circuit bundle: surrogate performance model,
//                      circuit graph, GNN trained on generated placement
//                      samples (label 1 = FOM below threshold).
//   * run_eplace_ap  — ePlace-AP: ePlace-A GP with alpha * dPhi/dv descent
//                      through the GNN (gradient back-propagated to device
//                      coordinates), same ILP detailed placement.
//   * run_prior_work_perf — the paper's Perf* extension of [11]: same GNN
//                      term added to the CG objective.
//   * run_sa_perf    — performance-driven SA [19]: Phi inference added to
//                      the annealing cost.
//   * evaluate_routed — route the placement, extract parasitics, run the
//                      surrogate "SPICE" and report metric values + FOM.
//
// The three runners are the conventional flows of core/flow.hpp with the
// GNN term added (GpCommonOptions::extra_term, SaOptions::extra_cost):
// same pre-flight validation, fallback chain and structured Status, and
// they never throw. They honour every field of their options struct —
// time_budget_seconds, deadline, cancel and inject included — except
// compile_cache: every engine is built from ctx.compiled, which must have
// been compiled from `circuit` itself. `perf` is filled only when the flow
// ends Ok.

#include <memory>

#include "core/flow.hpp"
#include "gnn/graph.hpp"
#include "gnn/model.hpp"
#include "gnn/trainer.hpp"
#include "perf/model.hpp"
#include "route/router.hpp"

namespace aplace::core {

struct DatasetOptions {
  int random_samples = 700;   ///< random sequence-pair packings
  int optimized_samples = 24; ///< short-SA placements (good region coverage)
  /// Jittered copies of an analytical placement: densifies the dataset in
  /// the neighborhood the GNN-guided placers actually explore.
  int analytic_samples = 48;
  long sa_moves_per_sample = 1500;
  std::uint64_t seed = 11;
};

struct PerfContext {
  /// One compiled snapshot shared by the model, the router and every engine
  /// the perf flows build for this circuit.
  std::shared_ptr<const netlist::CompiledCircuit> compiled;
  perf::PerformanceModel model;
  gnn::CircuitGraph graph;
  gnn::GnnModel net;
  gnn::TrainReport training;
  double label_threshold = 0.0;  ///< FOM boundary used for dataset labels

  PerfContext(std::shared_ptr<const netlist::CompiledCircuit> cc,
              perf::PerformanceModel m, gnn::CircuitGraph g)
      : compiled(std::move(cc)), model(std::move(m)), graph(std::move(g)) {}
};

/// Generate a labeled dataset, train the GNN, return the ready context.
[[nodiscard]] std::unique_ptr<PerfContext> build_perf_context(
    const netlist::Circuit& circuit, const perf::PerformanceSpec& spec,
    DatasetOptions opts = {}, gnn::TrainOptions train_opts = {});

struct PerfFlowResult {
  FlowResult flow;
  perf::PerformanceResult perf;  ///< routed + surrogate-simulated metrics
};

/// Runs opts.candidates + 1 candidates one at a time: candidate 0 is a
/// conventional ePlace-A candidate, the rest add the GNN term; candidate k
/// seeds its GP with gp.seed + 48k. The winner minimizes normalized area +
/// HPWL + 2 Phi.
[[nodiscard]] PerfFlowResult run_eplace_ap(const netlist::Circuit& circuit,
                                           PerfContext& ctx,
                                           EPlaceAOptions opts = {});
[[nodiscard]] PerfFlowResult run_prior_work_perf(
    const netlist::Circuit& circuit, PerfContext& ctx,
    PriorWorkOptions opts = {});
[[nodiscard]] PerfFlowResult run_sa_perf(const netlist::Circuit& circuit,
                                         PerfContext& ctx,
                                         SaFlowOptions opts = {},
                                         double alpha = 1.0);

/// Route + surrogate-simulate an existing placement.
[[nodiscard]] perf::PerformanceResult evaluate_routed(
    const PerfContext& ctx, const netlist::Placement& placement);

/// GNN failure probability of a placement (inference only).
[[nodiscard]] double gnn_phi(const PerfContext& ctx,
                             const netlist::Placement& placement);

}  // namespace aplace::core
