// The benchmark's three workloads. Each is a fixed list of paper circuits
// put through one flow, one placement after another (a closed loop with a
// single client). README.md says why each was chosen.

#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "numeric/rng.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// GP seeds per circuit on prior-work: one pass of its ten circuits takes
// about a second, so each circuit is placed under several seeds.
constexpr std::uint64_t kPriorSeeds = 6;
// Per-circuit annealing cap on sa. The paper schedule alone runs 7-26M
// moves per circuit (80 s for the ten); at 1-2M moves/s the cap keeps a pass
// near 8 s.
constexpr long kSaMaxMoves = 1'500'000;

// The paper's SA schedule (bench/bench_common.hpp, paper_sa_options()).
sa::SaOptions paper_sa_options() {
  sa::SaOptions o;
  o.cooling = 0.9985;
  o.moves_per_temp_per_block = 150;
  return o;
}

// Layout side used to scale the GNN features; PerfContext needs a graph even
// where only its routed evaluation is used.
double coord_scale_of(const netlist::Circuit& c) {
  return std::sqrt(c.total_device_area() / 0.5);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"eplace-a", "prior-work",
                                                 "sa"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const std::vector<std::string>& all = circuits::testcase_names();
  Workload w{name, Flow::EPlaceA, all, {}};
  if (name == "eplace-a" || name == "sa") {
    w.flow = name == "sa" ? Flow::Sa : Flow::EPlaceA;
    for (std::size_t c = 0; c < all.size(); ++c) {
      w.jobs.push_back(Job{c, numeric::split_seed(seed, c)});
    }
  } else if (name == "prior-work") {
    w.flow = Flow::PriorWork;
    for (std::uint64_t g = 0; g < kPriorSeeds; ++g) {
      for (std::size_t c = 0; c < all.size(); ++c) {
        w.jobs.push_back(
            Job{c, numeric::split_seed(numeric::split_seed(seed, c), g)});
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::unique_ptr<Prepared> set_up(const Workload& w, Trace& trace) {
  Trace::Scope setup(trace, "bench/setup");
  auto prep = std::make_unique<Prepared>();
  prep->cache = std::make_shared<core::CompileCache>();
  prep->cases.reserve(w.circuits.size());
  for (const std::string& name : w.circuits) {
    Trace::Scope s(trace, "circuits/make_testcase");
    prep->cases.push_back(circuits::make_testcase(name));
  }
  for (const circuits::TestCase& tc : prep->cases) {
    std::shared_ptr<const netlist::CompiledCircuit> cc;
    {
      Trace::Scope s(trace, "netlist/compile");
      cc = core::compile_or_fetch(prep->cache, tc.circuit);
    }
    // Only evaluate_routed is used: the surrogate model and the router.
    prep->perf.push_back(std::make_unique<core::PerfContext>(
        cc, perf::PerformanceModel(cc, tc.spec),
        gnn::CircuitGraph(cc, coord_scale_of(tc.circuit))));
  }
  return prep;
}

Placed place(const Workload& w, Prepared& prep, const Job& job,
             Trace& trace) {
  const circuits::TestCase& tc = prep.cases[job.circuit];
  const netlist::Circuit& circuit = tc.circuit;
  std::optional<core::FlowResult> flow;
  Placed out;
  {
    static constexpr const char* kSpan[] = {
        "core/run_eplace_a", "core/run_prior_work", "core/run_sa"};
    Trace::Scope s(trace, kSpan[static_cast<int>(w.flow)]);
    const auto t0 = Clock::now();
    try {
      if (w.flow == Flow::EPlaceA) {
        core::EPlaceAOptions o;
        o.gp.seed = job.flow_seed;
        o.compile_cache = prep.cache;
        flow = core::run_eplace_a(circuit, o);
      } else if (w.flow == Flow::PriorWork) {
        core::PriorWorkOptions o;
        o.gp.seed = job.flow_seed;
        o.compile_cache = prep.cache;
        flow = core::run_prior_work(circuit, o);
      } else {
        core::SaFlowOptions o;
        o.sa = paper_sa_options();
        o.sa.max_moves = kSaMaxMoves;
        o.sa.seed = job.flow_seed;
        o.compile_cache = prep.cache;
        flow = core::run_sa(circuit, o);
      }
    } catch (const std::exception& e) {
      // The flows convert failures to a status; this is a contract breach.
      out.problem = std::string("flow threw: ") + e.what();
    }
    out.seconds = seconds_since(t0);
    if (flow) s.absorb(std::move(flow->spans));
  }
  if (!flow) return out;

  out.status_ok = flow->ok();
  out.fallback = flow->fallback;
  out.sa_net_eval_ratio = flow->sa_net_eval_ratio;
  out.gp_trace = std::move(flow->gp_trace);
  {
    // Independent re-check: the flow's own status is not trusted.
    Trace::Scope s(trace, "netlist/recheck");
    const netlist::Evaluator eval(circuit);
    const netlist::QualityReport q = eval.evaluate(flow->placement);
    const std::vector<std::string> v = eval.violations(flow->placement);
    out.hpwl = q.hpwl;
    out.area = q.area;
    out.recheck_legal = q.legal() && v.empty();
    if (!v.empty()) out.problem = v.front();
  }
  if (!out.status_ok && out.problem.empty()) {
    out.problem = flow->status.to_string();
  }
  {
    Trace::Scope s(trace, "perf/evaluate_routed");
    out.fom = core::evaluate_routed(*prep.perf[job.circuit], flow->placement)
                  .fom;
  }
  return out;
}

ProbeTotals probe_legal(const Workload& w, Prepared& prep, Trace& trace) {
  ProbeTotals t;
  for (const Job& job : w.jobs) {
    const netlist::Circuit& circuit = prep.cases[job.circuit].circuit;
    const auto cc = prep.cache->get_or_compile(circuit);
    gp::EPlaceGpOptions gopts;
    gopts.seed = numeric::split_seed(job.flow_seed, 0);  // candidate 0's
    gp::GpResult gpr = [&] {
      Trace::Scope s(trace, "gp/EPlaceGlobalPlacer::run");
      return gp::EPlaceGlobalPlacer(cc, gopts).run();
    }();
    legal::IlpResult ilp = [&] {
      Trace::Scope s(trace, "legal/IlpDetailedPlacer::place");
      const auto t0 = Clock::now();
      legal::IlpResult r = legal::IlpDetailedPlacer(cc, {}).place(gpr.positions);
      t.ilp_place_s += seconds_since(t0);
      return r;
    }();
    t.bb_nodes += ilp.bb_nodes;
    t.reshape_accepted += ilp.reshape_accepted;
    Trace::Scope s(trace, "netlist/Evaluator::evaluate");
    t.all_ok = t.all_ok && ilp.ok() &&
               netlist::Evaluator(circuit).evaluate(ilp.placement).legal();
  }
  return t;
}

}  // namespace perfbench
