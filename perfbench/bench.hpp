#pragma once
// Declarations shared by the benchmark's translation units: the workload
// table (workloads.cpp), the benchmark-owned trace (report.cpp) and the
// statistics and report writers (report.cpp). main.cpp drives them.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuits/testcases.hpp"
#include "core/compile_cache.hpp"
#include "core/flow.hpp"
#include "core/perf_flow.hpp"
#include "obs/span.hpp"

namespace perfbench {

using namespace aplace;

// ---- trace ------------------------------------------------------------------

/// Spans the benchmark records around its calls into the library, merged
/// with the spans the library records itself. Inactive (every call a
/// no-op) unless constructed with on = true.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}

  /// RAII span around one call into a layer. Spans the library opens while
  /// a Scope is live nest under it (the Scope installs itself as the
  /// thread's obs span context); library span trees that start their own
  /// root (flows) are re-parented under it when they are absorbed.
  class Scope {
   public:
    Scope(Trace& trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attach spans the library handed back (FlowResult::spans).
    void absorb(std::vector<obs::SpanEvent> events);

   private:
    Trace* trace_;
    obs::SpanEvent ev_{};
    std::unique_ptr<obs::ContextGuard> guard_;
  };

  [[nodiscard]] const std::vector<obs::SpanEvent>& events() const {
    return events_;
  }

 private:
  bool on_;
  std::uint64_t next_id_ = std::uint64_t{1} << 48;  // clear of obs span ids
  std::vector<obs::SpanEvent> events_;
};

// ---- workloads --------------------------------------------------------------

/// One placement of a pass: a circuit and the flow seed it runs with.
struct Job {
  std::size_t circuit = 0;  ///< index into Workload::circuits
  std::uint64_t flow_seed = 0;
};

/// Everything set-up builds; owned by the run and reused by every pass.
struct Prepared {
  std::vector<circuits::TestCase> cases;  ///< never resized after set-up
  std::shared_ptr<core::CompileCache> cache;
  /// Per circuit, the surrogate model and router behind the routed FOM.
  std::vector<std::unique_ptr<core::PerfContext>> perf;
};

/// The outcome of one placement, as the benchmark checks and scores it.
struct Placed {
  double seconds = 0;  ///< wall time of the flow call
  double hpwl = 0;
  double area = 0;
  double fom = 0;
  bool status_ok = false;     ///< the flow reported Ok
  bool recheck_legal = false; ///< an independent Evaluator found it legal
  std::string problem;        ///< first violation or the flow's status
  core::FallbackLevel fallback = core::FallbackLevel::None;
  double sa_net_eval_ratio = 0;
  gp::TermTrace gp_trace;
};

enum class Flow { EPlaceA, PriorWork, Sa };

struct Workload {
  std::string name;
  Flow flow = Flow::EPlaceA;
  std::vector<std::string> circuits;
  std::vector<Job> jobs;  ///< one pass, in order
};

/// The workload called `name` with its flow seeds split from `seed`;
/// throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);
[[nodiscard]] const std::vector<std::string>& workload_names();

[[nodiscard]] std::unique_ptr<Prepared> set_up(const Workload& w,
                                               Trace& trace);
/// Run one job (the timed part), then re-check and score its placement.
[[nodiscard]] Placed place(const Workload& w, Prepared& prep, const Job& job,
                           Trace& trace);

/// Direct per-layer probe: EPlaceGlobalPlacer::run, then
/// IlpDetailedPlacer::place on its output, then Evaluator::evaluate, each in
/// its own span. Sums over the workload's jobs.
struct ProbeTotals {
  double ilp_place_s = 0;
  long bb_nodes = 0;
  long reshape_accepted = 0;
  bool all_ok = true;
};
[[nodiscard]] ProbeTotals probe_legal(const Workload& w, Prepared& prep,
                                      Trace& trace);

// ---- statistics and reports -------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double geomean(const std::vector<double>& v);

/// Self time per layer (the span name's prefix before '/'; the flow's own
/// spans count as core): each span's duration minus the part of it its
/// child spans cover.
[[nodiscard]] std::map<std::string, double> self_time_by_layer(
    const std::vector<obs::SpanEvent>& events);

/// Time inside a layer: summed durations of its outermost spans (those
/// whose parent belongs to another layer).
[[nodiscard]] double layer_seconds(const std::vector<obs::SpanEvent>& events,
                                   const std::string& layer);

/// Sum of the durations of every span called `name`.
[[nodiscard]] double span_seconds(const std::vector<obs::SpanEvent>& events,
                                  const std::string& name);

/// Per-flow max/mean of the concurrent flow/candidate spans, averaged over
/// flows that ran more than one candidate (1 when none did).
[[nodiscard]] double candidate_imbalance(
    const std::vector<obs::SpanEvent>& events);

/// Bytes of the running executable hashed with FNV-1a64: two runs with the
/// same value ran the same program.
[[nodiscard]] std::uint64_t program_digest();

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
