#pragma once
// Composable objective-term layer shared by both analytical global placers.
//
// The paper's central comparison (Tables 3-5, Fig. 2) is a comparison of
// *objective compositions*: WA vs. LSE wirelength, electrostatic vs.
// bell-shaped density, with/without the area term, plus the GNN extra term
// of the performance-driven variants. This module makes that composition a
// first-class object instead of a hand-rolled gradient lambda per placer:
//
//   * ObjectiveTerm       — one named term: value + gradient at v, plus a
//                           cheap/expensive cost hint.
//   * CompositeObjective  — ordered list of weighted terms. Evaluates them
//                           in sequence into the caller's gradient buffer
//                           (allocation-free after construction; the
//                           underlying kernels keep their own thread-pool
//                           parallelism) and records per-term observability:
//                           eval counts, wall time, last value/grad-norm.
//   * WeightScheduler     — centralizes the initial-gradient-magnitude
//                           weight calibration and the per-iteration growth
//                           rules previously duplicated across the two
//                           placers.
//   * TermTrace           — the per-term instrumentation snapshot threaded
//                           through GpResult/FlowResult into the bench JSON.
//
// Adapters at the bottom of this header wrap the existing kernels
// (SmoothWirelength, ElectroDensity, BellDensity, WaAreaTerm, each
// ConstraintPenalties family, and an arbitrary value-and-grad functor for
// the GNN term) without changing their math: a composite built to mirror
// the old lambdas accumulates the same contributions in the same order.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "density/bell.hpp"
#include "density/electro.hpp"
#include "geom/rect.hpp"
#include "gp/penalties.hpp"
#include "numeric/vec.hpp"
#include "wirelength/area_term.hpp"
#include "wirelength/smooth_wl.hpp"

namespace aplace::gp {

/// Rough per-evaluation cost of a term, used by callers that want to
/// subsample expensive terms (and by the trace printer for ordering).
enum class TermCost : std::uint8_t {
  Cheap,      ///< O(n) or O(constraints): penalties, boundary
  Moderate,   ///< O(pins) / O(n * support): wirelength, bell density, area
  Expensive,  ///< spectral solve / GNN forward+backward
};

[[nodiscard]] constexpr const char* to_string(TermCost c) {
  switch (c) {
    case TermCost::Cheap: return "cheap";
    case TermCost::Moderate: return "moderate";
    case TermCost::Expensive: return "expensive";
  }
  return "?";
}

/// One differentiable objective term f_i(v). Implementations ADD
/// scale * df_i/dv into `grad` and return the raw (unscaled) value f_i(v).
class ObjectiveTerm {
 public:
  virtual ~ObjectiveTerm() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual TermCost cost() const { return TermCost::Cheap; }

  /// Evaluate at v = (x.., y..); add scale * gradient into grad (same
  /// size); return the raw term value.
  virtual double value_and_grad(std::span<const double> v,
                                std::span<double> grad, double scale) = 0;
};

/// Cumulative per-term observability counters plus the latest sample.
struct TermStats {
  std::string name;
  TermCost cost = TermCost::Cheap;
  std::uint64_t evals = 0;   ///< value_and_grad calls (incl. calibration)
  double seconds = 0;        ///< wall time spent inside the term
  double value = 0;          ///< raw value at the last evaluation
  double grad_norm = 0;      ///< mean-abs of the last weighted contribution
  double weight = 0;         ///< current scheduled weight
};

/// Per-term instrumentation of one GP run: cumulative totals plus a
/// decimated per-outer-iteration history (so long Nesterov runs stay
/// bounded). Threaded through GpResult -> FlowResult -> bench JSON.
struct TermTrace {
  /// One sampled outer iteration: parallel arrays over `terms`.
  struct Sample {
    int iter = 0;
    std::vector<double> values;
    std::vector<double> weights;
    std::vector<double> grad_norms;
  };

  std::vector<TermStats> terms;
  std::vector<Sample> samples;
  int sample_stride = 1;  ///< samples kept every `stride` sample() calls

  [[nodiscard]] bool empty() const { return terms.empty(); }
  [[nodiscard]] double total_seconds() const;
  [[nodiscard]] const TermStats* find(std::string_view name) const;

  /// Fold another run's trace into this one (candidate/multi-start
  /// aggregation): eval counts and seconds add up; value/grad-norm/weight
  /// and the sample history keep this trace's (the winner's) data. Terms
  /// are matched by name; unmatched terms are appended.
  void merge_counts(const TermTrace& other);
};

/// Fold a finished run's trace into the global obs::MetricsRegistry —
/// per-term eval counters ("gp/term/<name>/evals") and per-run seconds
/// histograms ("gp/term/<name>/run_seconds"). Call once per flow on the
/// final (merged) trace; a no-op when observability is disabled.
void publish_trace_metrics(const TermTrace& trace);

/// Ordered weighted sum F(v) = sum_i w_i f_i(v) with per-term stats.
///
/// The hot path is allocation-free: terms write scale=w_i gradients
/// directly into the caller's buffer (exactly what the hand-rolled lambdas
/// did), and the per-term gradient-norm probe reuses one scratch snapshot
/// owned by the composite. Evaluation order == registration order, so a
/// composite mirroring an old lambda reproduces its floating-point result.
class CompositeObjective {
 public:
  explicit CompositeObjective(std::size_t num_vars);

  /// Register a term (evaluation order = registration order). Returns the
  /// term index. `weight` is the initial weight; `enabled` = false keeps
  /// the term registered (visible in traces) but never evaluated.
  std::size_t add_term(std::shared_ptr<ObjectiveTerm> term,
                       double weight = 1.0, bool enabled = true);

  [[nodiscard]] std::size_t num_terms() const { return terms_.size(); }
  [[nodiscard]] std::size_t num_vars() const { return num_vars_; }

  [[nodiscard]] std::size_t index_of(std::string_view name) const;
  [[nodiscard]] bool has_term(std::string_view name) const;

  [[nodiscard]] double weight(std::string_view name) const;
  void set_weight(std::string_view name, double w);
  void scale_weight(std::string_view name, double factor);
  [[nodiscard]] bool enabled(std::string_view name) const;
  void set_enabled(std::string_view name, bool enabled);

  /// F(v) and its gradient: zeroes `grad`, then accumulates every enabled
  /// term in registration order with its current weight. Returns the
  /// weighted total sum_i w_i f_i(v).
  double value_and_grad(std::span<const double> v, std::span<double> grad);

  /// Probe one term's raw gradient magnitude (mean-abs of df_i/dv at v)
  /// without touching any caller state; used by weight calibration.
  double probe_grad_magnitude(std::size_t term_index,
                              std::span<const double> v);

  /// Record one per-outer-iteration sample of (value, weight, grad-norm)
  /// for every term. The history is decimated (stride doubling) once it
  /// exceeds `max_samples`, keeping memory bounded on long runs.
  void sample(int iter);

  [[nodiscard]] const TermTrace& trace() const { return trace_; }
  /// Reset eval counts, seconds and the sample history (weights stay).
  void reset_trace();

  /// Per-eval gradient-norm probing costs two extra O(n) passes per term;
  /// it is on by default (the benches want it) but can be disabled for
  /// pure speed runs.
  void set_observe_grad_norms(bool on) { observe_grad_norms_ = on; }

  static constexpr int kMaxSamples = 96;

 private:
  struct Entry {
    std::shared_ptr<ObjectiveTerm> term;
    double weight = 1.0;
    bool enabled = true;
  };

  [[nodiscard]] std::size_t must_find(std::string_view name) const;

  std::size_t num_vars_;
  std::vector<Entry> terms_;
  TermTrace trace_;
  numeric::Vec scratch_;  ///< grad snapshot for the grad-norm probe
  bool observe_grad_norms_ = true;
  int sample_calls_ = 0;
};

/// Centralized weight calibration + growth scheduling.
///
/// Initial weights come from gradient magnitudes at the starting point v0
/// (the rule both placers previously duplicated):
///
///   RelToRefGrad:  w = rel * |g_ref| / |g_own|   (fallback: rel when the
///                  own-gradient magnitude vanishes)
///   TiedTo:        w = w(master) * rel / max(master_rel, 1e-12), and the
///                  weight is *stored* (not recomputed), so subsequent
///                  growth applies to it independently — exactly the old
///                  align/order derivation from tau.
///   RefOverScale:  w = rel * |g_ref| / scale_div  (boundary hinge: strong
///                  enough to beat the wirelength pull within a fraction
///                  of a bin, no own-gradient normalization)
///   Fixed:         w = rel verbatim (the reference wirelength term, w=1)
///
/// Per-iteration growth: advance() multiplies every term's weight by its
/// rule's growth factor; advance(name, factor) applies a caller-computed
/// factor (ePlace's self-adaptive lambda exponent).
class WeightScheduler {
 public:
  struct Rule {
    enum class Init : std::uint8_t { Fixed, RelToRefGrad, TiedTo, RefOverScale };
    Init init = Init::RelToRefGrad;
    double rel = 1.0;
    std::string tied_to;    ///< TiedTo: master term name
    double tied_rel = 1.0;  ///< TiedTo: master's rel (the denominator)
    double scale_div = 1.0; ///< RefOverScale: length scale divisor
    double growth = 1.0;    ///< multiplicative factor per advance()
  };

  explicit WeightScheduler(CompositeObjective& objective)
      : obj_(&objective) {}

  void set_rule(std::string term, Rule rule);
  [[nodiscard]] const Rule* rule(std::string_view term) const;

  /// Assign every ruled term's initial weight from gradient magnitudes at
  /// v0. `ref` names the reference term (its magnitude is the numerator;
  /// disabled terms are skipped). Probes each RelToRefGrad term once.
  /// Returns the clamped reference magnitude max(|g_ref|, 1e-12) — the
  /// placers reuse it as their length/score scale.
  double calibrate(std::span<const double> v0, std::string_view ref);

  /// w *= growth for every ruled term whose growth != 1.
  void advance();
  /// w *= factor for one term (self-adaptive schedules).
  void advance(std::string_view term, double factor);

 private:
  CompositeObjective* obj_;
  std::vector<std::pair<std::string, Rule>> rules_;
};

// ---- kernel adapters --------------------------------------------------------

/// WA or LSE smoothed wirelength (weight is 1 in both placers; non-unit
/// scales go through an internal scratch buffer).
class SmoothWirelengthTerm final : public ObjectiveTerm {
 public:
  SmoothWirelengthTerm(wirelength::SmoothWirelength& wl, std::string name)
      : wl_(&wl), name_(std::move(name)) {}
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] TermCost cost() const override { return TermCost::Moderate; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override;

 private:
  wirelength::SmoothWirelength* wl_;
  std::string name_;
  numeric::Vec scratch_;
};

/// Electrostatic potential energy (ePlace density).
class ElectroDensityTerm final : public ObjectiveTerm {
 public:
  explicit ElectroDensityTerm(density::ElectroDensity& dens) : dens_(&dens) {}
  [[nodiscard]] std::string_view name() const override { return "density"; }
  [[nodiscard]] TermCost cost() const override { return TermCost::Expensive; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override {
    return dens_->value_and_grad(v, grad, scale);
  }

 private:
  density::ElectroDensity* dens_;
};

/// Bell-shaped density penalty (NTUplace3-style prior work).
class BellDensityTerm final : public ObjectiveTerm {
 public:
  explicit BellDensityTerm(density::BellDensity& dens) : dens_(&dens) {}
  [[nodiscard]] std::string_view name() const override { return "density"; }
  [[nodiscard]] TermCost cost() const override { return TermCost::Moderate; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override {
    return dens_->value_and_grad(v, grad, scale);
  }

 private:
  density::BellDensity* dens_;
};

/// Smoothed bounding-box area WA_x * WA_y (ePlace-A only; Fig. 2).
class SmoothAreaTerm final : public ObjectiveTerm {
 public:
  explicit SmoothAreaTerm(wirelength::WaAreaTerm& area) : area_(&area) {}
  [[nodiscard]] std::string_view name() const override { return "area"; }
  [[nodiscard]] TermCost cost() const override { return TermCost::Moderate; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override {
    return area_->value_and_grad(v, grad, scale);
  }

 private:
  wirelength::WaAreaTerm* area_;
};

/// One ConstraintPenalties family as a term.
class PenaltyTerm final : public ObjectiveTerm {
 public:
  enum class Kind : std::uint8_t {
    Symmetry,
    CommonCentroid,
    Alignment,
    Ordering,
    Boundary,
  };

  /// Non-boundary families.
  PenaltyTerm(const ConstraintPenalties& pen, Kind kind);
  /// Boundary hinge (needs the placement region).
  PenaltyTerm(const ConstraintPenalties& pen, const geom::Rect& region);

  [[nodiscard]] std::string_view name() const override;
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override;

 private:
  const ConstraintPenalties* pen_;
  Kind kind_;
  geom::Rect region_{};
};

/// Arbitrary value-and-grad functor (a test seam, e.g. as
/// GpCommonOptions::extra_term). The functor ADDS its raw gradient to the
/// span it is given; the adapter applies the scale through an internal
/// scratch buffer.
class FunctionTerm final : public ObjectiveTerm {
 public:
  using Fn = std::function<double(std::span<const double> v,
                                  std::span<double> grad)>;

  FunctionTerm(std::string name, Fn fn, TermCost cost = TermCost::Expensive)
      : name_(std::move(name)), fn_(std::move(fn)), cost_(cost) {}
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] TermCost cost() const override { return cost_; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override;

 private:
  std::string name_;
  Fn fn_;
  TermCost cost_;
  numeric::Vec scratch_;
};

}  // namespace aplace::gp
