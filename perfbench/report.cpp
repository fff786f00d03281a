// The benchmark-owned trace, statistics and process measurements.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>

#include "base/fnv.hpp"
#include "bench.hpp"

namespace perfbench {

// ---- trace ------------------------------------------------------------------

Trace::Scope::Scope(Trace& trace, const char* name) : trace_(&trace) {
  if (!trace.on_) return;
  const obs::SpanContext ctx = obs::current_context();
  ev_.name = name;
  ev_.id = trace.next_id_++;
  ev_.parent = ctx.current;
  ev_.root = ctx.current != 0 ? ctx.root : ev_.id;
  ev_.depth = ctx.current != 0 ? ctx.depth + 1 : 0;
  guard_ = std::make_unique<obs::ContextGuard>(
      obs::SpanContext{ev_.id, ev_.root, ev_.depth});
  ev_.start_seconds = obs::now_seconds();
}

Trace::Scope::~Scope() {
  if (!trace_->on_) return;
  ev_.dur_seconds = obs::now_seconds() - ev_.start_seconds;
  guard_.reset();
  // Spans the library left in the collector while this scope was live
  // (layers called outside a flow, such as the router behind FOM scoring).
  absorb(obs::SpanCollector::global().drain());
  trace_->events_.push_back(std::move(ev_));
}

void Trace::Scope::absorb(std::vector<obs::SpanEvent> events) {
  if (!trace_->on_) return;
  for (obs::SpanEvent& e : events) {
    if (e.parent == 0) e.parent = ev_.id;  // a root the library started
    trace_->events_.push_back(std::move(e));
  }
}

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

// ---- span analysis ----------------------------------------------------------

namespace {

// Flow root spans carry the flow's name ("ePlace-A", "SA", ...) and the
// flow's stage spans are "flow/..."; both are src/core.
std::string layer_of(const std::string& span_name) {
  const std::size_t slash = span_name.find('/');
  if (slash == std::string::npos) return "core";
  const std::string prefix = span_name.substr(0, slash);
  return prefix == "flow" ? "core" : prefix;
}

// Length of the union of [a, b) intervals, clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_a = 0, cur_b = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
    } else {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

// Each span's duration minus the union of its children's intervals.
std::vector<double> self_times(const std::vector<obs::SpanEvent>& events) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const obs::SpanEvent& e : events) {
    if (e.parent != 0) {
      children[e.parent].emplace_back(e.start_seconds,
                                      e.start_seconds + e.dur_seconds);
    }
  }
  std::vector<double> out;
  out.reserve(events.size());
  for (const obs::SpanEvent& e : events) {
    const auto it = children.find(e.id);
    const double kids =
        it == children.end()
            ? 0.0
            : covered(it->second, e.start_seconds,
                      e.start_seconds + e.dur_seconds);
    out.push_back(std::max(0.0, e.dur_seconds - kids));
  }
  return out;
}

}  // namespace

std::map<std::string, double> self_time_by_layer(
    const std::vector<obs::SpanEvent>& events) {
  const std::vector<double> self = self_times(events);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_layer[layer_of(events[i].name)] += self[i];
  }
  return by_layer;
}

double layer_seconds(const std::vector<obs::SpanEvent>& events,
                     const std::string& layer) {
  std::map<std::uint64_t, const obs::SpanEvent*> by_id;
  for (const obs::SpanEvent& e : events) by_id[e.id] = &e;
  double s = 0;
  for (const obs::SpanEvent& e : events) {
    if (layer_of(e.name) != layer) continue;
    const auto parent = by_id.find(e.parent);
    if (parent == by_id.end() || layer_of(parent->second->name) != layer) {
      s += e.dur_seconds;
    }
  }
  return s;
}

double span_seconds(const std::vector<obs::SpanEvent>& events,
                    const std::string& name) {
  double s = 0;
  for (const obs::SpanEvent& e : events) {
    if (e.name == name) s += e.dur_seconds;
  }
  return s;
}

double candidate_imbalance(const std::vector<obs::SpanEvent>& events) {
  std::map<std::uint64_t, std::vector<double>> by_flow;
  for (const obs::SpanEvent& e : events) {
    if (e.name == "flow/candidate") by_flow[e.parent].push_back(e.dur_seconds);
  }
  std::vector<double> ratios;
  for (const auto& [flow, durs] : by_flow) {
    if (durs.size() < 2) continue;
    double sum = 0;
    for (double d : durs) sum += d;
    const double mean = sum / static_cast<double>(durs.size());
    if (mean > 0) {
      ratios.push_back(*std::max_element(durs.begin(), durs.end()) / mean);
    }
  }
  if (ratios.empty()) return 1.0;
  double sum = 0;
  for (double r : ratios) sum += r;
  return sum / static_cast<double>(ratios.size());
}

// ---- process ----------------------------------------------------------------

std::uint64_t program_digest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  if (!in) throw std::runtime_error("cannot read /proc/self/exe");
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  return base::fnv1a64(bytes);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
