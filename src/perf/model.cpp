#include "perf/model.hpp"

#include <cmath>

namespace aplace::perf {

PerformanceModel::PerformanceModel(
    std::shared_ptr<const netlist::CompiledCircuit> compiled,
    PerformanceSpec spec)
    : compiled_(std::move(compiled)), spec_(std::move(spec)) {
  APLACE_CHECK_MSG(!spec_.metrics.empty(), "empty performance spec");
  spec_.normalize_weights();
}

Features PerformanceModel::extract_features(
    const netlist::Placement& placement,
    const route::RoutingResult* routing) const {
  Features f;
  const netlist::CompiledCircuit& cc = *compiled_;
  const std::span<const std::uint8_t> critical = cc.net_critical();
  double crit = 0, total = 0;
  for (std::size_t i = 0; i < cc.num_nets(); ++i) {
    // Routed length when available; HPWL (a lower bound) otherwise.
    const double len =
        routing ? routing->net_length(NetId{i}) : placement.net_hpwl(NetId{i});
    total += len;
    if (critical[i] != 0) crit += len;
  }
  f.critical_len = crit / 50.0;
  f.total_len = total / 200.0;
  f.sqrt_area = std::sqrt(std::max(placement.layout_area(), 0.0)) / 20.0;

  double sep = 0;
  std::size_t pairs = 0;
  for (std::size_t g = 0; g < cc.num_symmetry_groups(); ++g) {
    const std::span<const std::uint32_t> pa = cc.sym_pair_a(g);
    const std::span<const std::uint32_t> pb = cc.sym_pair_b(g);
    for (std::size_t k = 0; k < pa.size(); ++k) {
      sep += (placement.position(DeviceId{pa[k]}) -
              placement.position(DeviceId{pb[k]}))
                 .norm();
      ++pairs;
    }
  }
  f.pair_sep = pairs > 0 ? sep / static_cast<double>(pairs) / 10.0 : 0.0;
  return f;
}

PerformanceResult PerformanceModel::evaluate_features(const Features& f) const {
  PerformanceResult out;
  out.features = f;
  const std::array<double, 4> x = f.as_array();
  for (const MetricSpec& m : spec_.metrics) {
    double load = 0;
    for (std::size_t k = 0; k < 4; ++k) load += m.sens[k] * x[k];
    load = std::max(load * spec_.sens_scale, 0.0);
    double z = 0;
    switch (m.form) {
      case MetricForm::InverseLoad: z = m.base / (1.0 + load); break;
      case MetricForm::LinearGrowth: z = m.base * (1.0 + load); break;
      case MetricForm::Subtractive: z = m.base - load; break;
    }
    const double zn = normalize_metric(z, m);
    out.metrics.push_back(MetricResult{m.name, z, zn, m.spec});
    out.fom += m.weight * zn;
  }
  return out;
}

PerformanceResult PerformanceModel::evaluate(
    const netlist::Placement& placement,
    const route::RoutingResult* routing) const {
  return evaluate_features(extract_features(placement, routing));
}

}  // namespace aplace::perf
