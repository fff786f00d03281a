#pragma once
// Shared helpers for the test suite.

#include <functional>
#include <memory>
#include <vector>

#include "circuits/testcases.hpp"
#include "netlist/circuit.hpp"
#include "netlist/compiled.hpp"

namespace aplace::test {

/// Compile `c` into the shared snapshot every engine constructor takes.
inline std::shared_ptr<const netlist::CompiledCircuit> compile(
    const netlist::Circuit& c) {
  return std::make_shared<const netlist::CompiledCircuit>(c);
}

/// Central finite-difference gradient of f at v.
inline std::vector<double> numeric_gradient(
    const std::function<double(const std::vector<double>&)>& f,
    std::vector<double> v, double h = 1e-5) {
  std::vector<double> g(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double orig = v[i];
    v[i] = orig + h;
    const double fp = f(v);
    v[i] = orig - h;
    const double fm = f(v);
    v[i] = orig;
    g[i] = (fp - fm) / (2 * h);
  }
  return g;
}

/// A tiny two-device circuit: one net between two pins.
inline netlist::Circuit two_device_circuit() {
  netlist::Circuit c("two");
  const DeviceId a = c.add_device("A", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId b = c.add_device("B", netlist::DeviceType::Nmos, 4, 2);
  const PinId pa = c.add_pin(a, "p", {1, 1});
  const PinId pb = c.add_pin(b, "p", {1, 1});
  c.add_net("n", {pa, pb});
  c.finalize();
  return c;
}

/// A small circuit with a symmetry pair, alignment and ordering (used by
/// constraint-handling tests).
inline netlist::Circuit constrained_circuit() {
  netlist::Circuit c("constrained");
  const DeviceId a = c.add_device("A", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId b = c.add_device("B", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId s = c.add_device("S", netlist::DeviceType::Nmos, 4, 2);
  const DeviceId r1 = c.add_device("R1", netlist::DeviceType::Resistor, 1, 3);
  const DeviceId r2 = c.add_device("R2", netlist::DeviceType::Resistor, 1, 3);
  const PinId pa = c.add_pin(a, "d", {1, 2});
  const PinId pb = c.add_pin(b, "d", {1, 2});
  const PinId ps = c.add_pin(s, "d", {2, 2});
  const PinId p1 = c.add_pin(r1, "a", {0.5, 3});
  const PinId p2 = c.add_pin(r2, "a", {0.5, 3});
  const PinId p1b = c.add_pin(r1, "b", {0.5, 0});
  const PinId p2b = c.add_pin(r2, "b", {0.5, 0});
  c.add_net("n1", {pa, p1});
  c.add_net("n2", {pb, p2});
  c.add_net("n3", {ps, p1b, p2b});
  netlist::SymmetryGroup g;
  g.axis = netlist::Axis::Vertical;
  g.pairs.emplace_back(a, b);
  g.self_symmetric.push_back(s);
  c.add_symmetry_group(std::move(g));
  c.add_alignment({netlist::AlignmentKind::Bottom, r1, r2});
  c.add_ordering({netlist::OrderDirection::LeftToRight, {r1, s}});
  c.finalize();
  return c;
}

}  // namespace aplace::test
