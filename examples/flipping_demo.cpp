// Device-flipping demo (paper Fig. 3): two devices whose pins face away
// from each other. The ILP detailed placer decides the flipping binaries
// (Eq. 4d) and pulls the connected pins together.
//
//   $ ./flipping_demo

#include <cstdio>
#include <memory>

#include "legal/ilp_detailed.hpp"
#include "netlist/circuit.hpp"

int main() {
  using namespace aplace;

  // Build the Fig. 3 scene: A's pin on its right edge, B's on its left.
  netlist::Circuit c("fig3");
  const DeviceId a = c.add_device("A", netlist::DeviceType::Nmos, 4, 2);
  const DeviceId b = c.add_device("B", netlist::DeviceType::Nmos, 4, 2);
  const PinId pa = c.add_pin(a, "p", {4, 1});
  const PinId pb = c.add_pin(b, "p", {0, 1});
  c.add_net("n", {pa, pb});
  c.finalize();
  (void)pa;
  (void)pb;

  const std::vector<double> start{2, 8, 1, 1};  // side by side

  auto show = [&](const char* tag, const legal::IlpResult& r) {
    const geom::Point qa = r.placement.position(a);
    const geom::Point qb = r.placement.position(b);
    const geom::Orientation oa = r.placement.orientation(a);
    const geom::Orientation ob = r.placement.orientation(b);
    std::printf("%-12s HPWL %.2f um | A at (%.1f, %.1f) %s | B at "
                "(%.1f, %.1f) %s\n",
                tag, r.placement.total_hpwl(), qa.x, qa.y,
                oa.flip_x ? "flipped" : "unflipped", qb.x, qb.y,
                ob.flip_x ? "flipped" : "unflipped");
  };

  legal::IlpOptions with;
  legal::IlpOptions without;
  without.enable_flipping = false;

  std::printf("Fig. 3 scenario: opposite-edge pins, one 2-pin net.\n");
  const auto cc = std::make_shared<const netlist::CompiledCircuit>(c);
  show("no flipping", legal::IlpDetailedPlacer(cc, without).place(start));
  show("flipping", legal::IlpDetailedPlacer(cc, with).place(start));
  std::printf("\nFlipping mirrors a device's pins about its center line, so\n"
              "the ILP can abut the connected pins instead of routing across\n"
              "the device (paper Sec. IV-B, constraint 4d).\n");
  return 0;
}
