// Paper Table IV: detailed-placement head-to-head. Both detailed placers
// start from identical ePlace-A global placement solutions; ePlace-A's
// single-stage ILP with flipping should win HPWL over the two-stage LP of
// [11]. Runtime covers detailed placement only.

#include <chrono>

#include "bench_common.hpp"
#include "gp/eplace_gp.hpp"
#include "legal/ilp_detailed.hpp"
#include "legal/two_stage_lp.hpp"

int main() {
  using namespace aplace;
  using Clock = std::chrono::steady_clock;
  bench::header(
      "Table IV: detailed placement of [11] vs ePlace-A (same GP input)");
  std::printf("%-8s | %20s | %20s\n", "", "two-stage LP [11]",
              "ePlace-A ILP");
  std::printf("%-8s | %6s %6s %6s | %6s %6s %6s\n", "Design", "Area", "HPWL",
              "t(s)", "Area", "HPWL", "t(s)");

  bench::JsonReport json("table4_detailed");
  // Paper uses VCO1, Comp1, SCF.
  for (const char* name : {"VCO1", "Comp1", "SCF"}) {
    circuits::TestCase tc = circuits::make_testcase(name);
    const netlist::Circuit& c = tc.circuit;
    const auto cc = std::make_shared<const netlist::CompiledCircuit>(c);

    gp::EPlaceGlobalPlacer gpp(cc, bench::paper_eplace_options().gp);
    const gp::GpResult gpr = gpp.run();

    const auto t0 = Clock::now();
    legal::TwoStageResult two =
        legal::TwoStageLpLegalizer(cc).place(gpr.positions);
    const double t_two = std::chrono::duration<double>(Clock::now() - t0)
                             .count();

    const auto t1 = Clock::now();
    legal::IlpResult ilp = legal::IlpDetailedPlacer(cc).place(gpr.positions);
    const double t_ilp = std::chrono::duration<double>(Clock::now() - t1)
                             .count();

    const netlist::Evaluator ev(c);
    const netlist::QualityReport q2 = ev.evaluate(two.placement);
    const netlist::QualityReport qi = ev.evaluate(ilp.placement);
    json.add_run(name, "dp-two-stage-lp", 0, t_two, q2.hpwl, q2.area,
                 q2.legal());
    json.add_run(name, "dp-ilp", 0, t_ilp, qi.hpwl, qi.area, qi.legal());
    std::printf("%-8s | %6.1f %6.1f %6.2f | %6.1f %6.1f %6.2f%s\n", name,
                q2.area, q2.hpwl, t_two, qi.area, qi.hpwl, t_ilp,
                (q2.legal() && qi.legal()) ? "" : "  [ILLEGAL]");
    std::fflush(stdout);
  }
  json.write();
  std::printf(
      "\nPaper reference ([11] | ePlace-A, area/HPWL/runtime):\n"
      "VCO1     | 315.7 188.1 0.95 | 315.7 181.7 1.07\n"
      "Comp1    | 102.1  45.3 0.42 | 102.1  41.9 0.75\n"
      "SCF      | 1873.9 436.7 1.91 | 1873.9 416.0 2.32\n"
      "Expected shape: same/beaten area, smaller HPWL for the ILP (mostly\n"
      "from device flipping).\n");
  return 0;
}
