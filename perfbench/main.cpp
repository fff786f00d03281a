// perfbench: the repository benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// --trace 0 measures the end-to-end metrics with observability off.
// --trace 1 runs one traced set-up and pass (plus an untraced pass for the
// overhead ratio and a direct legalizer probe) and reports the per-layer
// metrics. Either way the last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "base/simd.hpp"
#include "base/thread_pool.hpp"
#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace perfbench {
namespace {

// The widest fan-out of any flow (ePlace-A's two concurrent candidates).
constexpr unsigned kThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\nworkloads:",
               why.c_str());
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val);
      } else if (key == "--out-dir") {
        a.out_dir = val;
      } else if (key == "--commit") {
        a.commit = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + val + "' for " + key);
    }
  }
  if (!have_workload) usage("--workload is required");
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using Pass = std::vector<Placed>;

double suite_seconds(const Pass& p) {
  double s = 0;
  for (const Placed& x : p) s += x.seconds;
  return s;
}

Pass run_pass(const Workload& w, Prepared& prep, Trace& trace) {
  Pass p;
  p.reserve(w.jobs.size());
  for (const Job& job : w.jobs) p.push_back(place(w, prep, job, trace));
  return p;
}

std::string hex(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

// Correctness bookkeeping: failed placements, and any output that breaks
// the determinism contract (same seed, same bits).
struct Checker {
  explicit Checker(const Workload& wl) : w(&wl) {}

  const Workload* w;
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  std::string label(const Job& job) const {
    return w->circuits[job.circuit] + " (flow seed " +
           std::to_string(job.flow_seed) + ")";
  }

  void count(const Pass& pass) {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      const Placed& p = pass[i];
      ++attempted;
      if (p.status_ok && p.recheck_legal) continue;
      ++failed;
      // A flow that reports Ok on an illegal placement is a wrong output,
      // not just a failed one.
      if (p.status_ok) correct = false;
      notes.push_back("failed placement " + label(w->jobs[i]) + ": " +
                      p.problem);
    }
  }

  void same(const Job& job, const Placed& a, const Placed& b,
            const std::string& what) {
    if (std::bit_cast<std::uint64_t>(a.hpwl) ==
            std::bit_cast<std::uint64_t>(b.hpwl) &&
        std::bit_cast<std::uint64_t>(a.area) ==
            std::bit_cast<std::uint64_t>(b.area) &&
        std::bit_cast<std::uint64_t>(a.fom) ==
            std::bit_cast<std::uint64_t>(b.fom)) {
      return;
    }
    correct = false;
    notes.push_back("not deterministic: " + label(job) + " " + what +
                    ": hpwl " + hex(a.hpwl) + " vs " + hex(b.hpwl) +
                    ", area " + hex(a.area) + " vs " + hex(b.area) +
                    ", fom " + hex(a.fom) + " vs " + hex(b.fom));
  }

  void same_pass(const Pass& a, const Pass& b, const std::string& what) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      same(w->jobs[i], a[i], b[i], what);
    }
  }
};

// ---- per-seed result files --------------------------------------------------
// Each untraced run leaves <out>/<workload>-seed<n>.txt: the program digest,
// then per job its circuit, flow seed, quality bits and median seconds. A
// later run of the same program and seed must reproduce the quality bits;
// the paper-ratio summary reads the files of the other workloads.

struct JobRecord {
  std::string circuit;
  std::string hpwl, area, fom;  // %a, compared as text
  double seconds = 0;
};

std::string result_path(const Args& a, const std::string& workload) {
  return a.out_dir + "/" + workload + "-seed" + std::to_string(a.seed) +
         ".txt";
}

std::vector<JobRecord> load_results(const std::string& path,
                                    std::uint64_t digest) {
  std::ifstream in(path);
  std::string tag;
  std::uint64_t d = 0;
  if (!(in >> tag >> std::hex >> d >> std::dec) || tag != "digest" ||
      d != digest) {
    return {};
  }
  std::vector<JobRecord> out;
  JobRecord r;
  std::uint64_t flow_seed = 0;
  while (in >> r.circuit >> flow_seed >> r.hpwl >> r.area >> r.fom >>
         r.seconds) {
    out.push_back(r);
  }
  return out;
}

void save_results(const std::string& path, std::uint64_t digest,
                  const Workload& w, const Pass& first,
                  const std::vector<double>& job_seconds) {
  std::ofstream out(path);
  out << "digest " << std::hex << digest << std::dec << "\n";
  char buf[64];
  for (std::size_t i = 0; i < first.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.9g", job_seconds[i]);
    out << w.circuits[w.jobs[i].circuit] << " " << w.jobs[i].flow_seed << " "
        << hex(first[i].hpwl) << " " << hex(first[i].area) << " "
        << hex(first[i].fom) << " " << buf << "\n";
  }
}

// Per-circuit geomeans of one workload's records: time, area, hpwl.
std::map<std::string, std::array<double, 3>> per_circuit(
    const std::vector<JobRecord>& recs) {
  std::map<std::string, std::array<std::vector<double>, 3>> acc;
  for (const JobRecord& r : recs) {
    auto& a = acc[r.circuit];
    a[0].push_back(r.seconds);
    a[1].push_back(std::strtod(r.area.c_str(), nullptr));
    a[2].push_back(std::strtod(r.hpwl.c_str(), nullptr));
  }
  std::map<std::string, std::array<double, 3>> out;
  for (const auto& [c, a] : acc) {
    out[c] = {geomean(a[0]), geomean(a[1]), geomean(a[2])};
  }
  return out;
}

// The paper's headline (Table III): SA and prior work [11] against
// ePlace-A, as geomean ratios of runtime, area and HPWL over the circuits.
void print_paper_ratios(const Args& a, std::uint64_t digest) {
  std::printf("\n-- paper ratios vs ePlace-A, seed %llu (informational) --\n",
              static_cast<unsigned long long>(a.seed));
  const auto base = per_circuit(load_results(result_path(a, "eplace-a"),
                                             digest));
  if (base.empty()) {
    std::printf("no eplace-a results for this seed and program yet; run "
                "--workload eplace-a --seed %llu --trace 0 to fill it\n",
                static_cast<unsigned long long>(a.seed));
    return;
  }
  struct Row {
    const char* workload;
    const char* label;
    double paper[3];
  };
  const Row rows[] = {{"sa", "SA / ePlace-A", {55.2, 1.11, 1.14}},
                      {"prior-work", "prior-work / ePlace-A", {0.80, 1.25, 1.24}}};
  std::printf("%-24s %28s %22s %22s\n", "ratio (geomean, n)",
              "runtime: measured (paper)", "area: measured (paper)",
              "hpwl: measured (paper)");
  for (const Row& row : rows) {
    const auto other =
        per_circuit(load_results(result_path(a, row.workload), digest));
    std::array<std::vector<double>, 3> ratios;
    for (const auto& [c, v] : other) {
      const auto b = base.find(c);
      if (b == base.end()) continue;
      for (int k = 0; k < 3; ++k) ratios[k].push_back(v[k] / b->second[k]);
    }
    if (ratios[0].empty()) {
      std::printf("%-24s no %s results for this seed yet\n", row.label,
                  row.workload);
      continue;
    }
    std::printf("%-21s %2zu %18.3fx (%5.2fx) %15.3f (%5.2f) %15.3f (%5.2f)\n",
                row.label, ratios[0].size(), geomean(ratios[0]), row.paper[0],
                geomean(ratios[1]), row.paper[1], geomean(ratios[2]),
                row.paper[2]);
  }
  std::printf("base: ePlace-A per-circuit medians of the same seed; sa runs "
              "the paper schedule capped per circuit, so its runtime ratio "
              "is a lower bound\n");
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< base of a ratio, sample count, ...
};

void print_result(const Checker& chk, const std::vector<Metric>& metrics) {
  std::printf("\n%-28s %18s  %-8s %s\n", "metric", "value", "unit", "");
  for (const Metric& m : metrics) {
    std::printf("%-28s %18.6g  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("attempted %ld, failed %ld, correct %s\n", chk.attempted,
              chk.failed, chk.correct ? "yes" : "NO");
  for (const std::string& n : chk.notes) std::printf("  %s\n", n.c_str());

  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (chk.correct ? "true" : "false")
     << ", \"attempted\": " << chk.attempted << ", \"failed\": " << chk.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

std::string fmt(const char* f, double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, x);
  return buf;
}

// ---- the two modes ----------------------------------------------------------

std::vector<Metric> measure(const Args& a, const Workload& w, Checker& chk,
                            std::uint64_t digest) {
  Trace off(false);
  // Set up several times; the median is setup_s. Kept: the last one. One
  // set-up takes about a millisecond, so a median of a few would be noise.
  const int setups = 200;
  std::vector<double> setup_times;
  std::unique_ptr<Prepared> prep;
  for (int r = 0; r < setups; ++r) {
    prep.reset();
    const double t0 = now();
    prep = set_up(w, off);
    setup_times.push_back(now() - t0);
  }
  // Warm-up: first touch of code, allocator and pool threads.
  const Placed warm = place(w, *prep, w.jobs.front(), off);

  std::vector<Pass> passes;
  const double end = now() + a.seconds;
  double last_wall = 0;
  do {
    const double t0 = now();
    passes.push_back(run_pass(w, *prep, off));
    last_wall = now() - t0;
  } while (now() + last_wall <= end);

  for (const Pass& p : passes) chk.count(p);
  chk.same(w.jobs.front(), warm, passes[0].front(), "warm-up vs pass 1");
  for (std::size_t p = 1; p < passes.size(); ++p) {
    chk.same_pass(passes[0], passes[p],
                  "pass 1 vs pass " + std::to_string(p + 1));
  }

  std::vector<double> suites, all_times, job_medians, hpwl, area, fom;
  for (const Pass& p : passes) suites.push_back(suite_seconds(p));
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    std::vector<double> t;
    for (const Pass& p : passes) {
      t.push_back(p[i].seconds);
      all_times.push_back(p[i].seconds);
    }
    job_medians.push_back(median(t));
    hpwl.push_back(passes[0][i].hpwl);
    area.push_back(passes[0][i].area);
    fom.push_back(passes[0][i].fom);
  }

  // Cross-run determinism: an earlier run of this program and seed.
  const std::string path = result_path(a, w.name);
  const std::vector<JobRecord> earlier = load_results(path, digest);
  if (earlier.size() == w.jobs.size()) {
    for (std::size_t i = 0; i < earlier.size(); ++i) {
      const Placed& p = passes[0][i];
      if (earlier[i].hpwl != hex(p.hpwl) || earlier[i].area != hex(p.area) ||
          earlier[i].fom != hex(p.fom)) {
        chk.correct = false;
        chk.notes.push_back("not deterministic across runs: " +
                            chk.label(w.jobs[i]) + " differs from " + path);
      }
    }
  }
  save_results(path, digest, w, passes[0], job_medians);

  // Timing distribution: the median and the highest whole percentile with
  // at least ten samples above it.
  const std::size_t n = all_times.size();
  std::printf("per-placement seconds: p50 %.4f", median(all_times));
  if (n >= 20) {
    const double q = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
    std::printf(", p%.0f %.4f", q, percentile(all_times, q));
  }
  std::printf(", max %.4f (n=%zu placements over %zu passes of %zu)\n",
              percentile(all_times, 100), n, passes.size(), w.jobs.size());
  std::printf("suite seconds per pass:");
  for (double s : suites) std::printf(" %.3f", s);
  std::printf("\n");

  const double legal = static_cast<double>(chk.attempted - chk.failed);
  return {
      {"setup_s", median(setup_times), "s",
       "median of " + std::to_string(setups) + " set-ups"},
      {"suite_s", median(suites), "s",
       "median of " + std::to_string(passes.size()) + " passes of " +
           std::to_string(w.jobs.size()) + " placements"},
      {"place_s_geomean", geomean(job_medians), "s",
       "geomean over jobs of the per-job median"},
      {"hpwl_geomean_um", geomean(hpwl), "um", ""},
      {"area_geomean_um2", geomean(area), "um2", ""},
      {"fom_geomean", geomean(fom), "ratio", "routed surrogate FOM, Eq. 6"},
      {"legal_ratio", legal / static_cast<double>(chk.attempted), "ratio",
       fmt("%.0f legal / ", legal) + std::to_string(chk.attempted) +
           " attempted"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss"},
  };
}

double counter(const obs::MetricsSnapshot& s, const char* name) {
  const auto* c = s.find_counter(name);
  return c ? static_cast<double>(c->value) : 0.0;
}

double hist_sum(const obs::MetricsSnapshot& s, const char* name) {
  const auto* h = s.find_histogram(name);
  return h ? h->sum : 0.0;
}

std::string ratio_note(double num, double den, const char* what) {
  return fmt("%.6g", num) + " / " + fmt("%.6g", den) + " " + what;
}

double safe_div(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> trace_layers(const Args& a, const Workload& w,
                                 Checker& chk) {
  // Traced set-up, then an untraced pass (the overhead base), then the
  // traced pass. Registry counters cover the set-up and the traced pass.
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  (void)obs::SpanCollector::global().drain();
  Trace trace(true);
  std::unique_ptr<Prepared> prep = set_up(w, trace);
  obs::set_enabled(false);
  Trace off(false);
  (void)place(w, *prep, w.jobs.front(), off);  // warm-up
  const Pass plain = run_pass(w, *prep, off);
  obs::set_enabled(true);
  const Pass traced = run_pass(w, *prep, trace);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
  const std::vector<obs::SpanEvent> events = trace.events();

  // Direct probe of the ILP legalizer on ePlace GP output.
  ProbeTotals probe;
  if (w.flow == Flow::EPlaceA) {
    probe = probe_legal(w, *prep, trace);
    if (!probe.all_ok) {
      chk.notes.push_back("probe: an ILP placement was not legal");
    }
  }
  obs::set_enabled(false);

  chk.count(plain);
  chk.count(traced);
  chk.same_pass(plain, traced, "observability off vs on");

  double term[3] = {0, 0, 0};
  const char* term_names[3] = {"density", "wirelength", "area"};
  double primary_ok = 0, net_eval_sum = 0, net_eval_n = 0;
  for (const Placed& p : traced) {
    for (int k = 0; k < 3; ++k) {
      if (const auto* t = p.gp_trace.find(term_names[k])) term[k] += t->seconds;
    }
    if (p.status_ok && p.fallback == core::FallbackLevel::None) ++primary_ok;
    if (p.sa_net_eval_ratio > 0) {
      net_eval_sum += p.sa_net_eval_ratio;
      ++net_eval_n;
    }
  }

  const double n = static_cast<double>(traced.size());
  const double gp_s = layer_seconds(events, "gp");
  const double iters = counter(snap, "gp/iterations");
  const double moves = counter(snap, "sa/moves");
  const double chain_s = span_seconds(events, "sa/chain");
  const double accepts = counter(snap, "sa/accepts");
  const double plain_s = suite_seconds(plain), traced_s = suite_seconds(traced);

  std::vector<Metric> m = {
      {"legal.ilp_s", span_seconds(events, "legal/ilp"), "s",
       "legal/ilp spans, summed over candidates"},
      {"legal.ilp_place_s", probe.ilp_place_s, "s",
       "probe: IlpDetailedPlacer::place on EPlaceGlobalPlacer::run output"},
      {"legal.ilp_bb_nodes", static_cast<double>(probe.bb_nodes), "count",
       "probe"},
      {"legal.ilp_reshape_accepted", static_cast<double>(probe.reshape_accepted),
       "count", "probe"},
      {"legal.two_stage_s", span_seconds(events, "legal/two-stage-lp"), "s",
       ""},
      {"legal.attempts", counter(snap, "legal/attempts"), "count", ""},
      {"legal.primary_ok_ratio", safe_div(primary_ok, n), "ratio",
       ratio_note(primary_ok, n, "placements with no fallback")},
      {"gp.run_s", gp_s, "s", "outermost gp spans"},
      {"gp.iterations", iters, "count", ""},
      {"gp.s_per_iter", safe_div(gp_s, iters), "s/iter",
       ratio_note(gp_s, iters, "gp.run_s / gp.iterations")},
      {"gp.term.density_s", term[0], "s", "TermTrace"},
      {"gp.term.wirelength_s", term[1], "s", "TermTrace"},
      {"gp.term.area_s", term[2], "s", "TermTrace"},
      {"density.evals", counter(snap, "density/evals"), "count", ""},
      {"density.eval_s", hist_sum(snap, "density/eval_seconds"), "s", ""},
      {"numeric.fft_transforms2d", counter(snap, "fft/transforms2d"), "count",
       ""},
      {"sa.place_s", span_seconds(events, "sa/place"), "s", ""},
      {"sa.moves", moves, "count", ""},
      {"sa.moves_per_s", safe_div(moves, chain_s), "1/s",
       ratio_note(moves, chain_s, "moves / sa/chain seconds")},
      {"sa.accept_ratio", safe_div(accepts, moves), "ratio",
       ratio_note(accepts, moves, "accepts / moves")},
      {"sa.net_eval_ratio", safe_div(net_eval_sum, net_eval_n), "ratio",
       "mean over SA placements of nets re-evaluated / nets per move"},
      {"core.candidate_s", span_seconds(events, "flow/candidate"), "s", ""},
      {"core.candidate_imbalance", candidate_imbalance(events), "ratio",
       "slowest / mean concurrent candidate, mean over flows"},
      {"core.evaluate_s", span_seconds(events, "flow/evaluate"), "s", ""},
      {"base.pool_tasks", counter(snap, "pool/tasks"), "count", ""},
      {"base.pool_task_wait_s", hist_sum(snap, "pool/task_wait_seconds"), "s",
       ""},
      {"netlist.compile_s", span_seconds(events, "netlist/compile"), "s",
       "set-up"},
      {"netlist.evaluate_s", span_seconds(events, "netlist/recheck"), "s",
       "the benchmark's re-check"},
      {"route.runs", counter(snap, "route/runs"), "count", ""},
      {"route.estimate_s", span_seconds(events, "route/estimate"), "s", ""},
      {"perf.evaluate_routed_s", span_seconds(events, "perf/evaluate_routed"),
       "s", "the benchmark's FOM scoring"},
      {"obs.overhead_ratio", safe_div(traced_s, plain_s), "ratio",
       ratio_note(traced_s, plain_s, "traced / untraced suite seconds")},
  };

  // Self time per layer over the traced set-up and pass (not the probe).
  const auto layers = self_time_by_layer(events);
  double total = 0;
  for (const auto& [layer, s] : layers) total += s;
  std::printf("\n%-10s %12s %8s   (self time: span minus its children)\n",
              "layer", "self s", "share");
  for (const auto& [layer, s] : layers) {
    std::printf("%-10s %12.4f %7.1f%%\n", layer.c_str(), s,
                100.0 * safe_div(s, total));
  }
  for (const char* layer : {"bench", "circuits", "core", "gp", "legal",
                            "netlist", "perf", "route", "sa"}) {
    const auto it = layers.find(layer);
    m.push_back({std::string("self_s.") + layer,
                 it == layers.end() ? 0.0 : it->second, "s", ""});
  }

  const std::string trace_path = a.out_dir + "/" + w.name + "-seed" +
                                 std::to_string(a.seed) + "-trace.json";
  std::ofstream(trace_path) << obs::chrome_trace_json(trace.events());
  std::printf("chrome trace (%zu spans): %s\n", trace.events().size(),
              trace_path.c_str());
  return m;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  try {
    base::ThreadPool::set_global_threads(kThreads);
    obs::set_enabled(false);
    const Workload w = make_workload(args.workload, args.seed);
    const std::uint64_t digest = program_digest();
    std::printf("perfbench workload %s seed %llu seconds %g trace %d\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace);
    std::printf("threads %u, build %s, simd %s, nproc %u, commit %s, "
                "program %016llx\n",
                base::ThreadPool::global().num_threads(), PERFBENCH_BUILD_TYPE,
                simd::dispatch_name(), std::thread::hardware_concurrency(),
                args.commit.c_str(), static_cast<unsigned long long>(digest));
    Checker chk(w);
    const std::vector<Metric> metrics =
        args.trace ? trace_layers(args, w, chk)
                   : measure(args, w, chk, digest);
    if (!args.trace) print_paper_ratios(args, digest);
    print_result(chk, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
