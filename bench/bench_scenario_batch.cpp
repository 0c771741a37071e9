// Scaling of the batch what-if runner: wall time of a full link-failure
// sweep on generated fat-trees as the thread count grows 1 -> N.
//
// Also the determinism check at bench scale: every thread count must produce
// a byte-identical ranked report (diagnostics like timings are excluded from
// the report text by design — see scenario/report.h).
//
// Output: human-readable tables plus machine-readable BENCH_scenario.json in
// the same shape as BENCH_service.json (ns-per-op results, speedups, peak
// RSS; see bench_common.h). Flags:
//   --quick                smallest fat-tree only (CI)
//   --json=PATH            write the JSON report (default BENCH_scenario.json)
//   --check=BASELINE.json  fail (exit 1) if a gated entry regresses >2x
//                          versus the baseline, calibrated by the
//                          monolithic anchor (fixed engine code measured in
//                          this very process) so the gate ports across
//                          machine speeds
//   (positional: fat-tree degrees, default 4 6)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "scenario/runner.h"
#include "util/timer.h"

using namespace dna;

namespace {

bench::BenchReport g_report;

void bench_fattree(int k) {
  topo::Snapshot base = topo::make_fattree(k);
  std::vector<scenario::ScenarioSpec> specs =
      scenario::link_failure_sweep(base);
  std::vector<core::Invariant> invariants = {
      {core::Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()}};
  scenario::ScenarioRunner runner(base, invariants);

  std::printf("fat-tree k=%d: %zu nodes, %zu links, %zu scenarios\n", k,
              base.topology.num_nodes(), base.topology.num_links(),
              specs.size());
  std::printf("%8s %12s %10s %10s\n", "threads", "total ms", "speedup",
              "report");
  bench::print_rule(44);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::string reference_report;
  double t1_ms = 0;
  bool all_identical = true;
  for (size_t threads : thread_counts) {
    scenario::RunnerOptions options;
    options.num_threads = threads;
    Stopwatch stopwatch;
    scenario::ScenarioReport report = runner.run(specs, options);
    const double ms = stopwatch.elapsed_ms();
    // Only the single-thread number is portable enough to gate; the
    // scaling entries depend on the runner's core count.
    g_report.record(
        "sweep_t" + std::to_string(threads) + "_k" + std::to_string(k),
        specs.size(), ms / 1e3, /*gated=*/threads == 1);
    const std::string text = report.str();
    if (reference_report.empty()) {
      reference_report = text;
      t1_ms = ms;
    }
    const bool identical = text == reference_report;
    all_identical = all_identical && identical;
    std::printf("%8zu %12.1f %9.2fx %10s\n", threads, ms, t1_ms / ms,
                identical ? "identical" : "DIVERGED");
  }
  std::printf("(%u hardware thread(s) available; speedup saturates there)\n\n",
              hw);
  if (!all_identical) {
    std::printf("FAIL: ranked reports diverged across thread counts\n");
    std::exit(1);
  }
}

/// The calibration anchor: one monolithic advance of a single link failure
/// on the smallest swept fat-tree. Fixed engine code measured in this very
/// process, so current/baseline over it isolates machine speed.
void bench_anchor(int k) {
  const topo::Snapshot base = topo::make_fattree(k);
  const topo::Snapshot target = topo::with_link_state(base, 0, /*up=*/false);
  const double ms =
      bench::advance_ms(base, target, core::Mode::kMonolithic, /*reps=*/3);
  g_report.record("anchor_monolithic", 1, ms / 1e3, /*gated=*/false);
}

void write_json(const std::string& path, bool quick,
                const std::vector<int>& degrees) {
  util::JsonWriter json;
  json.begin_object();
  json.key("bench").value("scenario_batch");
  json.key("quick").value(quick);
  g_report.append_json(json);
  json.key("speedups").begin_object();
  for (const int k : degrees) {
    const double t1 = g_report.ns_of("sweep_t1_k" + std::to_string(k));
    for (const size_t threads : {2u, 4u}) {
      const double tn = g_report.ns_of("sweep_t" + std::to_string(threads) +
                                       "_k" + std::to_string(k));
      json.key("threads_" + std::to_string(threads) + "_k" +
               std::to_string(k))
          .value(tn > 0 ? t1 / tn : 0);
    }
  }
  json.end_object();
  json.end_object();

  std::ofstream out(path);
  out << json.str() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_scenario.json";
  std::string baseline_path;
  std::vector<int> degrees;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--check=", 0) == 0) {
      baseline_path = arg.substr(8);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      degrees.push_back(std::atoi(arg.c_str()));
    }
  }
  if (degrees.empty()) degrees = quick ? std::vector<int>{4}
                                       : std::vector<int>{4, 6};

  // The anchor is always k=4 regardless of the swept degrees: calibration
  // must compare like with like against the checked-in baseline's anchor.
  bench_anchor(/*k=*/4);
  for (int k : degrees) bench_fattree(k);
  write_json(json_path, quick, degrees);

  if (!baseline_path.empty() &&
      g_report.check_against_baseline(baseline_path, "anchor_monolithic") !=
          0) {
    return 1;
  }
  return 0;
}
