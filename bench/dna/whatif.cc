// whatif-wide and whatif-narrow: the cost of one what-if, asked
// interactively, and the throughput of a what-if sweep.
//
// A run is kRounds rounds of equal length over one seeded list of
// what-ifs. Each round
//  * builds the engine with its invariants (setup_s),
//  * runs the head of the list as one ScenarioRunner::run on one thread
//    (ops_per_s: scenarios per second), and
//  * until the round ends, evaluates what-ifs interactively, continuing
//    down the list: one ChangePlan::apply + DnaEngine::preview each, on the
//    round's engine, on one thread (op_us_p50, op_us_p90).
// setup_s is the median over the rounds and ops_per_s the best round; the
// latencies come from the best window of kWindowWhatIfs consecutive
// interactive what-ifs.
// Oracles, untimed: every
// round's rewound engine holds a fresh engine's facts, the first
// kOracleWhatIfs diffs equal Mode::kMonolithic on a fresh engine, and
// every sweep's report is byte-identical to the first.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <set>

#include "core/engine.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "topo/generators.h"
#include "util/rng.h"
#include "workloads.h"

namespace dna::bench_dna {

topo::Snapshot fixture_network() { return topo::make_fattree(6); }

std::vector<core::Invariant> fixture_invariants(const topo::Snapshot& base) {
  std::vector<core::Invariant> invariants = {
      {core::Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()}};
  const std::vector<core::Invariant> hosts =
      scenario::host_reachability_invariants(base);
  invariants.insert(invariants.end(), hosts.begin(), hosts.end());
  return invariants;
}

namespace {

/// What-ifs compared against a monolithic rebuild per run.
constexpr size_t kOracleWhatIfs = 32;
/// Rounds per run: a set-up build and a sweep each.
constexpr int kRounds = kWindows;
/// Sweep threads. On the 4-vCPU machine this was written on, a 4-thread
/// sweep's rate swung by up to 70% between runs of the same code with the
/// host's memory contention (2 threads were no steadier), too much for any
/// bound; one thread repeats like the interactive latency does.
constexpr size_t kSweepThreads = 1;
/// Interactive what-ifs per latency window.
constexpr size_t kWindowWhatIfs = 50;
/// Interactive what-ifs per round at the least, however slow the sweep.
constexpr size_t kMinInteractive = 20;

struct WhatIf {
  std::string text;  // change mini-language (service/query.h)
  core::ChangePlan plan;
};

WhatIf make_whatif(std::string text) {
  core::ChangePlan plan = service::parse_change_plan(text);
  return {std::move(text), std::move(plan)};
}

/// Link failures: one link with probability 3/4, else two distinct links.
std::vector<WhatIf> wide_whatifs(const topo::Snapshot& base, uint64_t seed,
                                 size_t count) {
  Rng rng(seed);
  const uint64_t links = base.topology.num_links();
  std::vector<WhatIf> whatifs;
  whatifs.reserve(count);
  while (whatifs.size() < count) {
    const uint64_t a = rng.below(links);
    std::string text = "fail_link " + std::to_string(a);
    if (rng.below(4) == 3) {
      uint64_t b = rng.below(links);
      while (b == a) b = rng.below(links);
      text += "; fail_link " + std::to_string(b);
    }
    whatifs.push_back(make_whatif(std::move(text)));
  }
  return whatifs;
}

/// Half static routes for a 203.0.100-107.0/24 prefix via a random
/// neighbour, half ACLs blocking one host /24 at a random node.
std::vector<WhatIf> narrow_whatifs(const topo::Snapshot& base, uint64_t seed,
                                   size_t count) {
  std::set<Ipv4Prefix> host_nets;
  for (const core::Invariant& invariant :
       scenario::host_reachability_invariants(base)) {
    host_nets.insert(invariant.traffic);
  }
  const std::vector<Ipv4Prefix> hosts(host_nets.begin(), host_nets.end());
  const topo::Topology& topology = base.topology;
  Rng rng(seed);
  std::vector<WhatIf> whatifs;
  whatifs.reserve(count);
  while (whatifs.size() < count) {
    const auto node = static_cast<topo::NodeId>(rng.below(topology.num_nodes()));
    const std::string& name = topology.node_name(node);
    if (rng.below(2) == 0) {
      const std::vector<uint32_t>& links = topology.links_of(node);
      const topo::Link& link = topology.link(links[rng.below(links.size())]);
      const topo::NodeId peer = link.peer_of(node);
      const config::InterfaceConfig* remote =
          base.configs[peer].find_interface(link.if_of(peer));
      DNA_CHECK(remote != nullptr);
      whatifs.push_back(make_whatif(
          "static_route " + name + " 203.0." + std::to_string(100 + rng.below(8)) +
          ".0/24 " + remote->address.str()));
    } else {
      whatifs.push_back(make_whatif("acl_block " + name + " " +
                                    hosts[rng.below(hosts.size())].str()));
    }
  }
  return whatifs;
}

std::unique_ptr<core::DnaEngine> make_engine(
    const topo::Snapshot& base, const std::vector<core::Invariant>& invariants) {
  auto engine = std::make_unique<core::DnaEngine>(base);
  for (const core::Invariant& invariant : invariants) {
    engine->add_invariant(invariant);
  }
  return engine;
}

/// Per-what-if sums of what preview's NetworkDiff exposes.
struct PreviewLayers {
  size_t whatifs = 0;
  double apply_s = 0;
  double preview_s = 0;
  double forward_s = 0;
  std::map<std::string, double> stage_s;
  double affected_ecs = 0;
  double total_ecs = 0;
  double fallbacks = 0;
  double fib_changes = 0;

  void add(const core::NetworkDiff& diff, double apply, double preview) {
    ++whatifs;
    apply_s += apply;
    preview_s += preview;
    forward_s += diff.seconds_total;
    for (const auto& entry : diff.stages.entries()) {
      stage_s[entry.stage] += entry.seconds;
    }
    affected_ecs += static_cast<double>(diff.affected_ecs);
    total_ecs += static_cast<double>(diff.total_ecs);
    fallbacks += diff.used_monolithic ? 1 : 0;
    fib_changes += static_cast<double>(diff.fib_delta.total_changes());
  }

  void record(Result& result) const {
    if (whatifs == 0) return;
    const double n = static_cast<double>(whatifs);
    auto stage_ms = [&](const char* stage) {
      const auto it = stage_s.find(stage);
      return it == stage_s.end() ? 0.0 : it->second * 1e3 / n;
    };
    double stages_total = 0;
    for (const auto& [stage, seconds] : stage_s) stages_total += seconds;
    result.layer("change.apply_us", apply_s * 1e6 / n);
    result.layer("core.preview_ms", preview_s * 1e3 / n);
    result.layer("core.forward_ms", forward_s * 1e3 / n);
    result.layer("core.rewind_ms", (preview_s - forward_s) * 1e3 / n);
    result.layer("core.invariants_ms", (forward_s - stages_total) * 1e3 / n);
    result.layer("core.affected_ec_share",
                 total_ecs > 0 ? affected_ecs / total_ecs : 0);
    result.layer("core.fallback_share", fallbacks / n);
    result.layer("cp.config_diff_ms", stage_ms("config-diff"));
    result.layer("cp.ospf_ms", stage_ms("ospf"));
    result.layer("cp.fib_ms", stage_ms("fib"));
    result.layer("cp.fib_changes", fib_changes / n);
    result.layer("dp.ec_index_ms", stage_ms("ec-index"));
    result.layer("dp.verify_ms", stage_ms("verify"));
    result.layer("dp.affected_ecs", affected_ecs / n);
  }
};

std::vector<cp::FibEntry> sorted(std::vector<cp::FibEntry> entries) {
  std::sort(entries.begin(), entries.end());
  return entries;
}

/// The semantic layer on which two diffs of one change differ, or "".
std::string semantic_mismatch(const core::NetworkDiff& a,
                              const core::NetworkDiff& b) {
  if (a.config_changes != b.config_changes) return "config changes";
  if (a.link_changes != b.link_changes) return "link changes";
  if (a.fib_delta.by_node.size() != b.fib_delta.by_node.size()) return "FIBs";
  for (const auto& [node, delta] : a.fib_delta.by_node) {
    const auto it = b.fib_delta.by_node.find(node);
    if (it == b.fib_delta.by_node.end() ||
        sorted(delta.added) != sorted(it->second.added) ||
        sorted(delta.removed) != sorted(it->second.removed)) {
      return "FIBs";
    }
  }
  if (!(a.reach_delta == b.reach_delta)) return "reach facts";
  if (a.invariant_flips != b.invariant_flips) return "invariant flips";
  return "";
}

/// The three fact sets a rewound engine must share with a fresh one.
struct Facts {
  std::vector<dp::ReachFact> reach;
  std::vector<dp::FlagFact> loops;
  std::vector<dp::FlagFact> blackholes;

  explicit Facts(const core::DnaEngine& engine)
      : reach(engine.verifier().all_reach_facts()),
        loops(engine.verifier().all_loop_facts()),
        blackholes(engine.verifier().all_blackhole_facts()) {}
  bool operator==(const Facts&) const = default;
};

/// The sweep is the first `sweep_size` what-ifs.
void run_whatif(const Options& options, Result& result, Tracer* tracer,
                const topo::Snapshot& base, const std::vector<WhatIf>& whatifs,
                size_t sweep_size) {
  const std::vector<core::Invariant> invariants = fixture_invariants(base);
  // Lane 0 takes the coarse spans; the interactive loop's many go to lane 1.
  Lane* lane = tracer ? tracer->lane(0) : nullptr;
  Lane* interactive_lane = tracer ? tracer->lane(1) : nullptr;

  const std::unique_ptr<core::DnaEngine> fresh = make_engine(base, invariants);
  const Facts fresh_facts(*fresh);
  const scenario::ScenarioRunner runner(base, invariants);
  std::vector<scenario::ScenarioSpec> specs;
  for (size_t i = 0; i < std::min(sweep_size, whatifs.size()); ++i) {
    specs.emplace_back(whatifs[i].text, whatifs[i].plan);
  }

  std::vector<double> setup_s, sweep_rate, p50_us, p90_us;
  LatencyHist window;  // the current latency window
  LatencyHist all_latency;
  PreviewLayers layers;
  std::vector<std::pair<size_t, core::NetworkDiff>> checked;
  std::string first_report;
  double clone_s = 0, eval_s = 0, thread_wall_s = 0;
  double clones = 0, evaluated = 0;
  uint64_t attempted = 0, failed = 0;
  size_t next = 0;  // the next interactive what-if
  const ProcSample proc_begin = proc_sample();
  const uint64_t round_ns = static_cast<uint64_t>(options.seconds / kRounds * 1e9);
  const uint64_t run_start = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t round_end = run_start + (round + 1) * round_ns;

    // Set-up: the engine with its invariants.
    std::unique_ptr<core::DnaEngine> engine;
    {
      SpanScope span(lane, SpanName::kSetup, -1, static_cast<uint64_t>(round));
      const uint64_t start = now_ns();
      engine = make_engine(base, invariants);
      setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    }

    // One sweep.
    {
      SpanScope span(lane, SpanName::kSweep, -1, static_cast<uint64_t>(round));
      const uint64_t start = now_ns();
      const scenario::ScenarioReport report =
          runner.run(specs, {.num_threads = kSweepThreads});
      const double wall_s = static_cast<double>(now_ns() - start) * 1e-9;
      sweep_rate.push_back(static_cast<double>(specs.size()) / wall_s);
      attempted += specs.size();
      failed += report.failures;
      const std::string text = report.str();
      if (first_report.empty()) {
        first_report = text;
      } else if (text != first_report) {
        result.wrong("round " + std::to_string(round) +
                     "'s sweep report differs from the first");
      }
      for (const scenario::WorkerTiming& timing : report.worker_timings) {
        clone_s += timing.clone_seconds;
        eval_s += timing.eval_seconds;
        clones += timing.scenarios > 0 ? 1 : 0;
        evaluated += static_cast<double>(timing.scenarios);
      }
      thread_wall_s += wall_s * static_cast<double>(report.threads);
    }

    // Interactive what-ifs until the round ends.
    for (size_t n = 0; n < kMinInteractive || now_ns() < round_end; ++n, ++next) {
      const WhatIf& whatif = whatifs[next % whatifs.size()];
      SpanScope root(interactive_lane, SpanName::kWhatIf, -1, next);
      ++attempted;
      try {
        const uint64_t t0 = now_ns();
        topo::Snapshot target;
        {
          SpanScope span(interactive_lane, SpanName::kApply, root.id(), next);
          target = whatif.plan.apply(base);
        }
        const uint64_t t1 = now_ns();
        core::NetworkDiff diff;
        {
          SpanScope span(interactive_lane, SpanName::kPreview, root.id(), next);
          diff = engine->preview(std::move(target), core::Mode::kDifferential);
        }
        const uint64_t t2 = now_ns();
        window.add(t2 - t0);
        if (window.count() == kWindowWhatIfs) {
          p50_us.push_back(window.percentile_us(50));
          p90_us.push_back(window.percentile_us(90));
          all_latency.merge(window);
          window.clear();
        }
        layers.add(diff, static_cast<double>(t1 - t0) * 1e-9,
                   static_cast<double>(t2 - t1) * 1e-9);
        if (checked.size() < kOracleWhatIfs) checked.emplace_back(next, std::move(diff));
      } catch (const std::exception& e) {
        // A failed preview may leave the engine mid-change: start over.
        ++failed;
        std::fprintf(stderr, "what-if '%s' failed: %s\n", whatif.text.c_str(),
                     e.what());
        engine = make_engine(base, invariants);
      }
    }
    result.sample_heap();
    SpanScope span(lane, SpanName::kOracle, -1, static_cast<uint64_t>(round));
    if (!(engine->snapshot() == base) || !(Facts(*engine) == fresh_facts)) {
      result.wrong("round " + std::to_string(round) +
                   ": the rewound engine differs from a fresh one");
    }
  }
  const ProcSample proc_end = proc_sample();
  all_latency.merge(window);

  result.e2e("setup_s", median(setup_s), "s");
  result.e2e("op_us_p50", lowest(p50_us), "us");
  result.e2e("op_us_p90", lowest(p90_us), "us");
  result.e2e("ops_per_s", highest(sweep_rate), "1/s");
  result.info("op_samples", static_cast<double>(all_latency.count()), "count");
  result.info("op_us_p99_pooled", all_latency.percentile_us(99), "us");
  layers.record(result);
  result.layer("scenario.clone_ms", clones > 0 ? clone_s * 1e3 / clones : 0);
  result.layer("scenario.eval_ms", evaluated > 0 ? eval_s * 1e3 / evaluated : 0);
  result.layer("scenario.busy_share",
               thread_wall_s > 0 ? (clone_s + eval_s) / thread_wall_s : 0);
  record_proc(result, proc_begin, proc_end, kSweepThreads, attempted);
  result.attempted(attempted);
  result.failed(failed);

  SpanScope span(lane, SpanName::kOracle);
  for (const auto& [index, diff] : checked) {
    const WhatIf& whatif = whatifs[index % whatifs.size()];
    const core::NetworkDiff monolithic =
        fresh->preview(whatif.plan.apply(base), core::Mode::kMonolithic);
    const std::string layer = semantic_mismatch(diff, monolithic);
    if (!layer.empty()) {
      result.wrong("what-if '" + whatif.text + "': differential and monolithic " +
                   layer + " differ");
    }
  }
}

}  // namespace

void run_whatif_wide(const Options& options, Result& result, Tracer* tracer) {
  const topo::Snapshot base = fixture_network();
  run_whatif(options, result, tracer, base,
             wide_whatifs(base, options.seed, 1000), /*sweep_size=*/54);
}

void run_whatif_narrow(const Options& options, Result& result, Tracer* tracer) {
  const topo::Snapshot base = fixture_network();
  run_whatif(options, result, tracer, base,
             narrow_whatifs(base, options.seed, 8000), /*sweep_size=*/500);
}

}  // namespace dna::bench_dna
