// Batch what-if evaluation: one base snapshot, many candidate changes,
// verdicts for all of them.
//
//   ScenarioRunner runner(base, invariants);
//   ScenarioReport report = runner.run(link_failure_sweep(base),
//                                      {.num_threads = 8});
//   std::cout << report.str(/*top_k=*/5);
//
// Scenarios fan out over a util::ThreadPool. Each worker lazily clones one
// DnaEngine from the base snapshot and reuses it for every scenario it
// takes: preview the candidate differentially, which records the diff and
// rolls the engine back to base. A plan that fails to apply never touches
// the engine; only a failed preview costs the worker a new clone. Because
// every evaluation starts from base semantics, a
// scenario's semantic result is independent of which worker ran it and in
// what order — the report is deterministic for any thread count (see
// report.h for the exact contract; tests/test_scenario.cc enforces it).
#pragma once

#include <vector>

#include "core/engine.h"
#include "scenario/report.h"
#include "scenario/spec.h"

namespace dna::scenario {

struct RunnerOptions {
  /// Worker threads (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Evaluation mode per scenario; kDifferential is the whole point, but
  /// kMonolithic is kept for cross-checking.
  core::Mode mode = core::Mode::kDifferential;
  /// Retain each scenario's full NetworkDiff in its result (memory-heavy
  /// for large sweeps; metrics and rankings never need it).
  bool keep_diffs = false;
};

class ScenarioRunner {
 public:
  /// `base` must be a valid snapshot; invariants are evaluated before/after
  /// every scenario.
  ScenarioRunner(topo::Snapshot base, std::vector<core::Invariant> invariants);

  /// Evaluates every spec against the base snapshot and returns the ranked
  /// report. Individual scenario failures (bad plan, unknown node) are
  /// captured per-result, never thrown.
  ScenarioReport run(const std::vector<ScenarioSpec>& specs,
                     const RunnerOptions& options = {}) const;

  const topo::Snapshot& base() const { return base_; }
  const std::vector<core::Invariant>& invariants() const {
    return invariants_;
  }

 private:
  topo::Snapshot base_;
  std::vector<core::Invariant> invariants_;
};

}  // namespace dna::scenario
