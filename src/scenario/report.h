// Aggregated results of a what-if batch, ranked by blast radius.
//
// Determinism contract: every field used for ranking and for str() is a pure
// function of (base snapshot, scenario spec, invariants) — the semantic diff
// layers the mode-equivalence property pins down. Scheduling-dependent
// diagnostics (wall time, affected-EC counts, which worker ran what) are kept
// out of both, so a report is byte-identical for 1 or N threads.
#pragma once

#include <string>
#include <vector>

#include "core/netdiff.h"
#include "util/json.h"

namespace dna::scenario {

struct ScenarioResult {
  size_t index = 0;  // position in the input spec list
  std::string name;

  bool ok = true;      // evaluation completed (plan applied, diff computed)
  std::string error;   // failure reason when !ok

  // ---- semantic blast radius (deterministic; ranking + report) -----------
  size_t fib_changes = 0;         // FIB entries added + removed
  size_t reach_lost = 0;          // canonical reach facts lost
  size_t reach_gained = 0;        // canonical reach facts gained
  size_t loops_gained = 0;        // new loop facts
  size_t blackholes_gained = 0;   // new blackhole facts
  size_t invariants_broken = 0;   // held before, violated after
  size_t invariants_fixed = 0;    // violated before, held after
  std::vector<std::string> broken_invariants;  // descriptions
  bool semantically_empty = true;

  // ---- diagnostics (scheduling-dependent; excluded from ranking/str) -----
  double seconds = 0;        // wall time of this scenario's advance
  size_t affected_ecs = 0;   // ECs re-verified (depends on engine history)
  size_t total_ecs = 0;
  size_t worker = 0;         // pool worker that evaluated it

  /// The full diff, retained only when RunnerOptions::keep_diffs is set.
  core::NetworkDiff diff;
};

/// Severity used for ranking, highest first: broken intent dominates, then
/// lost reachability and new loops/blackholes, then total churn. Failed
/// scenarios sort after every evaluated one (they carry no verdict).
/// Ties break by input order, making the ranking a total deterministic order.
bool more_severe(const ScenarioResult& a, const ScenarioResult& b);

/// One worker's wall-time breakdown over a batch — where its time went:
/// cloning its engine (the one-off base verification), or evaluating
/// candidates, each a preview that rolls itself back to base. Scheduling-
/// dependent diagnostics, excluded from str()/to_json().
struct WorkerTiming {
  size_t worker = 0;
  size_t scenarios = 0;      // scenarios this worker evaluated
  size_t clones = 0;         // engines built: one, again after a failed preview
  double clone_seconds = 0;  // engine construction + base verification
  double eval_seconds = 0;   // plan apply + preview (forward + rollback)
};

struct ScenarioReport {
  std::vector<ScenarioResult> results;  // input order
  std::vector<size_t> ranking;          // indices into results, worst first

  // Batch-level diagnostics (excluded from str()).
  double seconds_total = 0;
  size_t threads = 1;
  size_t failures = 0;
  std::vector<WorkerTiming> worker_timings;  // by worker index

  const ScenarioResult& ranked(size_t position) const {
    return results[ranking[position]];
  }

  /// Deterministic ranked table; `top_k` caps rows (0 = all). Scenarios that
  /// failed to evaluate are listed at the bottom with their error.
  std::string str(size_t top_k = 0) const;

  /// The scheduling-dependent diagnostics str() deliberately omits: batch
  /// wall time and the per-worker clone/eval breakdown. Kept separate so
  /// the deterministic report stays byte-identical across thread counts.
  std::string timing_str() const;
};

/// Fills report.ranking and report.failures from report.results.
void rank(ScenarioReport& report);

/// Distills a computed diff into a result's verdict fields (blast-radius
/// counts, invariant flips, EC diagnostics). Identification fields (index,
/// name, timing, diff retention) are left to the caller. The single
/// extraction point both what-if surfaces — the batch runner and the query
/// service — share, so their verdicts cannot drift apart.
ScenarioResult summarize_diff(const core::NetworkDiff& diff);

/// Appends one result's deterministic verdict fields as a JSON object.
/// The single serialization point for scenario verdicts: the sweep report
/// (whatif --json) and the query service's what-if responses both call it,
/// so the two wire formats cannot drift apart.
void append_json(util::JsonWriter& json, const ScenarioResult& result);

/// Machine-readable report: the same deterministic fields as str() —
/// results in input order plus the ranking — byte-identical for any
/// thread count.
std::string to_json(const ScenarioReport& report);

}  // namespace dna::scenario
