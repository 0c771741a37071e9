// The DNA engine: differential network analysis between snapshots.
//
//   DnaEngine engine(base_snapshot);
//   engine.add_invariant({Invariant::Kind::kReachable, "r0", "r5", "",
//                         Ipv4Prefix::parse("172.31.1.0/24").value()});
//   NetworkDiff diff = engine.advance(proposed_snapshot, Mode::kDifferential);
//   std::cout << core::render(diff, engine.snapshot().topology);
//
// Two execution modes compute the same NetworkDiff (a property the test
// suite enforces):
//
//  * Mode::kMonolithic — the Batfish-style baseline: simulate the target
//    snapshot from scratch, verify its whole data plane, and subtract the
//    two results. Cost is ~2x full verification regardless of change size.
//
//  * Mode::kDifferential — the paper's contribution: diff the configs,
//    propagate deltas through incremental SPF / event-driven BGP /
//    EC-granular data-plane re-verification, running each control-plane
//    stage only when its inputs changed. Cost scales with the impact of the
//    change. A structural change (the node names or the link count differ)
//    takes the monolithic path instead.
//
// Invariant verdicts persist from one advance to the next. They are all
// evaluated on first use, after add_invariant(), and after an advance that
// threw. A differential advance re-evaluates only the invariants whose
// traffic overlaps an EC the verifier re-verified; a monolithic advance, a
// structural change, or a link change re-evaluates every one.
//
// preview() is one forward advance that logs the old value of everything it
// overwrites, then a rollback from that log: each layer undoes its own
// writes, the control plane first, since the verifier re-reads its caches
// from the restored snapshot. A monolithic or structural preview keeps the
// old engine whole and swaps it back. advance() logs nothing.
#pragma once

#include <memory>

#include "controlplane/engine.h"
#include "core/invariants.h"
#include "core/netdiff.h"

namespace dna::core {

enum class Mode { kMonolithic, kDifferential };

class DnaEngine {
 public:
  explicit DnaEngine(topo::Snapshot base);
  ~DnaEngine();

  DnaEngine(const DnaEngine&) = delete;
  DnaEngine& operator=(const DnaEngine&) = delete;

  /// Computes the semantic diff from the current snapshot to `target` and
  /// advances the engine to `target`.
  NetworkDiff advance(topo::Snapshot target, Mode mode);

  /// Computes the semantic diff to `target` without keeping it: advances to
  /// `target` with an undo log, captures the forward diff, and rolls the
  /// advance back from the log. Afterwards the engine holds exactly the
  /// state it held before: the snapshot, FIBs, routes, EC partition, graphs,
  /// reach and verdicts — the what-if primitive the scenario runner and the
  /// query service share. Its cost is the forward advance plus the entries
  /// the rollback writes back (last_rollback_entries()). If the forward
  /// advance throws, the engine may be left mid-change; callers must
  /// discard it (the runner rebuilds its worker clone).
  NetworkDiff preview(topo::Snapshot target, Mode mode);

  /// The entries the last preview's rollback wrote back, across every
  /// layer (ControlPlaneEngine::rollback, Verifier::rollback); 0 for a
  /// preview that swapped the old engine back whole.
  size_t last_rollback_entries() const { return rollback_entries_; }

  void add_invariant(Invariant invariant) {
    invariants_.push_back(std::move(invariant));
    verdicts_.clear();
  }
  const std::vector<Invariant>& invariants() const { return invariants_; }

  const topo::Snapshot& snapshot() const { return cp_->snapshot(); }
  const cp::ControlPlaneEngine& control_plane() const { return *cp_; }
  const dp::Verifier& verifier() const { return *dp_; }

 private:
  /// What a logged advance overwrote: the kept verdicts, and either each
  /// layer's log (differential) or the whole old engine (monolithic).
  struct UndoLog {
    std::vector<bool> verdicts;
    cp::ControlPlaneEngine::UndoLog cp;
    dp::Verifier::UndoLog dp;
    std::unique_ptr<cp::ControlPlaneEngine> old_cp;
    std::unique_ptr<dp::Verifier> old_dp;
  };

  /// advance(), logging what it overwrites in `log` if given.
  NetworkDiff advance(topo::Snapshot target, Mode mode, UndoLog* log);
  /// Whether `target`'s node names or link count differ from the current
  /// snapshot's.
  bool structural_change(const topo::Snapshot& target) const;
  NetworkDiff advance_monolithic(topo::Snapshot target, UndoLog* log);
  NetworkDiff advance_differential(topo::Snapshot target, UndoLog* log);
  /// Evaluates invariants_[invariant] on the current snapshot.
  bool eval(size_t invariant) const;

  std::unique_ptr<cp::ControlPlaneEngine> cp_;
  std::unique_ptr<dp::Verifier> dp_;
  std::vector<Invariant> invariants_;
  /// Verdict per invariant on the current snapshot. Stale, and evaluated
  /// afresh on the next advance, unless it has one entry per invariant.
  std::vector<bool> verdicts_;
  size_t rollback_entries_ = 0;
};

}  // namespace dna::core
