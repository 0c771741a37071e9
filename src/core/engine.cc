#include "core/engine.h"

#include <algorithm>

namespace dna::core {

DnaEngine::DnaEngine(topo::Snapshot base) {
  cp_ = std::make_unique<cp::ControlPlaneEngine>(std::move(base));
  dp_ = std::make_unique<dp::Verifier>(&cp_->snapshot(), &cp_->fibs());
}

DnaEngine::~DnaEngine() = default;

bool DnaEngine::eval(size_t invariant) const {
  return eval_invariant(invariants_[invariant], cp_->snapshot(), *dp_);
}

bool DnaEngine::structural_change(const topo::Snapshot& target) const {
  const topo::Topology& now = cp_->snapshot().topology;
  const topo::Topology& next = target.topology;
  if (now.num_nodes() != next.num_nodes() ||
      now.num_links() != next.num_links()) {
    return true;
  }
  for (topo::NodeId node = 0; node < now.num_nodes(); ++node) {
    if (now.node_name(node) != next.node_name(node)) return true;
  }
  return false;
}

NetworkDiff DnaEngine::advance(topo::Snapshot target, Mode mode) {
  return advance(std::move(target), mode, nullptr);
}

NetworkDiff DnaEngine::advance(topo::Snapshot target, Mode mode,
                               UndoLog* log) {
  Stopwatch total;
  if (verdicts_.size() != invariants_.size()) {
    verdicts_.clear();
    for (size_t i = 0; i < invariants_.size(); ++i) {
      verdicts_.push_back(eval(i));
    }
  }
  const std::vector<bool> before = std::move(verdicts_);
  verdicts_.clear();  // stale until this advance completes
  if (log) log->verdicts = before;

  // A structural change takes the monolithic path, which reads the old
  // engine's facts before it drops it.
  const bool differential =
      mode == Mode::kDifferential && !structural_change(target);
  NetworkDiff diff = differential
                         ? advance_differential(std::move(target), log)
                         : advance_monolithic(std::move(target), log);

  // Re-evaluate every invariant after a monolithic advance or a link
  // change; otherwise only those whose traffic overlaps a re-verified EC.
  // The rest keep their verdicts: the ECs they read did not change.
  std::vector<bool> after = before;
  if (!differential || !diff.link_changes.empty()) {
    for (size_t i = 0; i < invariants_.size(); ++i) after[i] = eval(i);
  } else {
    // Affected ranges sorted by address; they are disjoint, so also by hi.
    std::vector<dp::EcIndex::Range> affected;
    for (dp::EcId ec : dp_->last_affected_ec_ids()) {
      affected.push_back(dp_->ec_index().range(ec));
    }
    std::sort(affected.begin(), affected.end(),
              [](const auto& a, const auto& b) { return a.lo < b.lo; });
    for (size_t i = 0; i < invariants_.size(); ++i) {
      const Ipv4Prefix& traffic = invariants_[i].traffic;
      const auto it = std::lower_bound(
          affected.begin(), affected.end(), traffic.first().bits(),
          [](const auto& range, uint32_t lo) { return range.hi < lo; });
      if (it != affected.end() && it->lo <= traffic.last().bits()) {
        after[i] = eval(i);
      }
    }
  }
  for (size_t i = 0; i < invariants_.size(); ++i) {
    if (before[i] != after[i]) {
      diff.invariant_flips.push_back(
          {invariants_[i].describe(), before[i], after[i]});
    }
  }
  verdicts_ = std::move(after);
  diff.seconds_total = total.elapsed_seconds();
  return diff;
}

NetworkDiff DnaEngine::preview(topo::Snapshot target, Mode mode) {
  UndoLog log;
  NetworkDiff diff = advance(std::move(target), mode, &log);
  verdicts_ = std::move(log.verdicts);
  if (log.old_cp) {
    cp_ = std::move(log.old_cp);
    dp_ = std::move(log.old_dp);
    rollback_entries_ = 0;
  } else {
    // The verifier re-reads its caches from the restored snapshot.
    rollback_entries_ = cp_->rollback(std::move(log.cp), diff.fib_delta) +
                        dp_->rollback(std::move(log.dp), diff.fib_delta);
  }
  return diff;
}

NetworkDiff DnaEngine::advance_monolithic(topo::Snapshot target,
                                          UndoLog* log) {
  NetworkDiff diff;
  diff.used_monolithic = true;

  // Syntactic diff (cheap; reported for parity with differential mode).
  diff.config_changes =
      config::diff_configs(cp_->snapshot().configs, target.configs);
  if (target.topology.num_nodes() == cp_->snapshot().topology.num_nodes() &&
      target.topology.num_links() == cp_->snapshot().topology.num_links()) {
    diff.link_changes =
        topo::diff_link_states(cp_->snapshot().topology, target.topology);
  }

  // Simulate and verify the target from scratch.
  Stopwatch sw;
  auto next_cp = std::make_unique<cp::ControlPlaneEngine>(std::move(target));
  diff.stages.add("control-plane", sw.elapsed_seconds());
  sw.reset();
  auto next_dp =
      std::make_unique<dp::Verifier>(&next_cp->snapshot(), &next_cp->fibs());
  diff.stages.add("data-plane", sw.elapsed_seconds());

  // Subtract.
  sw.reset();
  diff.fib_delta = cp::diff_fibs(cp_->fibs(), next_cp->fibs());
  const auto reach_before = dp_->all_reach_facts();
  const auto reach_after = next_dp->all_reach_facts();
  diff.reach_delta.gained = facts_minus(reach_after, reach_before);
  diff.reach_delta.lost = facts_minus(reach_before, reach_after);
  const auto loops_before = dp_->all_loop_facts();
  const auto loops_after = next_dp->all_loop_facts();
  diff.reach_delta.loops_gained = facts_minus(loops_after, loops_before);
  diff.reach_delta.loops_lost = facts_minus(loops_before, loops_after);
  const auto bh_before = dp_->all_blackhole_facts();
  const auto bh_after = next_dp->all_blackhole_facts();
  diff.reach_delta.blackholes_gained = facts_minus(bh_after, bh_before);
  diff.reach_delta.blackholes_lost = facts_minus(bh_before, bh_after);
  diff.stages.add("subtract", sw.elapsed_seconds());

  diff.affected_ecs = next_dp->num_ecs();  // everything was re-verified
  diff.total_ecs = next_dp->num_ecs();

  if (log) {
    log->old_cp = std::move(cp_);
    log->old_dp = std::move(dp_);
  }
  cp_ = std::move(next_cp);
  dp_ = std::move(next_dp);
  return diff;
}

NetworkDiff DnaEngine::advance_differential(topo::Snapshot target,
                                            UndoLog* log) {
  NetworkDiff diff;
  cp::AdvanceResult cp_result =
      cp_->advance(std::move(target), log ? &log->cp : nullptr);
  for (const auto& entry : cp_->timers().entries()) {
    diff.stages.add(entry.stage, entry.seconds);
  }
  diff.config_changes = std::move(cp_result.config_changes);
  diff.link_changes = std::move(cp_result.link_changes);

  diff.reach_delta = dp_->apply(&cp_->snapshot(), cp_result.fib_delta,
                                diff.config_changes,
                                log ? &log->dp : nullptr);
  for (const auto& entry : dp_->timers().entries()) {
    diff.stages.add(entry.stage, entry.seconds);
  }
  diff.affected_ecs = dp_->last_affected_ecs();
  diff.fib_delta = std::move(cp_result.fib_delta);
  diff.total_ecs = dp_->num_ecs();
  return diff;
}

}  // namespace dna::core
