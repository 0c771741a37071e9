// Control-plane engine: orchestrates connected/static/OSPF/BGP route
// computation and assembles per-node FIBs.
//
// Construction performs a full (monolithic) build. advance() moves the
// engine to a target snapshot *differentially*: it diffs configs and link
// states, runs each stage only when one of its inputs changed, and patches
// FIBs one (node, prefix) entry at a time:
//  * OSPF: link state, interfaces, the OSPF process, and static routes on
//    a node whose OSPF redistributes statics before or after the change;
//  * BGP: the same, with BGP's redistribution of statics, plus the BGP
//    process, neighbors, prefix lists, route maps, and nodes whose OSPF
//    routes changed;
//  * FIB: the pairs whose OSPF route or BGP best route changed, as those
//    stages report them, plus the pairs a config or link change feeds
//    directly, each read before and after the change: a node's connected
//    and static prefixes when its interfaces changed; its static prefixes
//    when its static routes changed; and the static prefixes of both ends
//    of a link whose state changed or whose far interface was edited
//    (static routes resolve over the peer's interface). ACLs and ACL bindings feed none:
//    only the data plane reads them.
// Each pair is re-merged from its candidates by the same rule a full build
// applies, compared with the node's current entry, and patched in place;
// the FIB delta lists the changes per node in prefix order, as diff_fib
// does. A skipped stage is absent from timers(). Structural topology
// changes (node/link add/remove) fall back to a full rebuild.
//
// An advance given an undo log can be rolled back: the log keeps the old
// snapshot, swapped out rather than copied, and the OSPF and BGP stages'
// own logs. FIBs need no log of their own: rollback() patches them back
// from the advance's FIB delta, whose removed entries are the old values.
// A structural change cannot be logged; a caller that must undo one keeps
// the old engine instead.
#pragma once

#include "config/diff.h"
#include "controlplane/bgp.h"
#include "controlplane/ospf.h"
#include "controlplane/rib.h"
#include "util/timer.h"

namespace dna::cp {

struct AdvanceResult {
  std::vector<config::ConfigChange> config_changes;
  std::vector<topo::LinkChange> link_changes;
  FibDelta fib_delta;
  bool rebuilt = false;  // structural change forced a full rebuild
};

class ControlPlaneEngine {
 public:
  /// What a logged advance() overwrote, for rollback().
  struct UndoLog {
    topo::Snapshot snapshot;  // the old one
    OspfModel::UndoLog ospf;
    BgpSim::UndoLog bgp;
  };

  explicit ControlPlaneEngine(topo::Snapshot snapshot);

  const topo::Snapshot& snapshot() const { return snap_; }
  const std::vector<Fib>& fibs() const { return fibs_; }
  const OspfModel& ospf() const { return ospf_; }
  const BgpSim& bgp() const { return bgp_; }

  /// Moves to `target` incrementally and reports what changed. If `log` is
  /// given, everything the advance overwrites is logged in it; the change
  /// must not be structural.
  AdvanceResult advance(topo::Snapshot target, UndoLog* log = nullptr);

  /// Undoes the last advance, which `log` logged and which reported
  /// `fib_delta`. Returns the number of entries written back: the FIB
  /// delta's lines, OSPF arcs, distances and routes, and BGP entries and
  /// maps.
  size_t rollback(UndoLog&& log, const FibDelta& fib_delta);

  /// Stage timings ("ospf", "bgp", "fib", "config-diff") of the last
  /// advance() / construction; an advance lists only the stages it ran.
  const StageTimers& timers() const { return timers_; }

  /// The (node, prefix) pairs the last advance re-merged, changed or not:
  /// the FIB stage's work. A full build (construction, or a structural
  /// change) counts every entry it built.
  size_t last_fib_merges() const { return fib_merges_; }

  /// Monolithic helper: computes all FIBs for a snapshot from scratch.
  static std::vector<Fib> compute_fibs(const topo::Snapshot& snapshot);

 private:
  void full_build();
  Fib build_fib(topo::NodeId node) const;
  /// The entry the current state gives `prefix` at `node`; nullopt if no
  /// route reaches it.
  std::optional<FibEntry> merge_entry(topo::NodeId node,
                                      const Ipv4Prefix& prefix) const;
  /// Re-merges (node, prefix) and, if the entry changed, patches
  /// fibs_[node] in place and appends the change to `fib_delta`.
  void patch_entry(topo::NodeId node, const Ipv4Prefix& prefix,
                   FibDelta& fib_delta);

  topo::Snapshot snap_;
  OspfModel ospf_;
  BgpSim bgp_{&ospf_};
  std::vector<Fib> fibs_;
  StageTimers timers_;
  size_t fib_merges_ = 0;
};

}  // namespace dna::cp
