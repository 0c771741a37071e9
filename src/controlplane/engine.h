// Control-plane engine: orchestrates connected/static/OSPF/BGP route
// computation and assembles per-node FIBs.
//
// Construction performs a full (monolithic) build. advance() moves the
// engine to a target snapshot *differentially*: it diffs configs and link
// states, runs each stage only when one of its inputs changed, and rebuilds
// FIBs only for nodes whose routing inputs changed:
//  * OSPF: link state, interfaces, the OSPF process, and static routes on
//    a node whose OSPF redistributes statics before or after the change;
//  * BGP: the same, with BGP's redistribution of statics, plus the BGP
//    process, neighbors, prefix lists, route maps, and nodes whose OSPF
//    routes changed;
//  * FIB: every node with a changed input except ACLs and ACL bindings,
//    which only the data plane reads.
// A skipped stage is absent from timers(). Structural topology changes
// (node/link add/remove) fall back to a full rebuild.
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
  explicit ControlPlaneEngine(topo::Snapshot snapshot);

  const topo::Snapshot& snapshot() const { return snap_; }
  const std::vector<Fib>& fibs() const { return fibs_; }
  const OspfModel& ospf() const { return ospf_; }
  const BgpSim& bgp() const { return bgp_; }

  /// Moves to `target` incrementally and reports what changed.
  AdvanceResult advance(topo::Snapshot target);

  /// Stage timings ("ospf", "bgp", "fib", "config-diff") of the last
  /// advance() / construction; an advance lists only the stages it ran.
  const StageTimers& timers() const { return timers_; }

  /// Monolithic helper: computes all FIBs for a snapshot from scratch.
  static std::vector<Fib> compute_fibs(const topo::Snapshot& snapshot);

 private:
  void full_build();
  Fib build_fib(topo::NodeId node) const;

  topo::Snapshot snap_;
  OspfModel ospf_;
  BgpSim bgp_{&ospf_};
  std::vector<Fib> fibs_;
  StageTimers timers_;
};

}  // namespace dna::cp
