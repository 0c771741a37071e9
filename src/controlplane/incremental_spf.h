// Dynamic single-source shortest paths (incremental SPF).
//
// Maintains one source's distance vector across single-arc weight events
// using a delete–repair scheme (the shortest-path analogue of DRed):
//
//  * weight decrease / arc insert: standard Dijkstra relaxation from the
//    arc head — only improved nodes are touched;
//  * weight increase / arc removal: if the arc was tight, collect the
//    "orphaned" region whose every shortest path used it (processed in
//    increasing-distance order so supports are final when checked), then
//    repair the region with a boundary-seeded Dijkstra.
//
// All weights must be >= 1. The owning model mutates the shared graph first
// and then calls arc_updated() on every per-source instance. An update can
// log the distances it overwrites; restore() writes them back, so a caller
// rolls an update back with no shortest-path work.
//
// Experiment F5 compares this against re-running full Dijkstra per event.
#pragma once

#include <vector>

#include "controlplane/spf.h"

namespace dna::cp {

/// A distance an update overwrote: the instance's source, the node, and
/// its distance before the write.
struct DistWrite {
  topo::NodeId source = topo::kNoNode;
  topo::NodeId node = topo::kNoNode;
  int old_dist = kInfDist;
};

class DynamicSssp {
 public:
  /// Computes the initial distances. The graph must outlive this object.
  DynamicSssp(const WeightedDigraph* graph, topo::NodeId source);

  /// Re-runs full Dijkstra (used after wholesale graph replacement).
  void recompute();

  /// Notifies that the weight of one arc (from -> to) changed from `old_w`
  /// to `new_w` (kInfDist encodes absent). The graph must already reflect
  /// the new state. Returns the nodes whose distance changed, in no
  /// particular order. If `log` is given, each distance the update
  /// overwrites is appended to it.
  std::vector<topo::NodeId> arc_updated(topo::NodeId from, topo::NodeId to,
                                        int old_w, int new_w,
                                        std::vector<DistWrite>* log = nullptr);

  /// Writes back one logged distance. A rollback restores an update's
  /// writes last first.
  void restore(const DistWrite& write) { dist_[write.node] = write.old_dist; }

  const std::vector<int>& dist() const { return dist_; }
  int dist_to(topo::NodeId node) const { return dist_[node]; }

 private:
  std::vector<topo::NodeId> on_decrease(topo::NodeId to,
                                        std::vector<DistWrite>* log);
  std::vector<topo::NodeId> on_increase(topo::NodeId from, topo::NodeId to,
                                        int old_w,
                                        std::vector<DistWrite>* log);

  const WeightedDigraph* graph_;
  topo::NodeId source_;
  std::vector<int> dist_;
};

}  // namespace dna::cp
