// OSPF model: link-state routing over the snapshot's adjacency graph.
//
// Full mode runs Dijkstra per source. Incremental mode re-derives the
// (cheap) graph + advertiser inputs from the new snapshot, diffs them
// against the previous inputs, feeds arc-level events to the per-source
// DynamicSssp instances, and recomputes routes only for (source, prefix)
// pairs whose distances, first-hop inputs, or advertisers changed, and
// reports the pairs whose route changed.
//
// An update can keep an undo log of what it overwrote: its arc events, the
// old advertiser map, each distance and each route. rollback() replays the
// arc events inverted on the graph, with no shortest-path work, and writes
// the rest back.
//
// Route-level semantics:
//  * an interface runs OSPF when its node has OSPF enabled and the
//    interface subnet is covered by one of the process's `network` ranges;
//  * adjacencies form over up links whose two endpoint interfaces both run
//    OSPF, are enabled and are not passive;
//  * every OSPF-running interface's subnet is advertised at the interface
//    cost; redistribute connected/static advertise at cost 20;
//  * the route metric to a prefix is min over advertisers d of
//    dist(s, d) + advertised cost; ECMP keeps all tight first hops;
//  * a node that advertises a prefix installs no OSPF route for it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "controlplane/incremental_spf.h"
#include "controlplane/route.h"
#include "topo/snapshot.h"

namespace dna::cp {

struct OspfRoute {
  int metric = 0;
  std::vector<Hop> hops;  // sorted

  auto operator<=>(const OspfRoute&) const = default;
};

class OspfModel {
 private:
  /// (advertising node -> advertised cost), sorted by node id.
  using Advertisers = std::map<Ipv4Prefix, std::vector<std::pair<topo::NodeId, int>>>;

 public:
  /// One arc's weight change (kInfDist: absent), and where it sat in the
  /// out- and in-list it changed, so that its inverse restores their order.
  struct ArcEvent {
    topo::NodeId from, to;
    uint32_t link;
    int old_w, new_w;
    uint32_t out_pos = 0, in_pos = 0;
  };

  /// What a logged update() overwrote, for rollback().
  struct UndoLog {
    std::vector<ArcEvent> arcs;  // in the order applied
    std::optional<Advertisers> advertisers;  // the old map, if replaced
    std::vector<DistWrite> dists;
    /// A route as it was before compute_route replaced or erased it; none
    /// if it was absent.
    struct RouteWrite {
      topo::NodeId src;
      Ipv4Prefix prefix;
      std::optional<OspfRoute> route;
    };
    std::vector<RouteWrite> routes;
  };

  /// Full computation from scratch.
  void build(const topo::Snapshot& snapshot);

  /// Incremental move to `snapshot`; returns the (node, prefix) pairs whose
  /// OSPF route changed (appeared, went, or moved in metric or hops),
  /// sorted and unique. Node additions/removals require a rebuild (handled
  /// by caller falling back to build()). If `log` is given, everything the
  /// update overwrites is logged in it.
  std::vector<RouteKey> update(const topo::Snapshot& snapshot,
                               UndoLog* log = nullptr);

  /// Undoes the update that filled `log`, the last one made; returns the
  /// number of arcs, distances and routes written back.
  size_t rollback(UndoLog&& log);

  const std::map<Ipv4Prefix, OspfRoute>& routes(topo::NodeId node) const {
    return routes_.at(node);
  }

  /// Distances from `src` (for diagnostics and tests).
  const std::vector<int>& dist(topo::NodeId src) const {
    return sssp_.at(src)->dist();
  }

 private:
  struct Inputs {
    WeightedDigraph graph;
    Advertisers advertisers;
  };

  static Inputs derive_inputs(const topo::Snapshot& snapshot);

  /// Recomputes the route of (src, prefix) in place, logging the old one
  /// in `log` if given; returns true if it changed.
  bool compute_route(topo::NodeId src, const Ipv4Prefix& prefix,
                     UndoLog* log = nullptr);

  Inputs in_;
  std::vector<std::unique_ptr<DynamicSssp>> sssp_;  // by source node
  std::vector<std::map<Ipv4Prefix, OspfRoute>> routes_;  // by source node
};

}  // namespace dna::cp
