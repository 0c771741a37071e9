#include "core/invariants.h"

namespace dna::core {

std::string Invariant::describe() const {
  switch (kind) {
    case Kind::kReachable:
      return src + " reaches " + dst + " for " + traffic.str();
    case Kind::kIsolated:
      return src + " isolated from " + dst + " for " + traffic.str();
    case Kind::kLoopFree:
      return "loop-free for " + traffic.str();
    case Kind::kBlackholeFree:
      return src + " blackhole-free for " + traffic.str();
    case Kind::kWaypoint:
      return src + "->" + dst + " via " + waypoint + " for " + traffic.str();
  }
  return "?";
}

bool eval_invariant(const Invariant& invariant,
                    const topo::Snapshot& snapshot,
                    const dp::Verifier& verifier) {
  const topo::Topology& topology = snapshot.topology;
  auto id_of = [&](const std::string& name) -> int {
    return topology.has_node(name)
               ? static_cast<int>(topology.node_id(name))
               : -1;
  };
  switch (invariant.kind) {
    case Invariant::Kind::kReachable: {
      int src = id_of(invariant.src), dst = id_of(invariant.dst);
      if (src < 0 || dst < 0) return false;
      return dp::all_reach(verifier, static_cast<topo::NodeId>(src),
                           static_cast<topo::NodeId>(dst), invariant.traffic);
    }
    case Invariant::Kind::kIsolated: {
      int src = id_of(invariant.src), dst = id_of(invariant.dst);
      if (src < 0 || dst < 0) return false;
      return dp::isolated(verifier, static_cast<topo::NodeId>(src),
                          static_cast<topo::NodeId>(dst), invariant.traffic);
    }
    case Invariant::Kind::kLoopFree:
      return dp::loop_free(verifier, invariant.traffic);
    case Invariant::Kind::kBlackholeFree: {
      int src = id_of(invariant.src);
      if (src < 0) return false;
      return dp::blackhole_free(verifier, static_cast<topo::NodeId>(src),
                                invariant.traffic);
    }
    case Invariant::Kind::kWaypoint: {
      int src = id_of(invariant.src), dst = id_of(invariant.dst);
      int way = id_of(invariant.waypoint);
      if (src < 0 || dst < 0 || way < 0) return false;
      return dp::waypoint_enforced(
          verifier, static_cast<topo::NodeId>(src),
          static_cast<topo::NodeId>(dst), static_cast<topo::NodeId>(way),
          invariant.traffic);
    }
  }
  return false;
}

}  // namespace dna::core
