// BGP: event-driven path-vector simulation with policies.
//
// Sessions form between directly connected nodes whose configurations agree
// (both sides list the other's interface address with the correct remote
// AS, over an up link with both interfaces enabled). Each node keeps
// per-session Adj-RIB-In (raw, as received), a Loc-RIB of best routes, and
// remembers what it last advertised per session so that convergence work is
// proportional to actual route churn — which is exactly what makes the
// simulator *naturally differential*: a full build and an incremental
// update run the same worklist loop, seeded differently (experiment F7).
//
// Semantics (documented simplifications in DESIGN.md):
//  * decision process: locally-originated, then highest local-pref,
//    shortest AS path, lowest MED (always compared), eBGP over iBGP,
//    lowest originator router-id, lowest peer address, lowest link id;
//  * eBGP export prepends own AS and resets local-pref to 100; iBGP export
//    preserves attributes; routes learned from iBGP are not re-advertised
//    to iBGP peers (no route reflection);
//  * AS-path loop rejection on import;
//  * `network` statements originate unconditionally; redistribution pulls
//    connected subnets, static prefixes, and (when enabled) OSPF routes.
#pragma once

#include <functional>
#include <map>
#include <set>

#include "controlplane/ospf.h"
#include "controlplane/policy.h"
#include "controlplane/route.h"
#include "topo/snapshot.h"
#include "config/diff.h"

namespace dna::cp {

class BgpSim {
 public:
  /// Best route selected at a node for a prefix.
  struct Best {
    BgpRoute route;
    bool local = false;  // locally originated
    bool ebgp = true;    // learned over eBGP (meaningful when !local)
    topo::NodeId via = topo::kNoNode;
    uint32_t link = 0;
    Ipv4Addr via_ip;

    bool operator==(const Best&) const = default;
  };

  /// `ospf` may be null when no node redistributes OSPF into BGP.
  explicit BgpSim(const OspfModel* ospf = nullptr) : ospf_(ospf) {}

  /// Full build: derive sessions and originations, converge from scratch.
  void build(const topo::Snapshot& snapshot);

  /// Incremental move to `snapshot`; `changes` identifies policy edits that
  /// require re-import/re-export. `ospf_dirty` lists nodes whose OSPF routes
  /// changed (feeds redistribution). Returns the (node, prefix) pairs whose
  /// Loc-RIB entry changed, sorted and unique. A pair whose entry changed
  /// and changed back during convergence is listed too.
  std::vector<RouteKey> update(const topo::Snapshot& snapshot,
                               const std::vector<config::ConfigChange>& changes,
                               const std::set<topo::NodeId>& ospf_dirty);

  const std::map<Ipv4Prefix, Best>& best(topo::NodeId node) const {
    return best_.at(node);
  }

  /// Number of (node, prefix) decision evaluations in the last build/update;
  /// the convergence-effort metric for experiment F7.
  size_t last_work_items() const { return work_items_; }

 private:
  struct Session {
    topo::NodeId a = topo::kNoNode;
    topo::NodeId b = topo::kNoNode;
    uint32_t link = 0;
    Ipv4Addr a_ip, b_ip;
    uint32_t a_as = 0, b_as = 0;

    bool ebgp() const { return a_as != b_as; }
    auto operator<=>(const Session&) const = default;
  };

  /// Directed session endpoint: (receiver/sender node, peer node, link).
  using SessKey = std::tuple<topo::NodeId, topo::NodeId, uint32_t>;
  using Worklist = std::set<std::pair<topo::NodeId, Ipv4Prefix>>;

  std::vector<Session> derive_sessions(const topo::Snapshot& snapshot) const;
  std::map<Ipv4Prefix, BgpRoute> derive_originations(
      const topo::Snapshot& snapshot, topo::NodeId node) const;

  /// Processes the worklist to a fixed point, appending each pair whose
  /// Loc-RIB entry changed to `changed` (possibly more than once).
  void converge(const topo::Snapshot& snapshot, Worklist& work,
                std::vector<RouteKey>& changed);
  /// Recomputes the best route at (node, prefix); updates Loc-RIB and
  /// advertises changes. Returns true if the Loc-RIB entry changed.
  bool process(const topo::Snapshot& snapshot, topo::NodeId node,
               const Ipv4Prefix& prefix, Worklist& work);
  /// Re-sends (sender -> peer) advertisements for all known prefixes,
  /// enqueueing the peer where the advertisement changed.
  void resend_all(const topo::Snapshot& snapshot, const Session& session,
                  bool a_to_b, Worklist& work);
  /// Computes what `sender` advertises to the peer for `prefix`
  /// (nullopt = withdraw).
  std::optional<BgpRoute> advertisement(const topo::Snapshot& snapshot,
                                        const Session& session, bool a_to_b,
                                        const Ipv4Prefix& prefix) const;

  const Session* find_session(topo::NodeId node, topo::NodeId peer,
                              uint32_t link) const;

  const OspfModel* ospf_ = nullptr;
  std::vector<Session> sessions_;                      // sorted
  std::vector<std::vector<const Session*>> by_node_;   // sessions per node
  std::map<SessKey, std::map<Ipv4Prefix, BgpRoute>> rib_in_;  // receiver key
  std::map<SessKey, std::map<Ipv4Prefix, BgpRoute>> sent_;    // sender key
  std::vector<std::map<Ipv4Prefix, Best>> best_;
  std::vector<std::map<Ipv4Prefix, BgpRoute>> originations_;
  size_t work_items_ = 0;
};

/// The effective BGP router id (configured, else highest interface address).
Ipv4Addr effective_router_id(const config::NodeConfig& cfg);

}  // namespace dna::cp
