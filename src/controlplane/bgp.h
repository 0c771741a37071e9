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
//
// An update can keep an undo log: the old value of each Loc-RIB, Adj-RIB-In
// and sent entry it writes, each per-session map it creates or erases, each
// origination map it replaces, and the old session list. rollback() writes
// them back, last first.
#pragma once

#include <functional>
#include <map>
#include <optional>
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
  using Routes = std::map<Ipv4Prefix, BgpRoute>;
  using AdjRibs = std::map<SessKey, Routes>;  // Adj-RIB-In or sent, by key

 public:
  /// What a logged update() overwrote, for rollback().
  struct UndoLog {
    /// The old session list, when the update changed it.
    std::optional<std::vector<Session>> sessions;
    /// A Loc-RIB entry as it was before a write; none if it was absent.
    struct BestWrite {
      RouteKey key;
      std::optional<Best> best;
    };
    std::vector<BestWrite> best;
    /// An Adj-RIB-In or sent write: one entry's old value when `prefix` is
    /// set, else the whole per-session map's. None if it was absent.
    struct AdjWrite {
      bool sent = false;  // sent_, else rib_in_
      SessKey key;
      std::optional<Ipv4Prefix> prefix;
      std::optional<BgpRoute> route;
      std::optional<Routes> routes;
    };
    std::vector<AdjWrite> adj;
    std::vector<std::pair<topo::NodeId, Routes>> originations;
  };

  /// Full build: derive sessions and originations, converge from scratch.
  void build(const topo::Snapshot& snapshot);

  /// Incremental move to `snapshot`; `changes` identifies policy edits that
  /// require re-import/re-export. `ospf_dirty` lists nodes whose OSPF routes
  /// changed (feeds redistribution). Returns the (node, prefix) pairs whose
  /// Loc-RIB entry changed, sorted and unique. A pair whose entry changed
  /// and changed back during convergence is listed too.
  /// If `log` is given, everything the update overwrites is logged in it.
  std::vector<RouteKey> update(const topo::Snapshot& snapshot,
                               const std::vector<config::ConfigChange>& changes,
                               const std::set<topo::NodeId>& ospf_dirty,
                               UndoLog* log = nullptr);

  /// Undoes the update that filled `log`, the last one made; returns the
  /// number of entries and maps written back.
  size_t rollback(UndoLog&& log);

  const std::map<Ipv4Prefix, Best>& best(topo::NodeId node) const {
    return best_.at(node);
  }

  /// Number of (node, prefix) decision evaluations in the last build/update;
  /// the convergence-effort metric for experiment F7.
  size_t last_work_items() const { return work_items_; }

 private:
  using Worklist = std::set<std::pair<topo::NodeId, Ipv4Prefix>>;

  std::vector<Session> derive_sessions(const topo::Snapshot& snapshot) const;
  Routes derive_originations(const topo::Snapshot& snapshot,
                             topo::NodeId node) const;
  /// Points by_node_ into sessions_.
  void index_sessions(size_t num_nodes);

  /// Processes the worklist to a fixed point, appending each pair whose
  /// Loc-RIB entry changed to `changed` (possibly more than once).
  void converge(const topo::Snapshot& snapshot, Worklist& work,
                std::vector<RouteKey>& changed, UndoLog* log);
  /// Recomputes the best route at (node, prefix); updates Loc-RIB and
  /// advertises changes. Returns true if the Loc-RIB entry changed.
  bool process(const topo::Snapshot& snapshot, topo::NodeId node,
               const Ipv4Prefix& prefix, Worklist& work, UndoLog* log);
  /// Re-sends (sender -> peer) advertisements for all known prefixes,
  /// enqueueing the peer where the advertisement changed.
  void resend_all(const topo::Snapshot& snapshot, const Session& session,
                  bool a_to_b, Worklist& work, UndoLog* log);
  /// Records (sender -> peer) advertising `adv` for `prefix` (nullopt:
  /// withdrawing it) in sent_ and the peer's Adj-RIB-In; returns false if
  /// that was already sent.
  bool send(topo::NodeId sender, topo::NodeId peer, uint32_t link,
            const Ipv4Prefix& prefix, std::optional<BgpRoute> adv,
            UndoLog* log);
  /// The per-session map `table[key]`, created (and logged) if absent.
  Routes& adj_rib(bool sent, const SessKey& key, UndoLog* log);
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
  AdjRibs rib_in_;  // receiver key
  AdjRibs sent_;    // sender key
  std::vector<std::map<Ipv4Prefix, Best>> best_;
  std::vector<Routes> originations_;
  size_t work_items_ = 0;
};

/// The effective BGP router id (configured, else highest interface address).
Ipv4Addr effective_router_id(const config::NodeConfig& cfg);

}  // namespace dna::cp
