// Data-plane verifier: full verification plus EC-granular incremental
// re-verification.
//
// Full mode inserts every FIB destination and ACL destination prefix into
// the EC index and computes every atom's forwarding graph and reachability.
// Incremental mode receives a FibDelta and the config change list, marks as
// "affected" only the atoms overlapping changed prefixes (plus atoms covered
// by edited ACLs), re-verifies exactly those, and reports the reachability
// delta in a canonical, EC-independent form that monolithic mode can also
// produce — the property tests require the two to be identical. It also
// names the affected atoms, so the core engine re-evaluates only the
// invariants whose traffic overlaps one.
//
// Re-verifying an atom is one LPM lookup per node and one reachability pass
// over the resulting graph (reach.h), not one walk per source. Each node's
// LPM table is patched from its FIB delta. A FIB entry whose metric or
// protocol alone changed dirties nothing, since the graph reads only an
// entry's action and hops.
//
// Beyond FIBs and ACLs, the data plane reads two things from interface
// configs: each node's probe source address and whether a link's two
// interfaces are enabled. The verifier caches both, with each link
// direction's bound ACL rule lists, in the EdgeTable the pass reads, and
// refreshes them only for the nodes a change names. An interface edit that
// enables or disables a link's interface re-verifies every atom. A moved
// probe source matters only to the verdicts of ACLs bound on links, so it
// does the same only when some link direction binds one before or after
// the change; an ACL on an interface no link crosses is never read. Any
// other interface edit (an OSPF cost, a passive flag) reaches the data
// plane through the FIB delta alone.
//
// An apply given an undo log can be rolled back, once the control plane
// has been: LPM tables are patched back from the same FIB delta inverted;
// the atoms its splits created merge back into their parents, last first;
// the graph rows and reach rows whose value it changed are written back;
// and the config caches are re-read, from the restored snapshot, for the
// nodes the change named. A row log, not a copy of each affected EC: a
// link failure on fattree:6 re-verifies 133 ECs of 45 rows each, on
// average, and changes 242 graph rows and 36.5 reach rows of them.
#pragma once

#include <map>
#include <set>
#include <string>

#include "config/diff.h"
#include "dataplane/ectrie.h"
#include "dataplane/reach.h"
#include "util/timer.h"

namespace dna::dp {

/// "src can deliver to dst for destinations in [lo, hi]".
struct ReachFact {
  topo::NodeId src = 0;
  topo::NodeId dst = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;

  auto operator<=>(const ReachFact&) const = default;
};

/// "src hits a loop / blackhole for destinations in [lo, hi]".
struct FlagFact {
  topo::NodeId src = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;

  auto operator<=>(const FlagFact&) const = default;
};

struct ReachDelta {
  std::vector<ReachFact> gained, lost;
  std::vector<FlagFact> loops_gained, loops_lost;
  std::vector<FlagFact> blackholes_gained, blackholes_lost;

  bool empty() const;
  size_t total_changes() const;
  /// Sorts each list and coalesces adjacent address ranges, yielding a form
  /// independent of how the address space was partitioned into atoms.
  void canonicalize();

  bool operator==(const ReachDelta&) const = default;
};

/// Coalesces adjacent/overlapping ranges of equal (src, dst) / (src).
void canonicalize_facts(std::vector<ReachFact>& facts);
void canonicalize_facts(std::vector<FlagFact>& facts);

class Verifier {
 public:
  /// What a logged apply() overwrote, for rollback().
  struct UndoLog {
    size_t num_atoms = 0;  // before the apply
    std::vector<std::pair<EcId, EcId>> splits;  // (child, parent), in order
    std::vector<GraphRow> graph_rows;
    /// An EC's delivered row for one source as it was before the apply
    /// changed it.
    struct ReachRow {
      EcId ec;
      topo::NodeId src;
      DynamicBitset delivered;
    };
    std::vector<ReachRow> reach_rows;
    /// An EC's loop and blackhole flags, likewise.
    struct Flags {
      EcId ec;
      DynamicBitset loop, blackhole;
    };
    std::vector<Flags> flags;
    std::set<topo::NodeId> acl_nodes;        // whose ACL caches it re-read
    std::set<topo::NodeId> interface_nodes;  // whose interface caches
  };

  /// Full verification. The snapshot must outlive the verifier and remain
  /// at a stable address (the core engine owns it); the FIBs are read here
  /// only.
  Verifier(const topo::Snapshot* snapshot, const std::vector<cp::Fib>* fibs);

  // The edge table points into the verifier's own ACL cache.
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  /// Incremental re-verification after the control plane advanced.
  /// `snapshot` is the post-change snapshot (may be the same object,
  /// mutated). `fib_delta` must be every FIB change since the last
  /// build/apply: the LPM tables are patched from it. Returns the canonical
  /// reachability delta. If `log` is given, everything the apply
  /// overwrites is logged in it.
  ReachDelta apply(const topo::Snapshot* snapshot,
                   const cp::FibDelta& fib_delta,
                   const std::vector<config::ConfigChange>& config_changes,
                   UndoLog* log = nullptr);

  /// Undoes the last apply, which `log` logged and which was given
  /// `fib_delta`. The snapshot must already be back at its state before
  /// that apply. Afterwards last_affected_ec_ids() names only ids below
  /// num_ecs(). Returns the number of entries written back: the FIB delta's
  /// lines, splits, graph and reach rows, and re-read cache nodes.
  size_t rollback(UndoLog&& log, const cp::FibDelta& fib_delta);

  /// Canonical full state: every delivery fact / loop / blackhole.
  std::vector<ReachFact> all_reach_facts() const;
  std::vector<FlagFact> all_loop_facts() const;
  std::vector<FlagFact> all_blackhole_facts() const;

  const EcIndex& ec_index() const { return index_; }
  size_t num_ecs() const { return index_.num_atoms(); }
  const EcGraph& graph(EcId ec) const { return graphs_.at(ec); }
  const EcReach& reach(EcId ec) const { return reaches_.at(ec); }
  /// Link state, bound ACLs and probe sources: what a probe crossing an
  /// edge reads (EdgeTable::permits), for path and waypoint walks.
  const EdgeTable& edges() const { return edges_; }

  /// ECs re-verified by the last apply() (experiment F4's numerator).
  size_t last_affected_ecs() const { return last_affected_.size(); }
  /// Their ids, ascending.
  const std::vector<EcId>& last_affected_ec_ids() const {
    return last_affected_;
  }

  /// Stage timings of the last apply(): "ec-index", "verify".
  const StageTimers& timers() const { return timers_; }

 private:
  void insert_all_prefixes(const std::vector<cp::Fib>& fibs);
  /// Re-caches the node's ACLs and bindings, and re-points the rule lists
  /// its link ends bind in edges_.
  void refresh_acl_cache(topo::NodeId node);
  struct InterfaceRefresh {
    bool probe_source_moved = false;
    bool link_enabled_changed = false;
  };
  /// Re-reads the node's probe source and its links' interface state.
  InterfaceRefresh refresh_interface_cache(topo::NodeId node);
  /// Re-verifies `ec`, logging its changed graph rows in `log` if given.
  void verify_ec(EcId ec, UndoLog* log = nullptr);

  /// Destination prefixes whose packets can behave differently after an
  /// ACL changed from `before` to `after` (first-match semantics): the
  /// destinations of rules in the multiset symmetric difference — a packet
  /// matching none of the differing rules sees an identical rule sequence.
  /// Falls back to every destination on a pure reorder.
  static std::vector<Ipv4Prefix> acl_dirty_dsts(
      const std::vector<config::AclRule>& before,
      const std::vector<config::AclRule>& after);

  const topo::Snapshot* snap_;
  std::vector<LpmTable> lpm_;
  EcIndex index_;
  std::vector<EcGraph> graphs_;   // by EcId
  std::vector<EcReach> reaches_;  // by EcId
  /// Full rule lists per (node, acl) as of the last build/apply, so an ACL
  /// edit can invalidate exactly the atoms the *changed rules* cover. The
  /// first of two same-named ACLs wins, as in config::NodeConfig::find_acl.
  std::map<std::pair<topo::NodeId, std::string>, AclRules> acl_rules_cache_;
  /// (acl_in, acl_out) per (node, interface) as of the last build/apply.
  std::map<std::pair<topo::NodeId, std::string>,
           std::pair<std::string, std::string>>
      binding_cache_;
  /// Link state and probe sources as of the last build/apply; its rule
  /// lists point into acl_rules_cache_.
  EdgeTable edges_;

  /// The rule list an interface binding named `acl_name` effectively
  /// enforced before this batch (cache lookup; absent = permit-all).
  const std::vector<config::AclRule>& cached_rules(
      topo::NodeId node, const std::string& acl_name) const;
  std::vector<EcId> last_affected_;
  StageTimers timers_;
};

}  // namespace dna::dp
