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
// Beyond FIBs and ACLs, the data plane reads two things from interface
// configs: each node's probe source address and whether a link's two
// interfaces are enabled. An interface edit that changes either re-verifies
// every atom; any other (an OSPF cost, a passive flag) reaches the data
// plane through the FIB delta alone.
#pragma once

#include <map>
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
  /// Full verification. Both pointees must outlive the verifier and remain
  /// at stable addresses (the core engine owns them).
  Verifier(const topo::Snapshot* snapshot, const std::vector<cp::Fib>* fibs);

  /// Incremental re-verification after the control plane advanced.
  /// `snapshot`/`fibs` are the post-change pointers (may be the same
  /// objects, mutated). Returns the canonical reachability delta.
  ReachDelta apply(const topo::Snapshot* snapshot,
                   const std::vector<cp::Fib>* fibs,
                   const cp::FibDelta& fib_delta,
                   const std::vector<config::ConfigChange>& config_changes);

  /// Canonical full state: every delivery fact / loop / blackhole.
  std::vector<ReachFact> all_reach_facts() const;
  std::vector<FlagFact> all_loop_facts() const;
  std::vector<FlagFact> all_blackhole_facts() const;

  const EcIndex& ec_index() const { return index_; }
  size_t num_ecs() const { return index_.num_atoms(); }
  const EcGraph& graph(EcId ec) const { return graphs_.at(ec); }
  const EcReach& reach(EcId ec) const { return reaches_.at(ec); }

  /// ECs re-verified by the last apply() (experiment F4's numerator).
  size_t last_affected_ecs() const { return last_affected_.size(); }
  /// Their ids, ascending.
  const std::vector<EcId>& last_affected_ec_ids() const {
    return last_affected_;
  }

  /// Stage timings of the last apply(): "ec-index", "verify".
  const StageTimers& timers() const { return timers_; }

 private:
  void insert_all_prefixes();
  void refresh_acl_cache(topo::NodeId node);
  /// Re-reads the node's probe source and its links' interface state;
  /// returns whether either changed.
  bool refresh_interface_cache(topo::NodeId node);
  void verify_ec(EcId ec);

  /// Destination prefixes whose packets can behave differently after an
  /// ACL changed from `before` to `after` (first-match semantics): the
  /// destinations of rules in the multiset symmetric difference — a packet
  /// matching none of the differing rules sees an identical rule sequence.
  /// Falls back to every destination on a pure reorder.
  static std::vector<Ipv4Prefix> acl_dirty_dsts(
      const std::vector<config::AclRule>& before,
      const std::vector<config::AclRule>& after);

  const topo::Snapshot* snap_;
  const std::vector<cp::Fib>* fibs_;
  std::vector<LpmTable> lpm_;
  EcIndex index_;
  std::map<EcId, EcGraph> graphs_;
  std::map<EcId, EcReach> reaches_;
  /// Full rule lists per (node, acl) as of the last build/apply, so an ACL
  /// edit can invalidate exactly the atoms the *changed rules* cover.
  std::map<std::pair<topo::NodeId, std::string>,
           std::vector<config::AclRule>>
      acl_rules_cache_;
  /// (acl_in, acl_out) per (node, interface) as of the last build/apply.
  std::map<std::pair<topo::NodeId, std::string>,
           std::pair<std::string, std::string>>
      binding_cache_;
  /// Probe source per node and "both interfaces enabled" per link, as of
  /// the last build/apply.
  std::vector<Ipv4Addr> probe_sources_;
  std::vector<bool> links_enabled_;

  /// The rule list an interface binding named `acl_name` effectively
  /// enforced before this batch (cache lookup; absent = permit-all).
  const std::vector<config::AclRule>& cached_rules(
      topo::NodeId node, const std::string& acl_name) const;
  std::vector<EcId> last_affected_;
  StageTimers timers_;
};

}  // namespace dna::dp
