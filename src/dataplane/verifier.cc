#include "dataplane/verifier.h"

#include <algorithm>
#include <set>

#include "dataplane/acl_eval.h"
#include "util/error.h"

namespace dna::dp {

bool ReachDelta::empty() const {
  return gained.empty() && lost.empty() && loops_gained.empty() &&
         loops_lost.empty() && blackholes_gained.empty() &&
         blackholes_lost.empty();
}

size_t ReachDelta::total_changes() const {
  return gained.size() + lost.size() + loops_gained.size() +
         loops_lost.size() + blackholes_gained.size() +
         blackholes_lost.size();
}

void canonicalize_facts(std::vector<ReachFact>& facts) {
  std::sort(facts.begin(), facts.end());
  std::vector<ReachFact> merged;
  for (const ReachFact& fact : facts) {
    if (!merged.empty() && merged.back().src == fact.src &&
        merged.back().dst == fact.dst &&
        static_cast<uint64_t>(merged.back().hi) + 1 >= fact.lo) {
      merged.back().hi = std::max(merged.back().hi, fact.hi);
    } else {
      merged.push_back(fact);
    }
  }
  facts = std::move(merged);
}

void canonicalize_facts(std::vector<FlagFact>& facts) {
  std::sort(facts.begin(), facts.end());
  std::vector<FlagFact> merged;
  for (const FlagFact& fact : facts) {
    if (!merged.empty() && merged.back().src == fact.src &&
        static_cast<uint64_t>(merged.back().hi) + 1 >= fact.lo) {
      merged.back().hi = std::max(merged.back().hi, fact.hi);
    } else {
      merged.push_back(fact);
    }
  }
  facts = std::move(merged);
}

void ReachDelta::canonicalize() {
  canonicalize_facts(gained);
  canonicalize_facts(lost);
  canonicalize_facts(loops_gained);
  canonicalize_facts(loops_lost);
  canonicalize_facts(blackholes_gained);
  canonicalize_facts(blackholes_lost);
}

Verifier::Verifier(const topo::Snapshot* snapshot,
                   const std::vector<cp::Fib>* fibs)
    : snap_(snapshot), fibs_(fibs) {
  const size_t n = snap_->topology.num_nodes();
  lpm_.resize(n);
  for (size_t node = 0; node < n; ++node) lpm_[node].rebuild((*fibs_)[node]);
  for (topo::NodeId node = 0; node < n; ++node) refresh_acl_cache(node);
  probe_sources_.resize(n);
  links_enabled_.resize(snap_->topology.num_links());
  for (topo::NodeId node = 0; node < n; ++node) refresh_interface_cache(node);
  insert_all_prefixes();
  for (EcId ec = 0; ec < index_.num_atoms(); ++ec) verify_ec(ec);
}

void Verifier::insert_all_prefixes() {
  // Return values ignored: the constructor verifies every atom afterwards.
  for (const cp::Fib& fib : *fibs_) {
    for (const cp::FibEntry& entry : fib) {
      (void)index_.insert_prefix(entry.prefix);
    }
  }
  for (const auto& [key, rules] : acl_rules_cache_) {
    (void)key;
    for (const auto& rule : rules) {
      (void)index_.insert_prefix(rule.dst);
    }
  }
}

void Verifier::refresh_acl_cache(topo::NodeId node) {
  // Drop stale entries for this node, then re-cache its current ACLs and
  // interface bindings.
  for (auto it = acl_rules_cache_.lower_bound({node, ""});
       it != acl_rules_cache_.end() && it->first.first == node;) {
    it = acl_rules_cache_.erase(it);
  }
  for (auto it = binding_cache_.lower_bound({node, ""});
       it != binding_cache_.end() && it->first.first == node;) {
    it = binding_cache_.erase(it);
  }
  for (const auto& acl : snap_->configs[node].acls) {
    acl_rules_cache_[{node, acl.name}] = acl.rules;
  }
  for (const auto& iface : snap_->configs[node].interfaces) {
    if (!iface.acl_in.empty() || !iface.acl_out.empty()) {
      binding_cache_[{node, iface.name}] = {iface.acl_in, iface.acl_out};
    }
  }
}

bool Verifier::refresh_interface_cache(topo::NodeId node) {
  bool changed = false;
  const Ipv4Addr source = probe_source_address(snap_->configs[node]);
  if (probe_sources_[node] != source) {
    probe_sources_[node] = source;
    changed = true;
  }
  for (uint32_t index : snap_->topology.links_of(node)) {
    const topo::Link& link = snap_->topology.link(index);
    const auto* a = snap_->configs[link.a].find_interface(link.a_if);
    const auto* b = snap_->configs[link.b].find_interface(link.b_if);
    const bool enabled = a && b && a->enabled && b->enabled;
    if (links_enabled_[index] != enabled) {
      links_enabled_[index] = enabled;
      changed = true;
    }
  }
  return changed;
}

namespace {
/// A missing/unbound ACL behaves as permit-all (acl_eval.cc).
const std::vector<config::AclRule>& permit_all_rules() {
  static const std::vector<config::AclRule> kPermitAll = {
      {config::FilterAction::kPermit, Ipv4Prefix(), Ipv4Prefix(), -1, -1,
       -1}};
  return kPermitAll;
}
}  // namespace

const std::vector<config::AclRule>& Verifier::cached_rules(
    topo::NodeId node, const std::string& acl_name) const {
  if (acl_name.empty()) return permit_all_rules();
  auto it = acl_rules_cache_.find({node, acl_name});
  return it != acl_rules_cache_.end() ? it->second : permit_all_rules();
}

std::vector<Ipv4Prefix> Verifier::acl_dirty_dsts(
    const std::vector<config::AclRule>& before,
    const std::vector<config::AclRule>& after) {
  if (before == after) return {};
  // Multiset symmetric difference of the two rule lists.
  std::vector<config::AclRule> b = before, a = after;
  std::vector<config::AclRule> differing;
  for (const auto& rule : b) {
    auto it = std::find(a.begin(), a.end(), rule);
    if (it != a.end()) {
      a.erase(it);
    } else {
      differing.push_back(rule);
    }
  }
  differing.insert(differing.end(), a.begin(), a.end());

  std::vector<Ipv4Prefix> dsts;
  if (differing.empty()) {
    // Same rules, different order: any matched packet may flip.
    for (const auto& rule : before) dsts.push_back(rule.dst);
  } else {
    for (const auto& rule : differing) dsts.push_back(rule.dst);
  }
  std::sort(dsts.begin(), dsts.end());
  dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
  return dsts;
}

void Verifier::verify_ec(EcId ec) {
  const Ipv4Addr rep = index_.representative(ec);
  graphs_[ec] = build_ec_graph(*snap_, lpm_, rep);
  reaches_[ec] = compute_reach(*snap_, graphs_[ec], rep);
}

ReachDelta Verifier::apply(
    const topo::Snapshot* snapshot, const std::vector<cp::Fib>* fibs,
    const cp::FibDelta& fib_delta,
    const std::vector<config::ConfigChange>& config_changes) {
  snap_ = snapshot;
  fibs_ = fibs;
  timers_.clear();
  Stopwatch sw;

  // ---- Collect the prefixes whose atoms need re-verification -------------
  std::vector<Ipv4Prefix> dirty_prefixes;
  bool all_dirty = false;
  for (const auto& [node, delta] : fib_delta.by_node) {
    (void)node;
    for (const auto& entry : delta.added) dirty_prefixes.push_back(entry.prefix);
    for (const auto& entry : delta.removed) {
      dirty_prefixes.push_back(entry.prefix);
    }
  }
  // Pass 1 reads the caches (pre-change state); caches refresh afterwards
  // so multiple changes on one node in a batch all see the old state.
  std::set<topo::NodeId> nodes_to_refresh;
  std::set<topo::NodeId> interfaces_changed;
  for (const auto& change : config_changes) {
    if (!snap_->topology.has_node(change.node)) continue;
    const topo::NodeId node = snap_->topology.node_id(change.node);
    switch (change.kind) {
      case config::ChangeKind::kAclChanged: {
        const config::AclConfig* now =
            snap_->configs[node].find_acl(change.detail);
        const std::vector<config::AclRule>& after =
            now ? now->rules : permit_all_rules();
        for (const Ipv4Prefix& dst :
             acl_dirty_dsts(cached_rules(node, change.detail), after)) {
          dirty_prefixes.push_back(dst);
        }
        nodes_to_refresh.insert(node);
        break;
      }
      case config::ChangeKind::kInterfaceModified:
      case config::ChangeKind::kInterfaceAdded:
      case config::ChangeKind::kInterfaceRemoved:
        // Checked against the interface cache below; the edit may also
        // have re-bound the interface's ACLs.
        interfaces_changed.insert(node);
        [[fallthrough]];
      case config::ChangeKind::kInterfaceAclBinding: {
        // Re-binding is, from the interface's perspective, a change from
        // the old effective rule list to the new one.
        auto bit = binding_cache_.find({node, change.detail});
        const auto old_names = bit != binding_cache_.end()
                                   ? bit->second
                                   : std::pair<std::string, std::string>{};
        const auto* iface =
            snap_->configs[node].find_interface(change.detail);
        std::pair<std::string, std::string> new_names;
        if (iface) new_names = {iface->acl_in, iface->acl_out};
        auto resolve_new = [&](const std::string& name)
            -> const std::vector<config::AclRule>& {
          const config::AclConfig* acl =
              name.empty() ? nullptr : snap_->configs[node].find_acl(name);
          return acl ? acl->rules : permit_all_rules();
        };
        for (const Ipv4Prefix& dst :
             acl_dirty_dsts(cached_rules(node, old_names.first),
                            resolve_new(new_names.first))) {
          dirty_prefixes.push_back(dst);
        }
        for (const Ipv4Prefix& dst :
             acl_dirty_dsts(cached_rules(node, old_names.second),
                            resolve_new(new_names.second))) {
          dirty_prefixes.push_back(dst);
        }
        nodes_to_refresh.insert(node);
        break;
      }
      default:
        break;
    }
  }
  for (topo::NodeId node : nodes_to_refresh) refresh_acl_cache(node);
  // An interface edit that moved a probe source or enabled or disabled a
  // link's interface changes edges the FIB delta does not name: re-verify
  // every EC. Any other interface edit (an OSPF cost, say) reaches the data
  // plane only through the FIBs.
  for (topo::NodeId node : interfaces_changed) {
    if (refresh_interface_cache(node)) all_dirty = true;
  }
  // Link state changes gate edges in reach computation; FIB deltas usually
  // accompany them, but an OSPF-less link (e.g. pure BGP fabrics where the
  // session survives) can change reachability without FIB churn only if the
  // session broke — which does produce FIB churn. ACL-only paths are the
  // ones that need the prefix treatment above.

  // ---- Update the EC index and rebuild dirty LPM tables -------------------
  std::set<EcId> affected;
  for (const auto& [node, delta] : fib_delta.by_node) {
    lpm_[node].rebuild((*fibs_)[node]);
    (void)delta;
  }
  for (const Ipv4Prefix& prefix : dirty_prefixes) {
    // Atoms created by splits inherit the parent's pre-change state so that
    // the before/after diff below is against what this address range really
    // did before the change.
    for (auto [child, parent] : index_.insert_prefix(prefix)) {
      graphs_[child] = graphs_.at(parent);
      reaches_[child] = reaches_.at(parent);
      affected.insert(child);
    }
    for (EcId ec : index_.covering(prefix)) affected.insert(ec);
  }
  if (all_dirty) {
    affected.clear();
    for (EcId ec = 0; ec < index_.num_atoms(); ++ec) affected.insert(ec);
  }
  timers_.add("ec-index", sw.elapsed_seconds());
  sw.reset();

  // ---- Re-verify affected atoms and diff --------------------------------
  ReachDelta out;
  const size_t n = snap_->topology.num_nodes();
  for (EcId ec : affected) {
    EcReach old_reach = std::move(reaches_.at(ec));
    verify_ec(ec);
    const EcReach& now = reaches_[ec];
    const auto& range = index_.range(ec);
    for (topo::NodeId src = 0; src < n; ++src) {
      const DynamicBitset& before = old_reach.delivered[src];
      for (uint32_t dst : now.delivered[src].minus(before)) {
        out.gained.push_back({src, dst, range.lo, range.hi});
      }
      for (uint32_t dst : before.minus(now.delivered[src])) {
        out.lost.push_back({src, dst, range.lo, range.hi});
      }
      const bool loop_before = old_reach.loop.test(src);
      const bool loop_now = now.loop.test(src);
      if (loop_now && !loop_before) {
        out.loops_gained.push_back({src, range.lo, range.hi});
      } else if (!loop_now && loop_before) {
        out.loops_lost.push_back({src, range.lo, range.hi});
      }
      const bool bh_before = old_reach.blackhole.test(src);
      const bool bh_now = now.blackhole.test(src);
      if (bh_now && !bh_before) {
        out.blackholes_gained.push_back({src, range.lo, range.hi});
      } else if (!bh_now && bh_before) {
        out.blackholes_lost.push_back({src, range.lo, range.hi});
      }
    }
  }
  last_affected_.assign(affected.begin(), affected.end());
  timers_.add("verify", sw.elapsed_seconds());
  out.canonicalize();
  return out;
}

std::vector<ReachFact> Verifier::all_reach_facts() const {
  std::vector<ReachFact> facts;
  const size_t n = snap_->topology.num_nodes();
  for (const auto& [ec, reach] : reaches_) {
    const auto& range = index_.range(ec);
    for (topo::NodeId src = 0; src < n; ++src) {
      for (uint32_t dst : reach.delivered[src].to_indices()) {
        facts.push_back({src, dst, range.lo, range.hi});
      }
    }
  }
  canonicalize_facts(facts);
  return facts;
}

std::vector<FlagFact> Verifier::all_loop_facts() const {
  std::vector<FlagFact> facts;
  for (const auto& [ec, reach] : reaches_) {
    const auto& range = index_.range(ec);
    for (uint32_t src : reach.loop.to_indices()) {
      facts.push_back({src, range.lo, range.hi});
    }
  }
  canonicalize_facts(facts);
  return facts;
}

std::vector<FlagFact> Verifier::all_blackhole_facts() const {
  std::vector<FlagFact> facts;
  for (const auto& [ec, reach] : reaches_) {
    const auto& range = index_.range(ec);
    for (uint32_t src : reach.blackhole.to_indices()) {
      facts.push_back({src, range.lo, range.hi});
    }
  }
  canonicalize_facts(facts);
  return facts;
}

}  // namespace dna::dp
