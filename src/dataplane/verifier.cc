#include "dataplane/verifier.h"

#include <algorithm>
#include <set>
#include <utility>

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
    : snap_(snapshot) {
  const size_t n = snap_->topology.num_nodes();
  lpm_.resize(n);
  for (size_t node = 0; node < n; ++node) lpm_[node].rebuild((*fibs)[node]);
  edges_.topology = &snap_->topology;
  edges_.links_enabled.resize(snap_->topology.num_links());
  edges_.acls.resize(2 * snap_->topology.num_links());
  edges_.probe_sources.resize(n);
  for (topo::NodeId node = 0; node < n; ++node) {
    refresh_acl_cache(node);
    refresh_interface_cache(node);
  }
  insert_all_prefixes(*fibs);
  graphs_.resize(index_.num_atoms());
  reaches_.resize(index_.num_atoms());
  for (EcId ec = 0; ec < index_.num_atoms(); ++ec) verify_ec(ec);
}

void Verifier::insert_all_prefixes(const std::vector<cp::Fib>& fibs) {
  // Return values ignored: the constructor verifies every atom afterwards.
  for (const cp::Fib& fib : fibs) {
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
  const config::NodeConfig& cfg = snap_->configs[node];
  for (const auto& acl : cfg.acls) {
    acl_rules_cache_.try_emplace({node, acl.name}, acl.rules);
  }
  for (const auto& iface : cfg.interfaces) {
    if (!iface.acl_in.empty() || !iface.acl_out.empty()) {
      binding_cache_[{node, iface.name}] = {iface.acl_in, iface.acl_out};
    }
  }
  // The rule lists this node's link ends bind: its acl-out on the direction
  // it sends, its acl-in on the one it receives.
  auto bound = [&](const std::string& name) -> const AclRules* {
    if (name.empty()) return nullptr;
    auto it = acl_rules_cache_.find({node, name});
    return it != acl_rules_cache_.end() ? &it->second : nullptr;
  };
  for (uint32_t index : snap_->topology.links_of(node)) {
    const topo::Link& link = snap_->topology.link(index);
    const uint32_t sends = 2 * index + (link.a == node ? 0 : 1);
    const uint32_t receives = sends ^ 1;
    const auto* iface = cfg.find_interface(link.if_of(node));
    edges_.acls[sends].out = iface ? bound(iface->acl_out) : nullptr;
    edges_.acls[receives].in = iface ? bound(iface->acl_in) : nullptr;
  }
}

Verifier::InterfaceRefresh Verifier::refresh_interface_cache(
    topo::NodeId node) {
  InterfaceRefresh changed;
  const Ipv4Addr source = probe_source_address(snap_->configs[node]);
  if (edges_.probe_sources[node] != source) {
    edges_.probe_sources[node] = source;
    changed.probe_source_moved = true;
  }
  for (uint32_t index : snap_->topology.links_of(node)) {
    const topo::Link& link = snap_->topology.link(index);
    const auto* a = snap_->configs[link.a].find_interface(link.a_if);
    const auto* b = snap_->configs[link.b].find_interface(link.b_if);
    const bool enabled = a && b && a->enabled && b->enabled;
    if (edges_.links_enabled[index] != enabled) {
      edges_.links_enabled[index] = enabled;
      changed.link_enabled_changed = true;
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

void Verifier::verify_ec(EcId ec, UndoLog* log) {
  const Ipv4Addr rep = index_.representative(ec);
  build_ec_graph(lpm_, rep, graphs_[ec], ec, log ? &log->graph_rows : nullptr);
  compute_reach(graphs_[ec], rep, edges_, reaches_[ec]);
}

namespace {
/// Appends the prefixes whose forwarding changed at one node. EC graphs
/// read an entry's action and hops alone, so an entry whose metric or
/// protocol alone changed is skipped. Both lists are sorted by prefix, as
/// cp::diff_fib emits them.
void forwarding_changes(const cp::NodeFibDelta& delta,
                        std::vector<Ipv4Prefix>& out) {
  auto removed = delta.removed.begin();
  auto added = delta.added.begin();
  while (removed != delta.removed.end() || added != delta.added.end()) {
    if (added == delta.added.end() ||
        (removed != delta.removed.end() && removed->prefix < added->prefix)) {
      out.push_back((removed++)->prefix);
    } else if (removed == delta.removed.end() ||
               added->prefix < removed->prefix) {
      out.push_back((added++)->prefix);
    } else {
      if (removed->action != added->action || removed->hops != added->hops) {
        out.push_back(added->prefix);
      }
      ++removed;
      ++added;
    }
  }
}
}  // namespace

ReachDelta Verifier::apply(
    const topo::Snapshot* snapshot, const cp::FibDelta& fib_delta,
    const std::vector<config::ConfigChange>& config_changes, UndoLog* log) {
  snap_ = snapshot;
  edges_.topology = &snap_->topology;
  timers_.clear();
  Stopwatch sw;

  // ---- Collect the prefixes whose atoms need re-verification -------------
  std::vector<Ipv4Prefix> dirty_prefixes;
  for (const auto& [node, delta] : fib_delta.by_node) {
    forwarding_changes(delta, dirty_prefixes);
    lpm_[node].patch(delta);
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
  if (log) {
    log->acl_nodes = nodes_to_refresh;
    log->interface_nodes = interfaces_changed;
  }
  const bool link_acl_before =
      !interfaces_changed.empty() && edges_.binds_acl();
  for (topo::NodeId node : nodes_to_refresh) refresh_acl_cache(node);
  // An interface edit that enabled or disabled a link's interface changes
  // edges the FIB delta does not name: re-verify every EC. A moved probe
  // source changes only ACL verdicts on links, so it does the same only
  // when some link direction binds an ACL before or after the batch. Any
  // other interface edit (an OSPF cost, say) reaches the data plane only
  // through the FIBs.
  bool all_dirty = false;
  for (topo::NodeId node : interfaces_changed) {
    const InterfaceRefresh refreshed = refresh_interface_cache(node);
    all_dirty = all_dirty || refreshed.link_enabled_changed ||
                (refreshed.probe_source_moved &&
                 (link_acl_before || edges_.binds_acl()));
  }

  // ---- Update the EC index ------------------------------------------------
  std::vector<EcId> affected;
  const size_t num_atoms = index_.num_atoms();
  std::vector<std::pair<EcId, EcId>> splits;  // (child, parent)
  for (const Ipv4Prefix& prefix : dirty_prefixes) {
    for (const auto& split : index_.insert_prefix(prefix)) {
      splits.push_back(split);
    }
    for (EcId ec : index_.covering(prefix)) affected.push_back(ec);
  }
  // Atoms created by splits inherit the parent's pre-change reachability,
  // in creation order, so that the before/after diff below is against what
  // this address range really did before the change. Only a rollback
  // removes atoms, so the vectors grow to exactly their count.
  graphs_.reserve(index_.num_atoms());
  graphs_.resize(index_.num_atoms());
  reaches_.reserve(index_.num_atoms());
  reaches_.resize(index_.num_atoms());
  for (auto [child, parent] : splits) {
    reaches_[child] = reaches_[parent];
    affected.push_back(child);
  }
  if (all_dirty) {
    affected.resize(index_.num_atoms());
    for (EcId ec = 0; ec < affected.size(); ++ec) affected[ec] = ec;
  } else {
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
  }
  timers_.add("ec-index", sw.elapsed_seconds());
  sw.reset();

  // ---- Re-verify affected atoms and diff --------------------------------
  ReachDelta out;
  const size_t n = snap_->topology.num_nodes();
  // Swapping the old reach out leaves the previous EC's in its slot, whose
  // storage verify_ec reuses. A rollback drops the atoms splits created, so
  // only older ones log their rows.
  EcReach old_reach;
  for (EcId ec : affected) {
    UndoLog* row_log = ec < num_atoms ? log : nullptr;
    std::swap(old_reach, reaches_[ec]);
    verify_ec(ec, row_log);
    const EcReach& now = reaches_[ec];
    const auto& range = index_.range(ec);
    for (topo::NodeId src = 0; src < n; ++src) {
      const DynamicBitset& before = old_reach.delivered[src];
      if (now.delivered[src] != before) {
        for (uint32_t dst : now.delivered[src].minus(before)) {
          out.gained.push_back({src, dst, range.lo, range.hi});
        }
        for (uint32_t dst : before.minus(now.delivered[src])) {
          out.lost.push_back({src, dst, range.lo, range.hi});
        }
        if (row_log) {
          // Leaves an empty row, which compute_reach re-sizes.
          row_log->reach_rows.push_back(
              {ec, src, std::move(old_reach.delivered[src])});
        }
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
    if (row_log && (old_reach.loop != now.loop ||
                    old_reach.blackhole != now.blackhole)) {
      row_log->flags.push_back(
          {ec, std::move(old_reach.loop), std::move(old_reach.blackhole)});
    }
  }
  if (log) {
    log->num_atoms = num_atoms;
    log->splits = std::move(splits);
  }
  last_affected_ = std::move(affected);
  timers_.add("verify", sw.elapsed_seconds());
  out.canonicalize();
  return out;
}

size_t Verifier::rollback(UndoLog&& log, const cp::FibDelta& fib_delta) {
  for (const auto& [node, delta] : fib_delta.by_node) lpm_[node].revert(delta);
  size_t entries = fib_delta.total_changes();
  for (topo::NodeId node : log.acl_nodes) refresh_acl_cache(node);
  for (topo::NodeId node : log.interface_nodes) {
    (void)refresh_interface_cache(node);
  }
  entries += log.acl_nodes.size() + log.interface_nodes.size();
  for (auto it = log.flags.rbegin(); it != log.flags.rend(); ++it) {
    reaches_[it->ec].loop = std::move(it->loop);
    reaches_[it->ec].blackhole = std::move(it->blackhole);
  }
  for (auto it = log.reach_rows.rbegin(); it != log.reach_rows.rend(); ++it) {
    reaches_[it->ec].delivered[it->src] = std::move(it->delivered);
  }
  for (auto it = log.graph_rows.rbegin(); it != log.graph_rows.rend(); ++it) {
    graphs_[it->ec].verdicts[it->node] = std::move(it->verdict);
  }
  for (auto it = log.splits.rbegin(); it != log.splits.rend(); ++it) {
    index_.unsplit(it->first, it->second);
  }
  graphs_.resize(log.num_atoms);
  reaches_.resize(log.num_atoms);
  std::erase_if(last_affected_,
                [&](EcId ec) { return ec >= log.num_atoms; });
  return entries + log.flags.size() + log.reach_rows.size() +
         log.graph_rows.size() + log.splits.size();
}

std::vector<ReachFact> Verifier::all_reach_facts() const {
  std::vector<ReachFact> facts;
  const size_t n = snap_->topology.num_nodes();
  for (EcId ec = 0; ec < reaches_.size(); ++ec) {
    const EcReach& reach = reaches_[ec];
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
  for (EcId ec = 0; ec < reaches_.size(); ++ec) {
    const auto& range = index_.range(ec);
    for (uint32_t src : reaches_[ec].loop.to_indices()) {
      facts.push_back({src, range.lo, range.hi});
    }
  }
  canonicalize_facts(facts);
  return facts;
}

std::vector<FlagFact> Verifier::all_blackhole_facts() const {
  std::vector<FlagFact> facts;
  for (EcId ec = 0; ec < reaches_.size(); ++ec) {
    const auto& range = index_.range(ec);
    for (uint32_t src : reaches_[ec].blackhole.to_indices()) {
      facts.push_back({src, range.lo, range.hi});
    }
  }
  canonicalize_facts(facts);
  return facts;
}

}  // namespace dna::dp
