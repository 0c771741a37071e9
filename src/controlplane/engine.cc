#include "controlplane/engine.h"

#include <algorithm>

#include "util/error.h"

namespace dna::cp {

namespace {

/// Whether a routing process turns static routes into its own routes.
template <typename Process>
bool redistributes_statics(const Process& process) {
  return process.enabled && process.redistribute_static;
}

FibEntry ospf_fib_entry(const Ipv4Prefix& prefix, const OspfRoute& route) {
  FibEntry entry;
  entry.prefix = prefix;
  entry.action = FibEntry::Action::kForward;
  entry.protocol = Protocol::kOspf;
  entry.metric = route.metric;
  entry.hops = route.hops;
  return entry;
}

FibEntry bgp_fib_entry(const Ipv4Prefix& prefix, const BgpSim::Best& best) {
  FibEntry entry;
  entry.prefix = prefix;
  entry.protocol = best.ebgp || best.local ? Protocol::kEbgp
                                           : Protocol::kIbgp;
  if (best.local) {
    entry.action = FibEntry::Action::kLocal;
  } else {
    entry.action = FibEntry::Action::kForward;
    entry.hops.push_back({best.via, best.link});
  }
  return entry;
}

}  // namespace

ControlPlaneEngine::ControlPlaneEngine(topo::Snapshot snapshot)
    : snap_(std::move(snapshot)) {
  snap_.validate();
  full_build();
}

void ControlPlaneEngine::full_build() {
  Stopwatch total;
  Stopwatch sw;
  ospf_.build(snap_);
  timers_.add("ospf", sw.elapsed_seconds());
  sw.reset();
  bgp_.build(snap_);
  timers_.add("bgp", sw.elapsed_seconds());
  sw.reset();
  fibs_.clear();
  fibs_.reserve(snap_.topology.num_nodes());
  fib_merges_ = 0;
  for (topo::NodeId node = 0; node < snap_.topology.num_nodes(); ++node) {
    fibs_.push_back(build_fib(node));
    fib_merges_ += fibs_.back().size();
  }
  timers_.add("fib", sw.elapsed_seconds());
}

Fib ControlPlaneEngine::build_fib(topo::NodeId node) const {
  RibCandidates candidates;
  add_connected_routes(snap_, node, candidates);
  add_static_routes(snap_, node, candidates);
  for (const auto& [prefix, route] : ospf_.routes(node)) {
    candidates[prefix].push_back(ospf_fib_entry(prefix, route));
  }
  for (const auto& [prefix, best] : bgp_.best(node)) {
    candidates[prefix].push_back(bgp_fib_entry(prefix, best));
  }
  return merge_to_fib(std::move(candidates));
}

std::optional<FibEntry> ControlPlaneEngine::merge_entry(
    topo::NodeId node, const Ipv4Prefix& prefix) const {
  // The candidates build_fib would gather for this prefix, in its order.
  std::vector<FibEntry> candidates;
  const config::NodeConfig& cfg = snap_.configs[node];
  for (const auto& iface : cfg.interfaces) {
    if (iface.enabled && iface.subnet() == prefix) {
      candidates.push_back(connected_fib_entry(iface));
    }
  }
  for (const auto& route : cfg.static_routes) {
    if (route.prefix != prefix) continue;
    if (auto entry = resolve_static_route(snap_, node, route)) {
      candidates.push_back(std::move(*entry));
    }
  }
  const auto& ospf_routes = ospf_.routes(node);
  if (auto it = ospf_routes.find(prefix); it != ospf_routes.end()) {
    candidates.push_back(ospf_fib_entry(prefix, it->second));
  }
  const auto& bgp_best = bgp_.best(node);
  if (auto it = bgp_best.find(prefix); it != bgp_best.end()) {
    candidates.push_back(bgp_fib_entry(prefix, it->second));
  }
  if (candidates.empty()) return std::nullopt;
  return merge_candidates(candidates);
}

void ControlPlaneEngine::patch_entry(topo::NodeId node,
                                     const Ipv4Prefix& prefix,
                                     FibDelta& fib_delta) {
  Fib& fib = fibs_[node];
  const auto it = std::lower_bound(
      fib.begin(), fib.end(), prefix,
      [](const FibEntry& entry, const Ipv4Prefix& p) {
        return entry.prefix < p;
      });
  const bool present = it != fib.end() && it->prefix == prefix;
  std::optional<FibEntry> next = merge_entry(node, prefix);
  if (!present && !next) return;
  if (present && next && *it == *next) return;

  NodeFibDelta& delta = fib_delta.by_node[node];
  if (present) delta.removed.push_back(std::move(*it));
  if (!next) {
    fib.erase(it);
    return;
  }
  delta.added.push_back(*next);
  if (present) {
    *it = std::move(*next);
    return;
  }
  // A full table grows by this one entry, not by doubling: tables are built
  // at exact size, and an insertion is often undone by the next advance.
  const auto at = it - fib.begin();
  if (fib.size() == fib.capacity()) fib.reserve(fib.size() + 1);
  fib.insert(fib.begin() + at, std::move(*next));
}

AdvanceResult ControlPlaneEngine::advance(topo::Snapshot target,
                                          UndoLog* log) {
  target.validate();
  timers_.clear();
  AdvanceResult result;
  Stopwatch sw;

  const bool structural =
      target.topology.num_nodes() != snap_.topology.num_nodes() ||
      target.topology.num_links() != snap_.topology.num_links();

  result.config_changes = config::diff_configs(snap_.configs, target.configs);
  if (!structural) {
    result.link_changes =
        topo::diff_link_states(snap_.topology, target.topology);
  }
  timers_.add("config-diff", sw.elapsed_seconds());

  bool node_set_changed = structural;
  for (const auto& change : result.config_changes) {
    if (change.kind == config::ChangeKind::kNodeAdded ||
        change.kind == config::ChangeKind::kNodeRemoved) {
      node_set_changed = true;
    }
  }

  if (node_set_changed) {
    // Structural change: rebuild everything, report the FIB diff.
    DNA_CHECK_MSG(log == nullptr, "a structural change cannot be logged");
    std::vector<Fib> old_fibs = std::move(fibs_);
    snap_ = std::move(target);
    full_build();
    result.fib_delta = diff_fibs(old_fibs, fibs_);
    result.rebuilt = true;
    return result;
  }

  // Which stages the change feeds, and the (node, prefix) pairs it feeds
  // the FIB stage directly: what add_connected_routes and add_static_routes
  // read, before and after. ACLs and ACL bindings feed no stage.
  bool ospf_input = !result.link_changes.empty();
  bool bgp_input = ospf_input;
  std::vector<RouteKey> merges;
  auto add_connected_keys = [&](topo::NodeId node) {
    for (const topo::Snapshot* s : {&snap_, &target}) {
      for (const auto& iface : s->configs[node].interfaces) {
        merges.emplace_back(node, iface.subnet());
      }
    }
  };
  auto add_static_keys = [&](topo::NodeId node) {
    for (const topo::Snapshot* s : {&snap_, &target}) {
      for (const auto& route : s->configs[node].static_routes) {
        merges.emplace_back(node, route.prefix);
      }
    }
  };
  for (const auto& change : result.config_changes) {
    const topo::NodeId node = target.topology.node_id(change.node);
    switch (change.kind) {
      case config::ChangeKind::kAclChanged:
      case config::ChangeKind::kInterfaceAclBinding:
        break;
      case config::ChangeKind::kStaticRoutesChanged: {
        const config::NodeConfig& before = snap_.config_of(change.node);
        const config::NodeConfig& after = target.configs[node];
        ospf_input = ospf_input || redistributes_statics(before.ospf) ||
                     redistributes_statics(after.ospf);
        bgp_input = bgp_input || redistributes_statics(before.bgp) ||
                    redistributes_statics(after.bgp);
        add_static_keys(node);
        break;
      }
      case config::ChangeKind::kInterfaceAdded:
      case config::ChangeKind::kInterfaceRemoved:
      case config::ChangeKind::kInterfaceModified:
        ospf_input = bgp_input = true;
        add_connected_keys(node);
        add_static_keys(node);
        // The peer's static routes resolve over this interface.
        for (uint32_t index : target.topology.links_of(node)) {
          const topo::Link& link = target.topology.link(index);
          if (link.if_of(node) == change.detail) {
            add_static_keys(link.peer_of(node));
          }
        }
        break;
      case config::ChangeKind::kOspfChanged:
        ospf_input = bgp_input = true;
        break;
      case config::ChangeKind::kBgpProcessChanged:
      case config::ChangeKind::kBgpNeighborAdded:
      case config::ChangeKind::kBgpNeighborRemoved:
      case config::ChangeKind::kBgpNeighborModified:
      case config::ChangeKind::kPrefixListChanged:
      case config::ChangeKind::kRouteMapChanged:
        bgp_input = true;
        break;
      case config::ChangeKind::kNodeAdded:
      case config::ChangeKind::kNodeRemoved:
        break;  // unreachable: a node-set change rebuilt everything above
    }
  }
  for (const auto& change : result.link_changes) {
    const topo::Link& link = target.topology.link(change.link);
    add_static_keys(link.a);
    add_static_keys(link.b);
  }

  std::vector<RouteKey> ospf_changed;
  if (ospf_input) {
    sw.reset();
    ospf_changed = ospf_.update(target, log ? &log->ospf : nullptr);
    timers_.add("ospf", sw.elapsed_seconds());
  }
  if (bgp_input || !ospf_changed.empty()) {
    sw.reset();
    const std::vector<RouteKey> bgp_changed =
        bgp_.update(target, result.config_changes, nodes_of(ospf_changed),
                    log ? &log->bgp : nullptr);
    timers_.add("bgp", sw.elapsed_seconds());
    merges.insert(merges.end(), bgp_changed.begin(), bgp_changed.end());
  }
  merges.insert(merges.end(), ospf_changed.begin(), ospf_changed.end());

  if (log) log->snapshot = std::move(snap_);
  snap_ = std::move(target);
  fib_merges_ = 0;
  if (merges.empty()) return result;
  sw.reset();
  // Sorted by node, then prefix, so each node's delta lists its changes in
  // prefix order, as diff_fib would.
  std::sort(merges.begin(), merges.end());
  merges.erase(std::unique(merges.begin(), merges.end()), merges.end());
  fib_merges_ = merges.size();
  for (const auto& [node, prefix] : merges) {
    patch_entry(node, prefix, result.fib_delta);
  }
  timers_.add("fib", sw.elapsed_seconds());
  return result;
}

size_t ControlPlaneEngine::rollback(UndoLog&& log, const FibDelta& fib_delta) {
  snap_ = std::move(log.snapshot);
  const size_t entries = ospf_.rollback(std::move(log.ospf)) +
                         bgp_.rollback(std::move(log.bgp));
  // Per node, both lists are sorted by prefix and a changed entry is in
  // both: an added prefix goes, a removed entry comes back.
  for (const auto& [node, delta] : fib_delta.by_node) {
    Fib& fib = fibs_[node];
    auto find = [&](const Ipv4Prefix& prefix) {
      return std::lower_bound(fib.begin(), fib.end(), prefix,
                              [](const FibEntry& entry, const Ipv4Prefix& p) {
                                return entry.prefix < p;
                              });
    };
    auto removed = delta.removed.begin();
    for (const FibEntry& added : delta.added) {
      for (; removed != delta.removed.end() && removed->prefix < added.prefix;
           ++removed) {
        fib.insert(find(removed->prefix), *removed);
      }
      const auto it = find(added.prefix);
      if (removed != delta.removed.end() && removed->prefix == added.prefix) {
        *it = *removed++;
      } else {
        fib.erase(it);
      }
    }
    for (; removed != delta.removed.end(); ++removed) {
      fib.insert(find(removed->prefix), *removed);
    }
  }
  return entries + fib_delta.total_changes();
}

std::vector<Fib> ControlPlaneEngine::compute_fibs(
    const topo::Snapshot& snapshot) {
  ControlPlaneEngine engine(snapshot);
  return engine.fibs_;
}

}  // namespace dna::cp
