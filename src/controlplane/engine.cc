#include "controlplane/engine.h"

namespace dna::cp {

namespace {

/// Whether a routing process turns static routes into its own routes.
template <typename Process>
bool redistributes_statics(const Process& process) {
  return process.enabled && process.redistribute_static;
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
  for (topo::NodeId node = 0; node < snap_.topology.num_nodes(); ++node) {
    fibs_.push_back(build_fib(node));
  }
  timers_.add("fib", sw.elapsed_seconds());
}

Fib ControlPlaneEngine::build_fib(topo::NodeId node) const {
  RibCandidates candidates;
  add_connected_routes(snap_, node, candidates);
  add_static_routes(snap_, node, candidates);
  for (const auto& [prefix, route] : ospf_.routes(node)) {
    FibEntry entry;
    entry.prefix = prefix;
    entry.action = FibEntry::Action::kForward;
    entry.protocol = Protocol::kOspf;
    entry.metric = route.metric;
    entry.hops = route.hops;
    candidates[prefix].push_back(std::move(entry));
  }
  for (const auto& [prefix, best] : bgp_.best(node)) {
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
    candidates[prefix].push_back(std::move(entry));
  }
  return merge_to_fib(std::move(candidates));
}

AdvanceResult ControlPlaneEngine::advance(topo::Snapshot target) {
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
    std::vector<Fib> old_fibs = std::move(fibs_);
    snap_ = std::move(target);
    full_build();
    result.fib_delta = diff_fibs(old_fibs, fibs_);
    result.rebuilt = true;
    return result;
  }

  // Which stages the change feeds. A node whose only edits are ACLs or ACL
  // bindings feeds none of them: its FIB stays as it is.
  bool ospf_input = !result.link_changes.empty();
  bool bgp_input = ospf_input;
  std::set<topo::NodeId> dirty;
  for (const auto& change : result.config_changes) {
    const topo::NodeId node = target.topology.node_id(change.node);
    switch (change.kind) {
      case config::ChangeKind::kAclChanged:
      case config::ChangeKind::kInterfaceAclBinding:
        continue;
      case config::ChangeKind::kStaticRoutesChanged: {
        const config::NodeConfig& before = snap_.config_of(change.node);
        const config::NodeConfig& after = target.configs[node];
        ospf_input = ospf_input || redistributes_statics(before.ospf) ||
                     redistributes_statics(after.ospf);
        bgp_input = bgp_input || redistributes_statics(before.bgp) ||
                    redistributes_statics(after.bgp);
        break;
      }
      case config::ChangeKind::kInterfaceAdded:
      case config::ChangeKind::kInterfaceRemoved:
      case config::ChangeKind::kInterfaceModified:
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
    dirty.insert(node);
  }

  std::set<topo::NodeId> ospf_dirty;
  if (ospf_input) {
    sw.reset();
    ospf_dirty = ospf_.update(target);
    timers_.add("ospf", sw.elapsed_seconds());
  }
  if (bgp_input || !ospf_dirty.empty()) {
    sw.reset();
    std::set<topo::NodeId> bgp_dirty =
        bgp_.update(target, result.config_changes, ospf_dirty);
    timers_.add("bgp", sw.elapsed_seconds());
    dirty.insert(bgp_dirty.begin(), bgp_dirty.end());
  }
  dirty.insert(ospf_dirty.begin(), ospf_dirty.end());
  for (const auto& change : result.link_changes) {
    const topo::Link& link = target.topology.link(change.link);
    dirty.insert(link.a);
    dirty.insert(link.b);
  }

  snap_ = std::move(target);
  if (dirty.empty()) return result;
  sw.reset();
  for (topo::NodeId node : dirty) {
    Fib next = build_fib(node);
    NodeFibDelta delta = diff_fib(fibs_[node], next);
    if (!delta.empty()) {
      result.fib_delta.by_node.emplace(node, std::move(delta));
      fibs_[node] = std::move(next);
    }
  }
  timers_.add("fib", sw.elapsed_seconds());
  return result;
}

std::vector<Fib> ControlPlaneEngine::compute_fibs(
    const topo::Snapshot& snapshot) {
  ControlPlaneEngine engine(snapshot);
  return engine.fibs_;
}

}  // namespace dna::cp
