#include "controlplane/rib.h"

#include <algorithm>

namespace dna::cp {

FibEntry connected_fib_entry(const config::InterfaceConfig& iface) {
  FibEntry entry;
  entry.prefix = iface.subnet();
  entry.action = FibEntry::Action::kLocal;
  entry.protocol = Protocol::kConnected;
  return entry;
}

std::optional<FibEntry> resolve_static_route(
    const topo::Snapshot& snapshot, topo::NodeId node,
    const config::StaticRouteConfig& route) {
  for (uint32_t link_index : snapshot.topology.links_of(node)) {
    const topo::Link& link = snapshot.topology.link(link_index);
    if (!link.up) continue;
    const auto* local =
        snapshot.configs[node].find_interface(link.if_of(node));
    const topo::NodeId peer = link.peer_of(node);
    const auto* remote =
        snapshot.configs[peer].find_interface(link.if_of(peer));
    if (!local || !remote || !local->enabled || !remote->enabled) continue;
    if (remote->address != route.next_hop) continue;
    if (!local->subnet().contains(route.next_hop)) continue;
    FibEntry entry;
    entry.prefix = route.prefix;
    entry.action = FibEntry::Action::kForward;
    entry.protocol = Protocol::kStatic;
    entry.hops.push_back({peer, link_index});
    return entry;
  }
  return std::nullopt;
}

void add_connected_routes(const topo::Snapshot& snapshot, topo::NodeId node,
                          RibCandidates& out) {
  for (const auto& iface : snapshot.configs[node].interfaces) {
    if (!iface.enabled) continue;
    out[iface.subnet()].push_back(connected_fib_entry(iface));
  }
}

void add_static_routes(const topo::Snapshot& snapshot, topo::NodeId node,
                       RibCandidates& out) {
  for (const auto& route : snapshot.configs[node].static_routes) {
    if (auto entry = resolve_static_route(snapshot, node, route)) {
      out[route.prefix].push_back(std::move(*entry));
    }
  }
}

FibEntry merge_candidates(std::vector<FibEntry>& candidates) {
  // Lowest admin distance wins; among winners of equal distance and
  // metric, ECMP hops merge (e.g. two static routes to the same prefix).
  int best_ad = 256;
  for (const FibEntry& entry : candidates) {
    best_ad = std::min(best_ad, admin_distance(entry.protocol));
  }
  int best_metric = INT32_MAX;
  for (const FibEntry& entry : candidates) {
    if (admin_distance(entry.protocol) == best_ad) {
      best_metric = std::min(best_metric, entry.metric);
    }
  }
  FibEntry merged;
  bool first = true;
  for (FibEntry& entry : candidates) {
    if (admin_distance(entry.protocol) != best_ad ||
        entry.metric != best_metric) {
      continue;
    }
    if (first) {
      merged = std::move(entry);
      first = false;
    } else {
      merged.hops.insert(merged.hops.end(), entry.hops.begin(),
                         entry.hops.end());
    }
  }
  std::sort(merged.hops.begin(), merged.hops.end());
  merged.hops.erase(std::unique(merged.hops.begin(), merged.hops.end()),
                    merged.hops.end());
  return merged;
}

Fib merge_to_fib(RibCandidates&& candidates) {
  Fib fib;
  fib.reserve(candidates.size());
  for (auto& [prefix, entries] : candidates) {
    fib.push_back(merge_candidates(entries));
  }
  std::sort(fib.begin(), fib.end());
  return fib;
}

}  // namespace dna::cp
