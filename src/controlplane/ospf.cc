#include "controlplane/ospf.h"

#include <algorithm>

#include "util/error.h"

namespace dna::cp {

namespace {

constexpr int kRedistributeCost = 20;

bool runs_ospf(const config::NodeConfig& cfg,
               const config::InterfaceConfig& iface) {
  if (!cfg.ospf.enabled || !iface.enabled) return false;
  for (const Ipv4Prefix& range : cfg.ospf.networks) {
    if (range.contains(iface.subnet())) return true;
  }
  return false;
}

int clamp_cost(int cost) { return cost < 1 ? 1 : cost; }

}  // namespace

OspfModel::Inputs OspfModel::derive_inputs(const topo::Snapshot& snapshot) {
  Inputs in;
  const topo::Topology& topology = snapshot.topology;
  in.graph.resize(topology.num_nodes());

  // One eligibility pass collects the surviving links and per-node degrees,
  // then the adjacency vectors are sized exactly and filled — no regrowth.
  struct EligibleLink {
    uint32_t li;
    int cost_a;
    int cost_b;
  };
  std::vector<EligibleLink> eligible;
  eligible.reserve(topology.num_links());
  std::vector<uint32_t> degree(topology.num_nodes(), 0);
  for (uint32_t li = 0; li < topology.num_links(); ++li) {
    const topo::Link& link = topology.link(li);
    if (!link.up) continue;
    const auto& cfg_a = snapshot.configs[link.a];
    const auto& cfg_b = snapshot.configs[link.b];
    const auto* ia = cfg_a.find_interface(link.a_if);
    const auto* ib = cfg_b.find_interface(link.b_if);
    if (!ia || !ib) continue;
    if (!runs_ospf(cfg_a, *ia) || !runs_ospf(cfg_b, *ib)) continue;
    if (ia->ospf_passive || ib->ospf_passive) continue;
    eligible.push_back({li, clamp_cost(ia->ospf_cost),
                        clamp_cost(ib->ospf_cost)});
    ++degree[link.a];
    ++degree[link.b];
  }
  // Symmetric arcs: every eligible link adds one out- and one in-arc at both
  // endpoints, so one degree count serves both adjacency directions.
  in.graph.reserve_degrees(degree, degree);
  for (const EligibleLink& el : eligible) {
    const topo::Link& link = topology.link(el.li);
    in.graph.add_arc(link.a, link.b, el.cost_a, el.li);
    in.graph.add_arc(link.b, link.a, el.cost_b, el.li);
  }

  // Advertisers: (node, cost) per prefix, min cost per node, sorted by node.
  std::map<Ipv4Prefix, std::map<topo::NodeId, int>> adv;
  for (topo::NodeId node = 0; node < topology.num_nodes(); ++node) {
    const auto& cfg = snapshot.configs[node];
    for (const auto& iface : cfg.interfaces) {
      int cost = -1;
      if (runs_ospf(cfg, iface)) {
        cost = clamp_cost(iface.ospf_cost);
      } else if (cfg.ospf.enabled && cfg.ospf.redistribute_connected &&
                 iface.enabled) {
        cost = kRedistributeCost;
      }
      if (cost < 0) continue;
      auto [it, inserted] = adv[iface.subnet()].try_emplace(node, cost);
      if (!inserted) it->second = std::min(it->second, cost);
    }
    if (cfg.ospf.enabled && cfg.ospf.redistribute_static) {
      for (const auto& route : cfg.static_routes) {
        auto [it, inserted] =
            adv[route.prefix].try_emplace(node, kRedistributeCost);
        if (!inserted) it->second = std::min(it->second, kRedistributeCost);
      }
    }
  }
  for (auto& [prefix, by_node] : adv) {
    in.advertisers[prefix].assign(by_node.begin(), by_node.end());
  }
  return in;
}

void OspfModel::build(const topo::Snapshot& snapshot) {
  in_ = derive_inputs(snapshot);
  const size_t n = in_.graph.num_nodes();
  sssp_.clear();
  sssp_.reserve(n);
  for (topo::NodeId src = 0; src < n; ++src) {
    sssp_.push_back(
        std::make_unique<DynamicSssp>(&in_.graph, src));
  }
  routes_.assign(n, {});
  for (topo::NodeId src = 0; src < n; ++src) {
    for (const auto& [prefix, advertisers] : in_.advertisers) {
      (void)advertisers;
      compute_route(src, prefix);
    }
  }
}

bool OspfModel::compute_route(topo::NodeId src, const Ipv4Prefix& prefix,
                              UndoLog* log) {
  auto& table = routes_[src];
  auto existing = table.find(prefix);

  const auto adv_it = in_.advertisers.find(prefix);
  OspfRoute next;
  bool have_route = false;
  if (adv_it != in_.advertisers.end()) {
    const auto& dist_src = sssp_[src]->dist();
    bool self_advertises = false;
    int best = kInfDist;
    for (const auto& [node, cost] : adv_it->second) {
      if (node == src) {
        self_advertises = true;
        break;
      }
      if (dist_src[node] >= kInfDist) continue;
      best = std::min(best, dist_src[node] + cost);
    }
    if (!self_advertises && best < kInfDist) {
      next.metric = best;
      // First hops: arcs (src -> m) that start a shortest path to any
      // minimizing advertiser.
      for (const auto& [node, cost] : adv_it->second) {
        if (dist_src[node] >= kInfDist ||
            dist_src[node] + cost != best) {
          continue;
        }
        for (const Arc& arc : in_.graph.out[src]) {
          const auto& dist_mid = sssp_[arc.to]->dist();
          if (dist_mid[node] < kInfDist &&
              arc.weight + dist_mid[node] == dist_src[node]) {
            next.hops.push_back({arc.to, arc.link});
          }
        }
      }
      std::sort(next.hops.begin(), next.hops.end());
      next.hops.erase(std::unique(next.hops.begin(), next.hops.end()),
                      next.hops.end());
      have_route = !next.hops.empty();
    }
  }

  if (!have_route) {
    if (existing == table.end()) return false;
    if (log) log->routes.push_back({src, prefix, std::move(existing->second)});
    table.erase(existing);
    return true;
  }
  if (existing == table.end()) {
    table.emplace(prefix, std::move(next));
    if (log) log->routes.push_back({src, prefix, std::nullopt});
    return true;
  }
  if (existing->second == next) return false;
  if (log) log->routes.push_back({src, prefix, std::move(existing->second)});
  existing->second = std::move(next);
  return true;
}

std::vector<RouteKey> OspfModel::update(const topo::Snapshot& snapshot,
                                        UndoLog* log) {
  Inputs next = derive_inputs(snapshot);
  DNA_CHECK_MSG(next.graph.num_nodes() == in_.graph.num_nodes(),
                "node count changed; rebuild required");
  const size_t n = in_.graph.num_nodes();

  // ---- Arc diff: key (from, to, link) -> weight -------------------------
  std::vector<ArcEvent> events;
  for (topo::NodeId from = 0; from < n; ++from) {
    auto weight_of = [](const std::vector<Arc>& arcs, topo::NodeId to,
                        uint32_t link) {
      for (const Arc& arc : arcs) {
        if (arc.to == to && arc.link == link) return arc.weight;
      }
      return kInfDist;
    };
    for (const Arc& arc : in_.graph.out[from]) {
      int new_w = weight_of(next.graph.out[from], arc.to, arc.link);
      if (new_w != arc.weight) {
        events.push_back({from, arc.to, arc.link, arc.weight, new_w});
      }
    }
    for (const Arc& arc : next.graph.out[from]) {
      int old_w = weight_of(in_.graph.out[from], arc.to, arc.link);
      if (old_w >= kInfDist) {
        events.push_back({from, arc.to, arc.link, kInfDist, arc.weight});
      }
    }
  }

  // ---- Apply events: mutate the shared graph, update every source -------
  std::vector<std::set<topo::NodeId>> changed_dests(n);
  std::set<topo::NodeId> incident;  // sources with a changed outgoing arc
  // Returns the position the event changed in `arcs`.
  auto mutate = [](std::vector<Arc>& arcs, topo::NodeId endpoint,
                   const ArcEvent& ev) -> uint32_t {
    for (uint32_t i = 0; i < arcs.size(); ++i) {
      if (arcs[i].to == endpoint && arcs[i].link == ev.link) {
        if (ev.new_w >= kInfDist) {
          arcs[i] = arcs.back();
          arcs.pop_back();
        } else {
          arcs[i].weight = ev.new_w;
        }
        return i;
      }
    }
    DNA_CHECK(ev.old_w >= kInfDist);  // insertion
    arcs.push_back({endpoint, ev.new_w, ev.link});
    return static_cast<uint32_t>(arcs.size() - 1);
  };

  for (ArcEvent& ev : events) {
    ev.out_pos = mutate(in_.graph.out[ev.from], ev.to, ev);
    // `in` lists store the *source* in Arc::to.
    ev.in_pos = mutate(in_.graph.in[ev.to], ev.from, ev);
    incident.insert(ev.from);
    for (topo::NodeId src = 0; src < n; ++src) {
      for (topo::NodeId t : sssp_[src]->arc_updated(
               ev.from, ev.to, ev.old_w, ev.new_w,
               log ? &log->dists : nullptr)) {
        changed_dests[src].insert(t);
      }
    }
  }

  // ---- Advertiser diff ----------------------------------------------------
  std::set<Ipv4Prefix> changed_prefixes;
  for (const auto& [prefix, advertisers] : in_.advertisers) {
    auto it = next.advertisers.find(prefix);
    if (it == next.advertisers.end() || it->second != advertisers) {
      changed_prefixes.insert(prefix);
    }
  }
  for (const auto& [prefix, advertisers] : next.advertisers) {
    (void)advertisers;
    if (!in_.advertisers.count(prefix)) changed_prefixes.insert(prefix);
  }
  if (!changed_prefixes.empty()) {
    if (log) log->advertisers = std::move(in_.advertisers);
    in_.advertisers = std::move(next.advertisers);
  }

  // ---- Recompute affected routes -----------------------------------------
  // Sources ascend and each source's prefixes are a sorted set, so the
  // changed pairs come out sorted.
  std::vector<RouteKey> changed;
  for (topo::NodeId src = 0; src < n; ++src) {
    std::set<Ipv4Prefix> affected = changed_prefixes;
    if (incident.count(src)) {
      // First hops at src depend on its outgoing arc weights: recompute all.
      for (const auto& [prefix, advertisers] : in_.advertisers) {
        (void)advertisers;
        affected.insert(prefix);
      }
      // Also prefixes that currently have a route but lost all advertisers.
      for (const auto& [prefix, route] : routes_[src]) {
        (void)route;
        affected.insert(prefix);
      }
    } else {
      // Destinations whose distance changed from src or from any of src's
      // out-neighbors feed metric/first-hop computations.
      std::set<topo::NodeId> moved = changed_dests[src];
      for (const Arc& arc : in_.graph.out[src]) {
        moved.insert(changed_dests[arc.to].begin(),
                     changed_dests[arc.to].end());
      }
      if (!moved.empty()) {
        for (const auto& [prefix, advertisers] : in_.advertisers) {
          for (const auto& [node, cost] : advertisers) {
            (void)cost;
            if (moved.count(node)) {
              affected.insert(prefix);
              break;
            }
          }
        }
      }
    }
    for (const Ipv4Prefix& prefix : affected) {
      if (compute_route(src, prefix, log)) changed.emplace_back(src, prefix);
    }
  }
  if (log) log->arcs = std::move(events);
  return changed;
}

size_t OspfModel::rollback(UndoLog&& log) {
  for (auto it = log.routes.rbegin(); it != log.routes.rend(); ++it) {
    auto& table = routes_[it->src];
    if (it->route) {
      table.insert_or_assign(it->prefix, std::move(*it->route));
    } else {
      table.erase(it->prefix);
    }
  }
  for (auto it = log.dists.rbegin(); it != log.dists.rend(); ++it) {
    sssp_[it->source]->restore(*it);
  }
  if (log.advertisers) in_.advertisers = std::move(*log.advertisers);
  // Each event inverted, last first: a removal is put back where it was
  // (and the arc that filled its slot back at the end), an insertion is
  // the last arc of its lists, and a weight change is written back.
  auto undo = [](std::vector<Arc>& arcs, topo::NodeId endpoint,
                 const ArcEvent& ev, uint32_t pos) {
    if (ev.old_w >= kInfDist) {
      arcs.pop_back();
    } else if (ev.new_w < kInfDist) {
      arcs[pos].weight = ev.old_w;
    } else if (pos == arcs.size()) {
      arcs.push_back({endpoint, ev.old_w, ev.link});
    } else {
      arcs.push_back(arcs[pos]);
      arcs[pos] = {endpoint, ev.old_w, ev.link};
    }
  };
  for (auto it = log.arcs.rbegin(); it != log.arcs.rend(); ++it) {
    undo(in_.graph.out[it->from], it->to, *it, it->out_pos);
    undo(in_.graph.in[it->to], it->from, *it, it->in_pos);
  }
  return log.routes.size() + log.dists.size() + log.arcs.size();
}

}  // namespace dna::cp
