#include "controlplane/bgp.h"

#include <algorithm>

#include "util/error.h"

namespace dna::cp {

namespace {

/// Strict total order on candidates; true if `a` is preferred over `b`.
bool better(const BgpSim::Best& a, const BgpSim::Best& b) {
  if (a.local != b.local) return a.local;
  if (a.route.local_pref != b.route.local_pref) {
    return a.route.local_pref > b.route.local_pref;
  }
  if (a.route.as_path.size() != b.route.as_path.size()) {
    return a.route.as_path.size() < b.route.as_path.size();
  }
  if (a.route.med != b.route.med) return a.route.med < b.route.med;
  if (a.ebgp != b.ebgp) return a.ebgp;
  if (a.route.origin_router_id != b.route.origin_router_id) {
    return a.route.origin_router_id < b.route.origin_router_id;
  }
  if (a.via_ip != b.via_ip) return a.via_ip < b.via_ip;
  return a.link < b.link;
}

const config::BgpNeighborConfig* find_neighbor(const config::NodeConfig& cfg,
                                               Ipv4Addr peer_ip) {
  for (const auto& neighbor : cfg.bgp.neighbors) {
    if (neighbor.peer_ip == peer_ip) return &neighbor;
  }
  return nullptr;
}

}  // namespace

Ipv4Addr effective_router_id(const config::NodeConfig& cfg) {
  if (cfg.bgp.router_id != Ipv4Addr()) return cfg.bgp.router_id;
  Ipv4Addr best;
  for (const auto& iface : cfg.interfaces) {
    best = std::max(best, iface.address);
  }
  return best;
}

std::vector<BgpSim::Session> BgpSim::derive_sessions(
    const topo::Snapshot& snapshot) const {
  std::vector<Session> sessions;
  const topo::Topology& topology = snapshot.topology;
  for (uint32_t li = 0; li < topology.num_links(); ++li) {
    const topo::Link& link = topology.link(li);
    if (!link.up) continue;
    const auto& cfg_a = snapshot.configs[link.a];
    const auto& cfg_b = snapshot.configs[link.b];
    if (!cfg_a.bgp.enabled || !cfg_b.bgp.enabled) continue;
    const auto* ia = cfg_a.find_interface(link.a_if);
    const auto* ib = cfg_b.find_interface(link.b_if);
    if (!ia || !ib || !ia->enabled || !ib->enabled) continue;
    const auto* na = find_neighbor(cfg_a, ib->address);
    const auto* nb = find_neighbor(cfg_b, ia->address);
    if (!na || !nb) continue;
    if (na->remote_as != cfg_b.bgp.as_number ||
        nb->remote_as != cfg_a.bgp.as_number) {
      continue;
    }
    sessions.push_back({link.a, link.b, li, ia->address, ib->address,
                        cfg_a.bgp.as_number, cfg_b.bgp.as_number});
  }
  std::sort(sessions.begin(), sessions.end());
  return sessions;
}

BgpSim::Routes BgpSim::derive_originations(const topo::Snapshot& snapshot,
                                           topo::NodeId node) const {
  Routes out;
  const config::NodeConfig& cfg = snapshot.configs[node];
  if (!cfg.bgp.enabled) return out;
  const Ipv4Addr router_id = effective_router_id(cfg);

  auto originate = [&](const Ipv4Prefix& prefix) {
    BgpRoute route;
    route.prefix = prefix;
    route.origin_router_id = router_id;
    out.try_emplace(prefix, std::move(route));
  };

  for (const Ipv4Prefix& prefix : cfg.bgp.networks) originate(prefix);
  if (cfg.bgp.redistribute_connected) {
    for (const auto& iface : cfg.interfaces) {
      if (iface.enabled) originate(iface.subnet());
    }
  }
  if (cfg.bgp.redistribute_static) {
    for (const auto& route : cfg.static_routes) originate(route.prefix);
  }
  if (cfg.bgp.redistribute_ospf && ospf_) {
    for (const auto& [prefix, route] : ospf_->routes(node)) {
      (void)route;
      originate(prefix);
    }
  }
  return out;
}

void BgpSim::index_sessions(size_t num_nodes) {
  by_node_.assign(num_nodes, {});
  for (const Session& session : sessions_) {
    by_node_[session.a].push_back(&session);
    by_node_[session.b].push_back(&session);
  }
}

void BgpSim::build(const topo::Snapshot& snapshot) {
  const size_t n = snapshot.topology.num_nodes();
  sessions_ = derive_sessions(snapshot);
  index_sessions(n);
  rib_in_.clear();
  sent_.clear();
  best_.assign(n, {});
  originations_.assign(n, {});
  work_items_ = 0;

  Worklist work;
  for (topo::NodeId node = 0; node < n; ++node) {
    originations_[node] = derive_originations(snapshot, node);
    for (const auto& [prefix, route] : originations_[node]) {
      (void)route;
      work.insert({node, prefix});
    }
  }
  std::vector<RouteKey> changed;
  converge(snapshot, work, changed, nullptr);
}

const BgpSim::Session* BgpSim::find_session(topo::NodeId node,
                                            topo::NodeId peer,
                                            uint32_t link) const {
  for (const Session* session : by_node_[node]) {
    if (session->link == link &&
        (session->a == peer || session->b == peer)) {
      return session;
    }
  }
  return nullptr;
}

std::optional<BgpRoute> BgpSim::advertisement(const topo::Snapshot& snapshot,
                                              const Session& session,
                                              bool a_to_b,
                                              const Ipv4Prefix& prefix) const {
  const topo::NodeId sender = a_to_b ? session.a : session.b;
  const Ipv4Addr peer_ip = a_to_b ? session.b_ip : session.a_ip;
  const uint32_t own_as = a_to_b ? session.a_as : session.b_as;

  auto it = best_[sender].find(prefix);
  if (it == best_[sender].end()) return std::nullopt;
  const Best& best = it->second;
  // No route reflection: iBGP-learned routes stay within the AS edge.
  if (!session.ebgp() && !best.local && !best.ebgp) return std::nullopt;

  const config::NodeConfig& cfg = snapshot.configs[sender];
  const config::BgpNeighborConfig* neighbor = find_neighbor(cfg, peer_ip);
  if (!neighbor) return std::nullopt;

  std::optional<BgpRoute> route =
      apply_route_map(cfg, neighbor->export_map, best.route, own_as);
  if (!route) return std::nullopt;
  if (session.ebgp()) {
    route->as_path.insert(route->as_path.begin(), own_as);
    route->local_pref = 100;  // local-pref does not cross AS boundaries
  }
  return route;
}

BgpSim::Routes& BgpSim::adj_rib(bool sent, const SessKey& key,
                                UndoLog* log) {
  AdjRibs& table = sent ? sent_ : rib_in_;
  auto [it, created] = table.try_emplace(key);
  if (created && log) {
    log->adj.push_back({sent, key, std::nullopt, std::nullopt, std::nullopt});
  }
  return it->second;
}

bool BgpSim::send(topo::NodeId sender, topo::NodeId peer, uint32_t link,
                  const Ipv4Prefix& prefix, std::optional<BgpRoute> adv,
                  UndoLog* log) {
  const SessKey sent_key{sender, peer, link};
  const SessKey rib_key{peer, sender, link};
  Routes& sent = adj_rib(true, sent_key, log);
  Routes& peer_rib = adj_rib(false, rib_key, log);
  const auto sit = sent.find(prefix);
  const bool was_sent = sit != sent.end();
  if (adv ? was_sent && sit->second == *adv : !was_sent) return false;
  const auto rit = peer_rib.find(prefix);
  const bool was_received = rit != peer_rib.end();
  if (log) {
    log->adj.push_back(
        {true, sent_key, prefix,
         was_sent ? std::optional<BgpRoute>(std::move(sit->second))
                  : std::nullopt,
         std::nullopt});
    log->adj.push_back(
        {false, rib_key, prefix,
         was_received ? std::optional<BgpRoute>(std::move(rit->second))
                      : std::nullopt,
         std::nullopt});
  }
  if (!adv) {
    sent.erase(sit);
    if (was_received) peer_rib.erase(rit);
    return true;
  }
  if (was_sent) {
    sit->second = *adv;
  } else {
    sent.emplace(prefix, *adv);
  }
  if (was_received) {
    rit->second = std::move(*adv);
  } else {
    peer_rib.emplace(prefix, std::move(*adv));
  }
  return true;
}

bool BgpSim::process(const topo::Snapshot& snapshot, topo::NodeId node,
                     const Ipv4Prefix& prefix, Worklist& work,
                     UndoLog* log) {
  ++work_items_;
  // ---- Decision: collect candidates -------------------------------------
  std::optional<Best> winner;
  auto consider = [&](const Best& candidate) {
    if (!winner || better(candidate, *winner)) winner = candidate;
  };

  auto oit = originations_[node].find(prefix);
  if (oit != originations_[node].end()) {
    Best local;
    local.route = oit->second;
    local.local = true;
    consider(local);
  }

  const config::NodeConfig& cfg = snapshot.configs[node];
  for (const Session* session : by_node_[node]) {
    const bool node_is_a = session->a == node;
    const topo::NodeId peer = node_is_a ? session->b : session->a;
    const Ipv4Addr peer_ip = node_is_a ? session->b_ip : session->a_ip;
    const uint32_t own_as = node_is_a ? session->a_as : session->b_as;
    auto rit = rib_in_.find({node, peer, session->link});
    if (rit == rib_in_.end()) continue;
    auto pit = rit->second.find(prefix);
    if (pit == rit->second.end()) continue;
    const BgpRoute& raw = pit->second;
    if (raw.as_path_contains(own_as)) continue;  // AS loop
    const config::BgpNeighborConfig* neighbor = find_neighbor(cfg, peer_ip);
    if (!neighbor) continue;
    std::optional<BgpRoute> imported =
        apply_route_map(cfg, neighbor->import_map, raw, own_as);
    if (!imported) continue;
    Best candidate;
    candidate.route = std::move(*imported);
    candidate.local = false;
    candidate.ebgp = session->ebgp();
    candidate.via = peer;
    candidate.link = session->link;
    candidate.via_ip = peer_ip;
    consider(candidate);
  }

  // ---- Loc-RIB update -----------------------------------------------------
  auto& table = best_[node];
  const auto bit = table.find(prefix);
  const bool had = bit != table.end();
  if (had && winner && bit->second == *winner) return false;
  if (!had && !winner) return false;
  if (log) {
    log->best.push_back(
        {{node, prefix},
         had ? std::optional<Best>(std::move(bit->second)) : std::nullopt});
  }
  if (!winner) {
    table.erase(bit);
  } else if (had) {
    bit->second = std::move(*winner);
  } else {
    table.emplace(prefix, std::move(*winner));
  }

  // ---- Advertise the change on every session ------------------------------
  for (const Session* session : by_node_[node]) {
    const bool a_to_b = session->a == node;
    const topo::NodeId peer = a_to_b ? session->b : session->a;
    if (send(node, peer, session->link, prefix,
             advertisement(snapshot, *session, a_to_b, prefix), log)) {
      work.insert({peer, prefix});
    }
  }
  return true;
}

void BgpSim::resend_all(const topo::Snapshot& snapshot,
                        const Session& session, bool a_to_b, Worklist& work,
                        UndoLog* log) {
  const topo::NodeId sender = a_to_b ? session.a : session.b;
  const topo::NodeId peer = a_to_b ? session.b : session.a;
  const Routes& sent = adj_rib(true, {sender, peer, session.link}, log);

  // Prefixes to (re)advertise: everything in Loc-RIB plus everything
  // previously sent (for withdrawals).
  std::set<Ipv4Prefix> prefixes;
  for (const auto& [prefix, best] : best_[sender]) {
    (void)best;
    prefixes.insert(prefix);
  }
  for (const auto& [prefix, route] : sent) {
    (void)route;
    prefixes.insert(prefix);
  }
  for (const Ipv4Prefix& prefix : prefixes) {
    if (send(sender, peer, session.link, prefix,
             advertisement(snapshot, session, a_to_b, prefix), log)) {
      work.insert({peer, prefix});
    }
  }
}

void BgpSim::converge(const topo::Snapshot& snapshot, Worklist& work,
                      std::vector<RouteKey>& changed, UndoLog* log) {
  size_t guard = 0;
  const size_t limit =
      1000 + 200 * snapshot.topology.num_nodes() *
                 std::max<size_t>(1, sessions_.size());
  while (!work.empty()) {
    DNA_CHECK_MSG(++guard < limit * 100, "BGP failed to converge");
    auto [node, prefix] = *work.begin();
    work.erase(work.begin());
    if (process(snapshot, node, prefix, work, log)) {
      changed.emplace_back(node, prefix);
    }
  }
}

std::vector<RouteKey> BgpSim::update(
    const topo::Snapshot& snapshot,
    const std::vector<config::ConfigChange>& changes,
    const std::set<topo::NodeId>& ospf_dirty, UndoLog* log) {
  const size_t n = snapshot.topology.num_nodes();
  DNA_CHECK_MSG(best_.size() == n, "node count changed; rebuild required");
  work_items_ = 0;
  Worklist work;

  // ---- Session diff --------------------------------------------------------
  std::vector<Session> next_sessions = derive_sessions(snapshot);
  std::vector<Session> removed, added;
  std::set_difference(sessions_.begin(), sessions_.end(),
                      next_sessions.begin(), next_sessions.end(),
                      std::back_inserter(removed));
  std::set_difference(next_sessions.begin(), next_sessions.end(),
                      sessions_.begin(), sessions_.end(),
                      std::back_inserter(added));
  if (!removed.empty() || !added.empty()) {
    if (log) log->sessions = std::move(sessions_);
    sessions_ = std::move(next_sessions);
    index_sessions(n);
  }

  // Drops a per-session map, logging it.
  auto erase_adj_rib = [&](AdjRibs& table, AdjRibs::iterator it) {
    if (log) {
      log->adj.push_back({&table == &sent_, it->first, std::nullopt,
                          std::nullopt, std::move(it->second)});
    }
    table.erase(it);
  };
  for (const Session& session : removed) {
    for (bool a_to_b : {true, false}) {
      const topo::NodeId sender = a_to_b ? session.a : session.b;
      const topo::NodeId peer = a_to_b ? session.b : session.a;
      auto sit = sent_.find({sender, peer, session.link});
      if (sit != sent_.end()) erase_adj_rib(sent_, sit);
      auto rit = rib_in_.find({peer, sender, session.link});
      if (rit != rib_in_.end()) {
        for (const auto& [prefix, route] : rit->second) {
          (void)route;
          work.insert({peer, prefix});
        }
        erase_adj_rib(rib_in_, rit);
      }
    }
  }
  // New sessions: advertise both directions from current Loc-RIBs.
  for (const Session& session : added) {
    const Session* stored = find_session(session.a, session.b, session.link);
    DNA_CHECK(stored != nullptr);
    resend_all(snapshot, *stored, /*a_to_b=*/true, work, log);
    resend_all(snapshot, *stored, /*a_to_b=*/false, work, log);
  }

  // ---- Origination diff ----------------------------------------------------
  // Nodes whose originations may change: any config change, plus OSPF
  // redistribution inputs.
  std::set<topo::NodeId> orig_candidates;
  for (const auto& change : changes) {
    if (snapshot.topology.has_node(change.node)) {
      orig_candidates.insert(snapshot.topology.node_id(change.node));
    }
  }
  for (topo::NodeId node : ospf_dirty) orig_candidates.insert(node);
  for (topo::NodeId node : orig_candidates) {
    Routes next_orig = derive_originations(snapshot, node);
    if (next_orig == originations_[node]) continue;
    for (const auto& [prefix, route] : originations_[node]) {
      auto it = next_orig.find(prefix);
      if (it == next_orig.end() || !(it->second == route)) {
        work.insert({node, prefix});
      }
    }
    for (const auto& [prefix, route] : next_orig) {
      (void)route;
      if (!originations_[node].count(prefix)) work.insert({node, prefix});
    }
    if (log) {
      log->originations.emplace_back(node, std::move(originations_[node]));
    }
    originations_[node] = std::move(next_orig);
  }

  // ---- Policy edits: force re-import and re-export ------------------------
  for (const auto& change : changes) {
    const bool policy_edit =
        change.kind == config::ChangeKind::kRouteMapChanged ||
        change.kind == config::ChangeKind::kPrefixListChanged ||
        change.kind == config::ChangeKind::kBgpNeighborModified;
    if (!policy_edit || !snapshot.topology.has_node(change.node)) continue;
    const topo::NodeId node = snapshot.topology.node_id(change.node);
    for (const Session* session : by_node_[node]) {
      const bool node_is_a = session->a == node;
      const topo::NodeId peer = node_is_a ? session->b : session->a;
      // Re-import: re-evaluate everything the peer has sent us.
      auto rit = rib_in_.find({node, peer, session->link});
      if (rit != rib_in_.end()) {
        for (const auto& [prefix, route] : rit->second) {
          (void)route;
          work.insert({node, prefix});
        }
      }
      // Re-export: our advertisements may be filtered differently now.
      resend_all(snapshot, *session, node_is_a, work, log);
    }
  }

  std::vector<RouteKey> changed;
  converge(snapshot, work, changed, log);
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  return changed;
}

size_t BgpSim::rollback(UndoLog&& log) {
  for (auto it = log.originations.rbegin(); it != log.originations.rend();
       ++it) {
    originations_[it->first] = std::move(it->second);
  }
  for (auto it = log.best.rbegin(); it != log.best.rend(); ++it) {
    auto& table = best_[it->key.first];
    if (it->best) {
      table[it->key.second] = std::move(*it->best);
    } else {
      table.erase(it->key.second);
    }
  }
  for (auto it = log.adj.rbegin(); it != log.adj.rend(); ++it) {
    AdjRibs& table = it->sent ? sent_ : rib_in_;
    if (it->prefix) {
      Routes& routes = table.at(it->key);
      if (it->route) {
        routes[*it->prefix] = std::move(*it->route);
      } else {
        routes.erase(*it->prefix);
      }
    } else if (it->routes) {
      table.emplace(it->key, std::move(*it->routes));
    } else {
      table.erase(it->key);
    }
  }
  if (log.sessions) {
    sessions_ = std::move(*log.sessions);
    index_sessions(best_.size());
  }
  return log.originations.size() + log.best.size() + log.adj.size();
}

}  // namespace dna::cp
