#include "dataplane/reach.h"

#include <algorithm>

namespace dna::dp {

bool EdgeTable::permits(topo::NodeId u, const cp::Hop& hop,
                        const Probe& probe) const {
  if (!open(hop.link)) return false;
  const Acls& bound = acls_on(u, hop);
  return (!bound.out || rules_permit(*bound.out, probe)) &&
         (!bound.in || rules_permit(*bound.in, probe));
}

bool EdgeTable::binds_acl() const {
  return std::any_of(acls.begin(), acls.end(), [](const Acls& bound) {
    return bound.out || bound.in;
  });
}

namespace {

/// An edge of the EC graph over an open link.
struct Edge {
  topo::NodeId next = 0;
  int out = -1;  // bound acl-out's index in OpenEdges::lists, -1: none
  int in = -1;   // bound acl-in's index, likewise
  bool permitted = true;  // for the group of sources being passed
};

/// An EC graph's edges over open links, by sending node.
struct OpenEdges {
  std::vector<uint32_t> first;  // edges of u: [first[u], first[u + 1])
  std::vector<Edge> edges;
  std::vector<const AclRules*> lists;  // distinct bound rule lists

  OpenEdges(const EcGraph& graph, const EdgeTable& table) {
    const size_t n = graph.verdicts.size();
    first.reserve(n + 1);
    for (topo::NodeId u = 0; u < n; ++u) {
      first.push_back(static_cast<uint32_t>(edges.size()));
      const NodeVerdict& verdict = graph.verdicts[u];
      if (verdict.kind != NodeVerdict::Kind::kForward) continue;
      for (const cp::Hop& hop : verdict.hops) {
        if (!table.open(hop.link)) continue;
        const EdgeTable::Acls& acls = table.acls_on(u, hop);
        edges.push_back({hop.next, list_index(acls.out), list_index(acls.in)});
      }
    }
    first.push_back(static_cast<uint32_t>(edges.size()));
  }

  int list_index(const AclRules* rules) {
    if (!rules) return -1;
    const auto it = std::find(lists.begin(), lists.end(), rules);
    if (it != lists.end()) return static_cast<int>(it - lists.begin());
    lists.push_back(rules);
    return static_cast<int>(lists.size() - 1);
  }
};

/// Tarjan's SCC algorithm over the permitted edges. A component's answer
/// closes when it completes, since every component it reaches has
/// completed before it; it is kept with the component's root node, its
/// delivered set in rows[root].
class SccPass {
 public:
  SccPass(const EcGraph& graph, const OpenEdges& open,
          std::vector<DynamicBitset>& rows)
      : graph_(graph), open_(open), rows_(rows), state_(rows.size()) {
    frames_.reserve(rows.size());
  }

  /// Visits everything reachable from `src` not visited yet.
  void run(topo::NodeId src) {
    if (state_[src].index >= 0) return;
    enter(src);
    while (!frames_.empty()) {
      const topo::NodeId v = frames_.back().first;
      uint32_t& pos = frames_.back().second;
      if (pos < open_.first[v + 1]) {
        const Edge& edge = open_.edges[pos++];
        if (!edge.permitted) continue;
        const State& w = state_[edge.next];
        if (w.index < 0) {
          enter(edge.next);  // invalidates nothing: frames_ is reserved
        } else if (w.on_stack) {
          state_[v].low = std::min(state_[v].low, w.index);
        }
        continue;
      }
      frames_.pop_back();
      if (state_[v].low == state_[v].index) complete(v);
      if (!frames_.empty()) {
        int& low = state_[frames_.back().first].low;
        low = std::min(low, state_[v].low);
      }
    }
  }

  /// The root of a visited node's component.
  topo::NodeId root(topo::NodeId node) const { return state_[node].root; }
  bool loop(topo::NodeId node) const { return state_[root(node)].loop; }
  bool blackhole(topo::NodeId node) const {
    return state_[root(node)].blackhole;
  }

 private:
  struct State {
    int index = -1;  // -1: not visited
    int low = 0;
    topo::NodeId root = 0;  // once its component completed
    bool on_stack = false;
    bool loop = false;       // set on a component's root
    bool blackhole = false;  // likewise
  };

  void enter(topo::NodeId v) {
    state_[v].index = state_[v].low = next_index_++;
    state_[v].on_stack = true;
    stack_.push_back(v);
    frames_.emplace_back(v, open_.first[v]);
  }

  /// Pops the component rooted at `root` and closes its answer over its
  /// members and the completed components they reach.
  void complete(topo::NodeId root) {
    size_t begin = stack_.size();
    do {
      --begin;
      state_[stack_[begin]].on_stack = false;
      state_[stack_[begin]].root = root;
    } while (stack_[begin] != root);
    DynamicBitset& delivered = rows_[root];
    delivered.clear();
    State& answer = state_[root];
    answer.loop = stack_.size() - begin > 1;
    for (size_t i = begin; i < stack_.size(); ++i) {
      const topo::NodeId v = stack_[i];
      switch (graph_.verdicts[v].kind) {
        case NodeVerdict::Kind::kLocal:
          delivered.set(v);
          break;
        case NodeVerdict::Kind::kDrop:
          answer.blackhole = true;
          break;
        case NodeVerdict::Kind::kForward: {
          // A forwarding entry whose every hop is filtered or down drops.
          bool any_out = false;
          for (uint32_t e = open_.first[v]; e < open_.first[v + 1]; ++e) {
            const Edge& edge = open_.edges[e];
            if (!edge.permitted) continue;
            any_out = true;
            const topo::NodeId to = state_[edge.next].root;
            if (to == root) continue;
            delivered |= rows_[to];
            answer.loop = answer.loop || state_[to].loop;
            answer.blackhole = answer.blackhole || state_[to].blackhole;
          }
          if (!any_out) answer.blackhole = true;
          break;
        }
      }
    }
    stack_.resize(begin);
  }

  const EcGraph& graph_;
  const OpenEdges& open_;
  std::vector<DynamicBitset>& rows_;
  std::vector<State> state_;  // by node
  std::vector<topo::NodeId> stack_;
  std::vector<std::pair<topo::NodeId, uint32_t>> frames_;  // (node, edge)
  int next_index_ = 0;
};

/// Sizes `bits` to n cleared bits, reusing its storage.
void reset(DynamicBitset& bits, size_t n) {
  if (bits.size() == n) {
    bits.clear();
  } else {
    bits = DynamicBitset(n);
  }
}

}  // namespace

void compute_reach(const EcGraph& graph, Ipv4Addr rep,
                   const EdgeTable& edges, EcReach& reach) {
  const size_t n = graph.verdicts.size();
  reach.delivered.resize(n);
  for (DynamicBitset& row : reach.delivered) reset(row, n);
  reset(reach.loop, n);
  reset(reach.blackhole, n);
  OpenEdges open(graph, edges);

  if (open.lists.empty()) {
    // Every source sees the same edges: one pass, with each component's
    // delivered set kept in its root's own row.
    SccPass scc(graph, open, reach.delivered);
    for (topo::NodeId src = 0; src < n; ++src) scc.run(src);
    for (topo::NodeId src = 0; src < n; ++src) {
      const topo::NodeId root = scc.root(src);
      if (root != src) reach.delivered[src] = reach.delivered[root];
      if (scc.loop(src)) reach.loop.set(src);
      if (scc.blackhole(src)) reach.blackhole.set(src);
    }
    return;
  }

  // Group sources by their verdicts on the bound rule lists: sources with
  // the same verdicts see the same permitted edges.
  std::vector<std::vector<char>> verdicts;  // by group
  std::vector<std::vector<topo::NodeId>> members;
  std::vector<char> mine(open.lists.size());
  for (topo::NodeId src = 0; src < n; ++src) {
    const Probe probe{edges.probe_sources[src], rep};
    for (size_t i = 0; i < open.lists.size(); ++i) {
      mine[i] = rules_permit(*open.lists[i], probe);
    }
    const auto it = std::find(verdicts.begin(), verdicts.end(), mine);
    if (it == verdicts.end()) {
      verdicts.push_back(mine);
      members.push_back({src});
    } else {
      members[it - verdicts.begin()].push_back(src);
    }
  }
  std::vector<DynamicBitset> rows(n, DynamicBitset(n));
  for (size_t group = 0; group < verdicts.size(); ++group) {
    const std::vector<char>& pass = verdicts[group];
    for (Edge& edge : open.edges) {
      edge.permitted =
          (edge.out < 0 || pass[edge.out]) && (edge.in < 0 || pass[edge.in]);
    }
    SccPass scc(graph, open, rows);
    for (topo::NodeId src : members[group]) {
      scc.run(src);
      reach.delivered[src] = rows[scc.root(src)];
      if (scc.loop(src)) reach.loop.set(src);
      if (scc.blackhole(src)) reach.blackhole.set(src);
    }
  }
}

}  // namespace dna::dp
