#include "controlplane/route.h"

#include <algorithm>

namespace dna::cp {

int admin_distance(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected:
      return 0;
    case Protocol::kStatic:
      return 1;
    case Protocol::kEbgp:
      return 20;
    case Protocol::kOspf:
      return 110;
    case Protocol::kIbgp:
      return 200;
  }
  return 255;
}

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected:
      return "connected";
    case Protocol::kStatic:
      return "static";
    case Protocol::kEbgp:
      return "ebgp";
    case Protocol::kOspf:
      return "ospf";
    case Protocol::kIbgp:
      return "ibgp";
  }
  return "?";
}

std::string FibEntry::str(const topo::Topology& topology) const {
  std::string out = prefix.str();
  out += " [";
  out += protocol_name(protocol);
  out += "]";
  if (action == Action::kLocal) {
    out += " local";
  } else {
    out += " ->";
    for (const Hop& hop : hops) {
      out += " ";
      out += topology.node_name(hop.next);
      out += "(link";
      out += std::to_string(hop.link);
      out += ")";
    }
  }
  return out;
}

std::set<topo::NodeId> nodes_of(const std::vector<RouteKey>& keys) {
  std::set<topo::NodeId> nodes;
  for (const RouteKey& key : keys) nodes.insert(key.first);
  return nodes;
}

bool FibDelta::empty() const {
  for (const auto& [node, delta] : by_node) {
    if (!delta.empty()) return false;
  }
  return true;
}

size_t FibDelta::total_changes() const {
  size_t n = 0;
  for (const auto& [node, delta] : by_node) {
    n += delta.added.size() + delta.removed.size();
  }
  return n;
}

NodeFibDelta diff_fib(const Fib& before, const Fib& after) {
  NodeFibDelta delta;
  // Both FIBs are sorted; a merge pass finds symmetric differences.
  size_t i = 0, j = 0;
  while (i < before.size() || j < after.size()) {
    if (i == before.size()) {
      delta.added.push_back(after[j++]);
    } else if (j == after.size()) {
      delta.removed.push_back(before[i++]);
    } else if (before[i] == after[j]) {
      ++i;
      ++j;
    } else if (before[i] < after[j]) {
      delta.removed.push_back(before[i++]);
    } else {
      delta.added.push_back(after[j++]);
    }
  }
  return delta;
}

FibDelta diff_fibs(const std::vector<Fib>& before,
                   const std::vector<Fib>& after) {
  FibDelta delta;
  const size_t n = std::max(before.size(), after.size());
  static const Fib kEmpty;
  for (size_t node = 0; node < n; ++node) {
    const Fib& b = node < before.size() ? before[node] : kEmpty;
    const Fib& a = node < after.size() ? after[node] : kEmpty;
    NodeFibDelta d = diff_fib(b, a);
    if (!d.empty()) {
      delta.by_node.emplace(static_cast<topo::NodeId>(node), std::move(d));
    }
  }
  return delta;
}

}  // namespace dna::cp
