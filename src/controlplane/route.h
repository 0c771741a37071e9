// Route and FIB value types shared by the control plane and the data plane.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "topo/topology.h"
#include "util/ip.h"

namespace dna::cp {

enum class Protocol : uint8_t {
  kConnected,
  kStatic,
  kEbgp,
  kOspf,
  kIbgp,
};

/// Administrative distance: lower wins when protocols disagree on a prefix.
int admin_distance(Protocol protocol);
const char* protocol_name(Protocol protocol);

/// One forwarding next hop: the adjacent node reached over a specific link.
struct Hop {
  topo::NodeId next = topo::kNoNode;
  uint32_t link = 0;

  auto operator<=>(const Hop&) const = default;
};

struct FibEntry {
  Ipv4Prefix prefix;
  enum class Action : uint8_t { kLocal, kForward } action = Action::kForward;
  Protocol protocol = Protocol::kConnected;
  int metric = 0;
  std::vector<Hop> hops;  // sorted; empty for kLocal

  auto operator<=>(const FibEntry&) const = default;

  std::string str(const topo::Topology& topology) const;
};

/// A node's forwarding table: sorted by prefix, one entry per prefix.
using Fib = std::vector<FibEntry>;

/// One node's route to one prefix: the unit in which the control-plane
/// stages report what they changed, and in which FIBs are patched.
using RouteKey = std::pair<topo::NodeId, Ipv4Prefix>;

/// The nodes among `keys`.
std::set<topo::NodeId> nodes_of(const std::vector<RouteKey>& keys);

struct NodeFibDelta {
  std::vector<FibEntry> added;
  std::vector<FibEntry> removed;

  bool empty() const { return added.empty() && removed.empty(); }
};

/// FIB changes across the network, keyed by node.
struct FibDelta {
  std::map<topo::NodeId, NodeFibDelta> by_node;

  bool empty() const;
  size_t total_changes() const;
};

/// Set-difference of two FIBs (entries compared exactly).
NodeFibDelta diff_fib(const Fib& before, const Fib& after);
FibDelta diff_fibs(const std::vector<Fib>& before,
                   const std::vector<Fib>& after);

}  // namespace dna::cp
