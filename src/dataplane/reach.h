// Per-EC reachability: one pass over an EC's forwarding graph answers every
// source.
//
// compute_reach runs Tarjan's SCC algorithm over the graph's permitted
// edges. Tarjan completes a component only after every component it
// reaches, so each component's delivered set, loop flag and blackhole flag
// close in that same pass. A source takes its component's answer: it loops
// exactly when it reaches a component of more than one node
// (Topology::add_link rejects self-links, so no one-node cycle exists).
//
// An ACL's verdict depends on the probe's source address. Sources are
// therefore first grouped by their verdicts on the rule lists bound along
// the EC's edges, and the pass runs once per group; an EC with no ACL-bound
// edge takes one pass.
//
// Besides the graph, the pass reads an EdgeTable: whether each link is up
// and both its interfaces enabled, the rule lists bound on each link
// direction, and each node's probe source. The verifier compiles it from
// its config caches, so the pass does no name lookup.
#pragma once

#include "dataplane/acl_eval.h"
#include "dataplane/fwdgraph.h"
#include "util/bitset.h"

namespace dna::dp {

/// Reachability of one EC from every ingress node.
struct EcReach {
  /// delivered[src].test(dst): a probe injected at src (with src's probe
  /// address) is delivered locally at dst.
  std::vector<DynamicBitset> delivered;
  DynamicBitset loop;       // by src: a forwarding cycle is reachable
  DynamicBitset blackhole;  // by src: a drop (no route / ACL / dead end)
                            // is reachable

  bool operator==(const EcReach&) const = default;
};

using AclRules = std::vector<config::AclRule>;

/// What a probe crossing a link direction reads, compiled from configs.
struct EdgeTable {
  /// The sender's acl-out and the receiver's acl-in; null permits all.
  struct Acls {
    const AclRules* out = nullptr;
    const AclRules* in = nullptr;
  };

  const topo::Topology* topology = nullptr;  // link up, by link index
  std::vector<bool> links_enabled;  // by link: both interfaces enabled
  std::vector<Acls> acls;  // by direction: 2 * link, plus 1 from the b end
  std::vector<Ipv4Addr> probe_sources;  // by node

  /// Whether the link is up and both its interfaces are enabled.
  bool open(uint32_t link) const {
    return topology->links()[link].up && links_enabled[link];
  }
  /// The rule lists bound on u -> hop.next.
  const Acls& acls_on(topo::NodeId u, const cp::Hop& hop) const {
    return acls[2 * hop.link + (topology->links()[hop.link].a == u ? 0 : 1)];
  }
  /// Whether a probe crosses u -> hop.next: the link is open and both
  /// bound rule lists permit it.
  bool permits(topo::NodeId u, const cp::Hop& hop, const Probe& probe) const;
  /// Whether some link direction binds a rule list: the only place a
  /// probe's source address is read.
  bool binds_acl() const;
};

/// Overwrites `reach` with every source's reachability in the EC whose
/// representative address is `rep`, reusing its storage: one pass per
/// group of sources (see the header comment).
void compute_reach(const EcGraph& graph, Ipv4Addr rep, const EdgeTable& edges,
                   EcReach& reach);

}  // namespace dna::dp
