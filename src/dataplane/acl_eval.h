// ACL evaluation for representative probe packets.
//
// Probes carry a concrete (src, dst) address pair and wildcard L4 fields;
// rules constrained on protocol or ports therefore never match a probe
// (DESIGN.md documents this representative-packet model — exact for the
// src/dst-prefix ACLs the workload generators produce).
#pragma once

#include <vector>

#include "config/model.h"
#include "util/ip.h"

namespace dna::dp {

struct Probe {
  Ipv4Addr src;
  Ipv4Addr dst;
};

/// First-match evaluation of a rule list with implicit deny.
bool rules_permit(const std::vector<config::AclRule>& rules,
                  const Probe& probe);

/// rules_permit over the ACL named `acl_name` in `cfg`. An empty name or a
/// dangling reference permits everything (no filter attached).
bool acl_permits(const config::NodeConfig& cfg, const std::string& acl_name,
                 const Probe& probe);

/// The address a node sources probes from: its loopback if present, else
/// its first enabled interface, else 0.0.0.0.
Ipv4Addr probe_source_address(const config::NodeConfig& cfg);

}  // namespace dna::dp
