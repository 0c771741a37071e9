#include "dataplane/acl_eval.h"

namespace dna::dp {

bool rules_permit(const std::vector<config::AclRule>& rules,
                  const Probe& probe) {
  for (const config::AclRule& rule : rules) {
    if (rule.proto >= 0 || rule.dst_port_lo >= 0) continue;  // L4: no match
    if (!rule.src.contains(probe.src)) continue;
    if (!rule.dst.contains(probe.dst)) continue;
    return rule.action == config::FilterAction::kPermit;
  }
  return false;  // implicit deny
}

bool acl_permits(const config::NodeConfig& cfg, const std::string& acl_name,
                 const Probe& probe) {
  if (acl_name.empty()) return true;
  const config::AclConfig* acl = cfg.find_acl(acl_name);
  // A dangling reference attaches no filter.
  return !acl || rules_permit(acl->rules, probe);
}

Ipv4Addr probe_source_address(const config::NodeConfig& cfg) {
  for (const auto& iface : cfg.interfaces) {
    if (iface.name == "lo" && iface.enabled) return iface.address;
  }
  for (const auto& iface : cfg.interfaces) {
    if (iface.enabled) return iface.address;
  }
  return Ipv4Addr();
}

}  // namespace dna::dp
