// OSPF model: route semantics on known topologies, ECMP, and the headline
// property that incremental updates equal a fresh build.
#include <gtest/gtest.h>

#include "controlplane/ospf.h"
#include "topo/generators.h"
#include "topo/mutators.h"
#include "util/rng.h"

namespace dna::cp {
namespace {

using topo::NodeId;
using topo::Snapshot;

/// Fresh build for comparison.
std::vector<std::map<Ipv4Prefix, OspfRoute>> all_routes(
    const Snapshot& snap) {
  OspfModel model;
  model.build(snap);
  std::vector<std::map<Ipv4Prefix, OspfRoute>> out;
  for (NodeId node = 0; node < snap.topology.num_nodes(); ++node) {
    out.push_back(model.routes(node));
  }
  return out;
}

TEST(Ospf, LineTopologyMetrics) {
  Snapshot snap = topo::make_line(3);  // r0 - r1 - r2, cost 10 per hop
  OspfModel model;
  model.build(snap);

  // r0 reaches r2's loopback with metric 10 (to r1) + 10 (to r2) ... the
  // advertised loopback cost is the interface cost (10 by default).
  const NodeId r0 = snap.topology.node_id("r0");
  const NodeId r2 = snap.topology.node_id("r2");
  Ipv4Prefix lo2(snap.config_of(r2).interfaces[0].address, 32);
  auto it = model.routes(r0).find(lo2);
  ASSERT_NE(it, model.routes(r0).end());
  // dist(r0,r2)=20, advertised at loopback cost 10 -> 30.
  EXPECT_EQ(it->second.metric, 30);
  ASSERT_EQ(it->second.hops.size(), 1u);
  EXPECT_EQ(it->second.hops[0].next, snap.topology.node_id("r1"));

  // A node never installs an OSPF route for a prefix it advertises.
  Ipv4Prefix lo0(snap.config_of(r0).interfaces[0].address, 32);
  EXPECT_EQ(model.routes(r0).count(lo0), 0u);
}

TEST(Ospf, RingEcmp) {
  Snapshot snap = topo::make_ring(4);  // equal costs: two paths to opposite
  OspfModel model;
  model.build(snap);
  const NodeId r0 = snap.topology.node_id("r0");
  const NodeId r2 = snap.topology.node_id("r2");
  Ipv4Prefix lo2(snap.config_of(r2).interfaces[0].address, 32);
  auto it = model.routes(r0).find(lo2);
  ASSERT_NE(it, model.routes(r0).end());
  EXPECT_EQ(it->second.hops.size(), 2u);  // ECMP via both neighbors
}

TEST(Ospf, PassiveInterfaceFormsNoAdjacencyButAdvertises) {
  Snapshot snap = topo::make_line(2);
  // Make r0's link interface passive: adjacency breaks entirely.
  for (auto& iface : snap.config_of("r0").interfaces) {
    if (iface.name != "lo") iface.ospf_passive = true;
  }
  OspfModel model;
  model.build(snap);
  const NodeId r1 = snap.topology.node_id("r1");
  EXPECT_TRUE(model.routes(r1).empty());
}

TEST(Ospf, LinkDownRemovesRoutes) {
  Snapshot snap = topo::make_line(3);
  Snapshot broken = topo::with_link_state(snap, 0, false);
  OspfModel model;
  model.build(broken);
  const NodeId r0 = snap.topology.node_id("r0");
  EXPECT_TRUE(model.routes(r0).empty());
  // r1 and r2 still see each other.
  const NodeId r1 = snap.topology.node_id("r1");
  EXPECT_FALSE(model.routes(r1).empty());
}

TEST(Ospf, RedistributeStatic) {
  Snapshot snap = topo::make_line(2);
  Ipv4Prefix external(Ipv4Addr(203, 0, 113, 0), 24);
  snap.config_of("r0").static_routes.push_back(
      {external, Ipv4Addr(10, 0, 0, 2)});
  snap.config_of("r0").ospf.redistribute_static = true;
  OspfModel model;
  model.build(snap);
  const NodeId r1 = snap.topology.node_id("r1");
  auto it = model.routes(r1).find(external);
  ASSERT_NE(it, model.routes(r1).end());
  EXPECT_EQ(it->second.metric, 10 + 20);  // dist + redistribution cost
}

TEST(Ospf, IncrementalCostChangeMatchesFreshBuild) {
  Snapshot snap = topo::make_ring(6);
  OspfModel model;
  model.build(snap);
  Snapshot changed = topo::with_link_cost(snap, 2, 55);
  std::set<NodeId> dirty = nodes_of(model.update(changed));
  EXPECT_FALSE(dirty.empty());
  auto expected = all_routes(changed);
  for (NodeId node = 0; node < changed.topology.num_nodes(); ++node) {
    EXPECT_EQ(model.routes(node), expected[node]) << "node " << node;
  }
}

TEST(Ospf, IncrementalReportsNoDirtForIrrelevantChange) {
  Snapshot snap = topo::make_ring(6);
  OspfModel model;
  model.build(snap);
  // An ACL change does not touch OSPF inputs at all.
  Snapshot changed =
      topo::with_acl_block(snap, "r0", Ipv4Prefix(Ipv4Addr(172, 31, 1, 0), 24));
  std::set<NodeId> dirty = nodes_of(model.update(changed));
  EXPECT_TRUE(dirty.empty());
}

class OspfChurn : public ::testing::TestWithParam<const char*> {};

TEST_P(OspfChurn, IncrementalEqualsFreshBuildUnderRandomChanges) {
  std::string which = GetParam();
  Rng rng(0x05bf + which.size());
  Snapshot snap;
  if (which == "ring") snap = topo::make_ring(8);
  if (which == "grid") snap = topo::make_grid(3, 3);
  if (which == "fattree") snap = topo::make_fattree(4);
  if (which == "random") snap = topo::make_random(10, 18, rng);

  OspfModel model;
  model.build(snap);

  for (int step = 0; step < 40; ++step) {
    topo::RandomChange change = topo::random_change(snap, rng);
    snap = std::move(change.snapshot);
    model.update(snap);
    auto expected = all_routes(snap);
    for (NodeId node = 0; node < snap.topology.num_nodes(); ++node) {
      ASSERT_EQ(model.routes(node), expected[node])
          << which << " step " << step << " (" << change.description
          << ") node " << snap.topology.node_name(node);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, OspfChurn,
                         ::testing::Values("ring", "grid", "fattree",
                                           "random"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dna::cp
