// Forwarding-path extraction and differential path analysis.
#include <gtest/gtest.h>

#include "controlplane/engine.h"
#include "core/paths.h"
#include "topo/generators.h"
#include "topo/mutators.h"

namespace dna::core {
namespace {

using topo::Snapshot;

struct Fixture {
  Snapshot snap;
  std::unique_ptr<cp::ControlPlaneEngine> engine;
  std::unique_ptr<dp::Verifier> verifier;

  explicit Fixture(Snapshot s) : snap(std::move(s)) {
    engine = std::make_unique<cp::ControlPlaneEngine>(snap);
    verifier =
        std::make_unique<dp::Verifier>(&engine->snapshot(), &engine->fibs());
  }
};

TEST(Paths, LineHasExactlyOnePath) {
  Fixture fx(topo::make_line(4));
  auto paths = forwarding_paths(*fx.verifier, fx.snap.topology.node_id("r0"),
                                Ipv4Addr(172, 31, 1, 5));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].outcome, ForwardingPath::Outcome::kDelivered);
  ASSERT_EQ(paths[0].nodes.size(), 4u);
  EXPECT_EQ(paths[0].nodes.front(), fx.snap.topology.node_id("r0"));
  EXPECT_EQ(paths[0].nodes.back(), fx.snap.topology.node_id("r3"));
  EXPECT_NE(paths[0].str(fx.snap.topology).find("delivered"),
            std::string::npos);
}

TEST(Paths, RingEcmpYieldsTwoPaths) {
  Fixture fx(topo::make_ring(4));
  auto paths = forwarding_paths(*fx.verifier, fx.snap.topology.node_id("r0"),
                                Ipv4Addr(172, 31, 1, 9));
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].nodes, paths[1].nodes);
  for (const auto& path : paths) {
    EXPECT_EQ(path.outcome, ForwardingPath::Outcome::kDelivered);
  }
}

TEST(Paths, NoRouteReportsDrop) {
  Fixture fx(topo::make_line(2));
  auto paths = forwarding_paths(*fx.verifier, fx.snap.topology.node_id("r0"),
                                Ipv4Addr(8, 8, 8, 8));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].outcome, ForwardingPath::Outcome::kDropped);
}

TEST(Paths, StaticLoopReportsLoop) {
  Snapshot snap = topo::make_line(2);
  const topo::Link& link = snap.topology.link(0);
  Ipv4Addr a_addr = snap.configs[link.a].find_interface(link.a_if)->address;
  Ipv4Addr b_addr = snap.configs[link.b].find_interface(link.b_if)->address;
  Ipv4Prefix bogus(Ipv4Addr(198, 18, 0, 0), 15);
  snap = topo::with_static_route(snap, "r0", bogus, b_addr);
  snap = topo::with_static_route(snap, "r1", bogus, a_addr);
  Fixture fx(std::move(snap));
  auto paths = forwarding_paths(*fx.verifier, fx.snap.topology.node_id("r0"),
                                Ipv4Addr(198, 18, 0, 1));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].outcome, ForwardingPath::Outcome::kLooped);
}

TEST(Paths, DiffShowsReroute) {
  Snapshot base = topo::make_ring(6);
  Fixture before(base);
  auto src = base.topology.node_id("r0");
  Ipv4Addr dst(172, 31, 1, 7);  // hosted at r3
  auto paths_before = forwarding_paths(*before.verifier, src, dst);

  Fixture after(topo::with_link_cost(base, 0, 90));
  auto paths_after = forwarding_paths(*after.verifier, src, dst);

  PathDiff diff = diff_paths(paths_before, paths_after);
  EXPECT_FALSE(diff.empty());
  // The rerouted path avoids the expensive r0-r1 link.
  for (const auto& path : diff.added) {
    ASSERT_GE(path.nodes.size(), 2u);
    EXPECT_EQ(path.nodes[1], base.topology.node_id("r5"));
  }
  EXPECT_TRUE(diff_paths(paths_before, paths_before).empty());
}

TEST(Paths, MaxPathsTruncatesEnumeration) {
  Fixture fx(topo::make_fattree(4));
  // Edge-to-edge across pods: 2 aggs x 2 cores x ... several ECMP paths.
  auto all = forwarding_paths(*fx.verifier, fx.snap.topology.node_id("sw0"),
                              Ipv4Addr(172, 31, 7, 1), 64);
  auto capped = forwarding_paths(*fx.verifier, fx.snap.topology.node_id("sw0"),
                                 Ipv4Addr(172, 31, 7, 1), 2);
  EXPECT_GT(all.size(), 2u);
  EXPECT_EQ(capped.size(), 2u);
}

}  // namespace
}  // namespace dna::core
