// Property queries and invariants: reachability, isolation, loop/blackhole
// freedom, and waypoint enforcement.
#include <gtest/gtest.h>

#include "controlplane/engine.h"
#include "core/invariants.h"
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
  const topo::Snapshot& current() const { return engine->snapshot(); }
};

Ipv4Prefix host(int i) {
  return Ipv4Prefix(Ipv4Addr(172, 31, static_cast<uint8_t>(i), 0), 24);
}

TEST(Properties, ReachAndIsolationOnLine) {
  Fixture fx(topo::make_line(4));  // host(0) at r0, host(1) at r3
  auto id = [&](const char* name) {
    return fx.current().topology.node_id(name);
  };
  EXPECT_TRUE(dp::all_reach(*fx.verifier, id("r0"), id("r3"), host(1)));
  EXPECT_TRUE(dp::any_reach(*fx.verifier, id("r0"), id("r3"), host(1)));
  EXPECT_FALSE(dp::isolated(*fx.verifier, id("r0"), id("r3"), host(1)));
  // r0 does not deliver host(1) locally.
  EXPECT_FALSE(dp::any_reach(*fx.verifier, id("r3"), id("r0"), host(1)));
  EXPECT_TRUE(dp::loop_free(*fx.verifier, Ipv4Prefix()));
  EXPECT_TRUE(dp::blackhole_free(*fx.verifier, id("r0"), host(1)));
}

TEST(Properties, WaypointOnLineHoldsAndBreaksWithDetour) {
  Fixture fx(topo::make_line(4));
  auto id = [&](const char* name) {
    return fx.current().topology.node_id(name);
  };
  // All r0 -> r3 traffic passes r1 and r2 on a line.
  EXPECT_TRUE(dp::waypoint_enforced(*fx.verifier, id("r0"), id("r3"), id("r1"),
                                    host(1)));
  EXPECT_TRUE(dp::waypoint_enforced(*fx.verifier, id("r0"), id("r3"), id("r2"),
                                    host(1)));
}

TEST(Properties, WaypointNotEnforcedWithEcmpDetour) {
  Fixture fx(topo::make_ring(4));  // r0 -> r2 via r1 or r3
  auto id = [&](const char* name) {
    return fx.current().topology.node_id(name);
  };
  EXPECT_FALSE(dp::waypoint_enforced(*fx.verifier, id("r0"), id("r2"),
                                     id("r1"), host(1)));
}

TEST(Invariants, DescribeAndEvaluate) {
  Fixture fx(topo::make_line(3));
  Invariant reach{Invariant::Kind::kReachable, "r0", "r2", "", host(1)};
  EXPECT_NE(reach.describe().find("r0"), std::string::npos);
  EXPECT_TRUE(eval_invariant(reach, fx.current(), *fx.verifier));

  Invariant iso{Invariant::Kind::kIsolated, "r0", "r2", "", host(1)};
  EXPECT_FALSE(eval_invariant(iso, fx.current(), *fx.verifier));

  Invariant loops{Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()};
  EXPECT_TRUE(eval_invariant(loops, fx.current(), *fx.verifier));

  Invariant bh{Invariant::Kind::kBlackholeFree, "r0", "", "", host(1)};
  EXPECT_TRUE(eval_invariant(bh, fx.current(), *fx.verifier));

  Invariant way{Invariant::Kind::kWaypoint, "r0", "r2", "r1", host(1)};
  EXPECT_TRUE(eval_invariant(way, fx.current(), *fx.verifier));

  // Unknown node names fail closed.
  Invariant bogus{Invariant::Kind::kReachable, "nope", "r2", "", host(1)};
  EXPECT_FALSE(eval_invariant(bogus, fx.current(), *fx.verifier));
}

TEST(Invariants, AclBreaksReachability) {
  Fixture fx(topo::with_acl_block(topo::make_line(3), "r1", host(1)));
  auto id = [&](const char* name) {
    return fx.current().topology.node_id(name);
  };
  EXPECT_FALSE(dp::any_reach(*fx.verifier, id("r0"), id("r2"), host(1)));
  EXPECT_FALSE(dp::blackhole_free(*fx.verifier, id("r0"), host(1)));
}

}  // namespace
}  // namespace dna::core
