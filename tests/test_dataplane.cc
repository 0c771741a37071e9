// Data-plane primitives: LPM, equivalence classes, ACL evaluation, and
// reachability semantics (delivery, ECMP, loops, blackholes).
#include <gtest/gtest.h>

#include <memory>

#include "controlplane/engine.h"
#include "dataplane/acl_eval.h"
#include "dataplane/ectrie.h"
#include "dataplane/verifier.h"
#include "topo/generators.h"
#include "topo/mutators.h"
#include "util/rng.h"

namespace dna::dp {
namespace {

using topo::Snapshot;

TEST(Lpm, PrefersLongestMatch) {
  cp::Fib fib = {
      {Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 8), cp::FibEntry::Action::kForward,
       cp::Protocol::kStatic, 0, {{1, 0}}},
      {Ipv4Prefix(Ipv4Addr(10, 1, 0, 0), 16), cp::FibEntry::Action::kForward,
       cp::Protocol::kStatic, 0, {{2, 1}}},
      {Ipv4Prefix(), cp::FibEntry::Action::kForward, cp::Protocol::kStatic, 0,
       {{3, 2}}},
  };
  std::sort(fib.begin(), fib.end());
  LpmTable lpm(fib);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 1, 2, 3))->hops[0].next, 2u);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 2, 0, 0))->hops[0].next, 1u);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(8, 8, 8, 8))->hops[0].next, 3u);
}

TEST(Lpm, MatchesLinearScanOnRandomTables) {
  Rng rng(0x17a);
  cp::Fib fib;
  for (int i = 0; i < 60; ++i) {
    Ipv4Prefix prefix(
        Ipv4Addr(static_cast<uint32_t>(rng.next())),
        static_cast<uint8_t>(rng.range(8, 30)));
    fib.push_back({prefix, cp::FibEntry::Action::kForward,
                   cp::Protocol::kStatic, 0,
                   {{static_cast<topo::NodeId>(i), 0}}});
  }
  std::sort(fib.begin(), fib.end());
  fib.erase(std::unique(fib.begin(), fib.end(),
                        [](const auto& a, const auto& b) {
                          return a.prefix == b.prefix;
                        }),
            fib.end());
  LpmTable lpm(fib);
  for (int i = 0; i < 500; ++i) {
    Ipv4Addr addr(static_cast<uint32_t>(rng.next()));
    const cp::FibEntry* expected = nullptr;
    for (const auto& entry : fib) {
      if (!entry.prefix.contains(addr)) continue;
      if (!expected || entry.prefix.length() > expected->prefix.length()) {
        expected = &entry;
      }
    }
    const cp::FibEntry* actual = lpm.lookup(addr);
    if (expected == nullptr) {
      EXPECT_EQ(actual, nullptr);
    } else {
      ASSERT_NE(actual, nullptr);
      EXPECT_EQ(actual->prefix, expected->prefix);
    }
  }
}

TEST(EcIndex, StartsWithOneAtomAndSplits) {
  EcIndex index;
  EXPECT_EQ(index.num_atoms(), 1u);
  auto created = index.insert_prefix(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 8));
  EXPECT_EQ(created.size(), 2u);  // both boundaries are fresh
  EXPECT_EQ(index.num_atoms(), 3u);
  // Re-inserting is a no-op.
  EXPECT_TRUE(index.insert_prefix(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 8)).empty());
}

TEST(EcIndex, AtomsPartitionTheSpace) {
  EcIndex index;
  Rng rng(0xec);
  for (int i = 0; i < 50; ++i) {
    Ipv4Prefix p(Ipv4Addr(static_cast<uint32_t>(rng.next())),
                 static_cast<uint8_t>(rng.range(4, 32)));
    (void)index.insert_prefix(p);
  }
  // Ranges must tile [0, 2^32) without gaps or overlaps.
  std::vector<EcIndex::Range> ranges;
  for (EcId ec = 0; ec < index.num_atoms(); ++ec) {
    ranges.push_back(index.range(ec));
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const auto& a, const auto& b) { return a.lo < b.lo; });
  EXPECT_EQ(ranges.front().lo, 0u);
  EXPECT_EQ(ranges.back().hi, ~0u);
  for (size_t i = 0; i + 1 < ranges.size(); ++i) {
    ASSERT_EQ(static_cast<uint64_t>(ranges[i].hi) + 1, ranges[i + 1].lo);
  }
}

TEST(EcIndex, CoveringReturnsOverlaps) {
  EcIndex index;
  (void)index.insert_prefix(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 8));
  (void)index.insert_prefix(Ipv4Prefix(Ipv4Addr(10, 128, 0, 0), 9));
  auto ecs = index.covering(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 8));
  EXPECT_EQ(ecs.size(), 2u);  // the /8 is split by the /9
  auto all = index.covering(Ipv4Prefix());
  EXPECT_EQ(all.size(), index.num_atoms());
}

TEST(Acl, FirstMatchWithImplicitDeny) {
  config::NodeConfig cfg;
  config::AclConfig acl;
  acl.name = "A";
  acl.rules.push_back({config::FilterAction::kDeny,
                       Ipv4Prefix(Ipv4Addr(192, 168, 0, 0), 16),
                       Ipv4Prefix(), -1, -1, -1});
  acl.rules.push_back({config::FilterAction::kPermit, Ipv4Prefix(),
                       Ipv4Prefix(Ipv4Addr(172, 31, 0, 0), 16), -1, -1, -1});
  cfg.acls.push_back(acl);

  // Denied source.
  EXPECT_FALSE(acl_permits(cfg, "A",
                           {Ipv4Addr(192, 168, 1, 1), Ipv4Addr(172, 31, 1, 1)}));
  // Permitted dst from other source.
  EXPECT_TRUE(acl_permits(cfg, "A",
                          {Ipv4Addr(10, 0, 0, 1), Ipv4Addr(172, 31, 1, 1)}));
  // Implicit deny: dst outside the permit rule.
  EXPECT_FALSE(acl_permits(cfg, "A",
                           {Ipv4Addr(10, 0, 0, 1), Ipv4Addr(8, 8, 8, 8)}));
  // No ACL bound or dangling name: permit.
  EXPECT_TRUE(acl_permits(cfg, "", {Ipv4Addr(), Ipv4Addr()}));
  EXPECT_TRUE(acl_permits(cfg, "MISSING", {Ipv4Addr(), Ipv4Addr()}));
}

TEST(Acl, L4RulesNeverMatchProbes) {
  config::NodeConfig cfg;
  config::AclConfig acl;
  acl.name = "A";
  acl.rules.push_back({config::FilterAction::kDeny, Ipv4Prefix(), Ipv4Prefix(),
                       6, -1, -1});  // deny all tcp
  acl.rules.push_back(
      {config::FilterAction::kPermit, Ipv4Prefix(), Ipv4Prefix(), -1, -1, -1});
  cfg.acls.push_back(acl);
  // The probe carries wildcard L4 fields, so only the permit matches.
  EXPECT_TRUE(acl_permits(cfg, "A", {Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2)}));
}

// ---------------------------------------------------------------------------
// Reachability semantics on small networks.
// ---------------------------------------------------------------------------

struct Plane {
  Snapshot snap;
  std::vector<cp::Fib> fibs;
  std::unique_ptr<Verifier> verifier;

  explicit Plane(Snapshot s) : snap(std::move(s)) {
    fibs = cp::ControlPlaneEngine::compute_fibs(snap);
    verifier = std::make_unique<Verifier>(&snap, &fibs);
  }

  const EcReach& reach_for(Ipv4Addr dst) const {
    return verifier->reach(
        verifier->ec_index().covering(Ipv4Prefix(dst, 32))[0]);
  }
};

TEST(Reach, LineDeliversEndToEnd) {
  Plane plane(topo::make_line(3));
  Ipv4Addr host_b(172, 31, 1, 5);  // attached to r2
  EcReach reach = plane.reach_for(host_b);
  const auto r0 = plane.snap.topology.node_id("r0");
  const auto r2 = plane.snap.topology.node_id("r2");
  EXPECT_TRUE(reach.delivered[r0].test(r2));
  EXPECT_FALSE(reach.loop.test(r0));
  EXPECT_FALSE(reach.blackhole.test(r0));
}

TEST(Reach, MissingRouteIsBlackhole) {
  Plane plane(topo::make_line(3));
  EcReach reach = plane.reach_for(Ipv4Addr(8, 8, 8, 8));  // no route anywhere
  const auto r0 = plane.snap.topology.node_id("r0");
  EXPECT_TRUE(reach.blackhole.test(r0));
  EXPECT_FALSE(reach.delivered[r0].any());
}

TEST(Reach, StaticRoutePairCreatesLoop) {
  // r0 and r1 point a bogus prefix at each other: forwarding loop.
  Snapshot snap = topo::make_line(2);
  const topo::Link& link = snap.topology.link(0);
  Ipv4Addr a_addr = snap.configs[link.a].find_interface(link.a_if)->address;
  Ipv4Addr b_addr = snap.configs[link.b].find_interface(link.b_if)->address;
  Ipv4Prefix bogus(Ipv4Addr(198, 18, 0, 0), 15);
  snap = topo::with_static_route(snap, "r0", bogus, b_addr);
  snap = topo::with_static_route(snap, "r1", bogus, a_addr);
  Plane plane(std::move(snap));
  EcReach reach = plane.reach_for(Ipv4Addr(198, 18, 1, 1));
  EXPECT_TRUE(reach.loop.test(plane.snap.topology.node_id("r0")));
  EXPECT_TRUE(reach.loop.test(plane.snap.topology.node_id("r1")));
}

TEST(Reach, AclInBlocksDelivery) {
  Snapshot snap = topo::make_line(3);
  snap = topo::with_acl_block(snap, "r1", Ipv4Prefix(Ipv4Addr(172, 31, 1, 0), 24));
  Plane plane(std::move(snap));
  EcReach reach = plane.reach_for(Ipv4Addr(172, 31, 1, 5));
  const auto r0 = plane.snap.topology.node_id("r0");
  const auto r2 = plane.snap.topology.node_id("r2");
  // r1's inbound ACL drops the probe on its way from r0.
  EXPECT_FALSE(reach.delivered[r0].test(r2));
  EXPECT_TRUE(reach.blackhole.test(r0));
  // r2 delivers its own subnet locally regardless.
  EXPECT_TRUE(reach.delivered[r2].test(r2));
}

TEST(Reach, EcmpExploresAllPaths) {
  Plane plane(topo::make_ring(4));
  // r0 -> r2 has two equal paths; delivery must hold and no loop flagged.
  Ipv4Addr host(172, 31, 1, 9);  // attached at r2 by the generator
  EcReach reach = plane.reach_for(host);
  const auto r0 = plane.snap.topology.node_id("r0");
  const auto r2 = plane.snap.topology.node_id("r2");
  EXPECT_TRUE(reach.delivered[r0].test(r2));
  EXPECT_FALSE(reach.loop.test(r0));
}

}  // namespace
}  // namespace dna::dp
