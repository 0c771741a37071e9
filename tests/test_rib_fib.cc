// RIB assembly, admin-distance merge, static resolution, FIB diffing, and
// the full control-plane engine's incremental equivalence property.
#include <gtest/gtest.h>

#include "controlplane/engine.h"
#include "topo/generators.h"
#include "topo/mutators.h"
#include "util/rng.h"

namespace dna::cp {
namespace {

using topo::NodeId;
using topo::Snapshot;

TEST(Rib, ConnectedRoutesForEnabledInterfacesOnly) {
  Snapshot snap = topo::make_line(2);
  // r0 carries lo + eth0 + host0; shutting eth0 must drop only its subnet.
  const size_t total = snap.config_of("r0").interfaces.size();
  snap.config_of("r0").find_interface("eth0")->enabled = false;
  RibCandidates out;
  add_connected_routes(snap, snap.topology.node_id("r0"), out);
  EXPECT_EQ(out.size(), total - 1);
}

TEST(Rib, StaticResolvesToAdjacentNode) {
  Snapshot snap = topo::make_line(2);
  const topo::Link& link = snap.topology.link(0);
  Ipv4Addr peer_addr =
      snap.configs[link.b].find_interface(link.b_if)->address;
  snap.config_of("r0").static_routes.push_back(
      {Ipv4Prefix(Ipv4Addr(203, 0, 113, 0), 24), peer_addr});
  RibCandidates out;
  add_static_routes(snap, snap.topology.node_id("r0"), out);
  ASSERT_EQ(out.size(), 1u);
  const FibEntry& entry = out.begin()->second[0];
  EXPECT_EQ(entry.protocol, Protocol::kStatic);
  ASSERT_EQ(entry.hops.size(), 1u);
  EXPECT_EQ(entry.hops[0].next, link.b);
}

TEST(Rib, StaticWithUnresolvableNextHopIsDropped) {
  Snapshot snap = topo::make_line(2);
  snap.config_of("r0").static_routes.push_back(
      {Ipv4Prefix(Ipv4Addr(203, 0, 113, 0), 24), Ipv4Addr(9, 9, 9, 9)});
  RibCandidates out;
  add_static_routes(snap, snap.topology.node_id("r0"), out);
  EXPECT_TRUE(out.empty());
}

TEST(Rib, StaticLosesResolutionWhenLinkDown) {
  Snapshot snap = topo::make_line(2);
  const topo::Link& link = snap.topology.link(0);
  Ipv4Addr peer_addr =
      snap.configs[link.b].find_interface(link.b_if)->address;
  snap.config_of("r0").static_routes.push_back(
      {Ipv4Prefix(Ipv4Addr(203, 0, 113, 0), 24), peer_addr});
  snap.topology.set_link_up(0, false);
  RibCandidates out;
  add_static_routes(snap, snap.topology.node_id("r0"), out);
  EXPECT_TRUE(out.empty());
}

TEST(Rib, MergePrefersLowerAdminDistance) {
  RibCandidates candidates;
  Ipv4Prefix p(Ipv4Addr(10, 0, 0, 0), 24);
  FibEntry ospf_entry{p, FibEntry::Action::kForward, Protocol::kOspf, 30,
                      {{2, 7}}};
  FibEntry static_entry{p, FibEntry::Action::kForward, Protocol::kStatic, 0,
                        {{1, 3}}};
  candidates[p] = {ospf_entry, static_entry};
  Fib fib = merge_to_fib(std::move(candidates));
  ASSERT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib[0].protocol, Protocol::kStatic);
}

TEST(Rib, MergeCombinesEcmpHopsOfEqualCandidates) {
  RibCandidates candidates;
  Ipv4Prefix p(Ipv4Addr(10, 0, 0, 0), 24);
  candidates[p].push_back(
      {p, FibEntry::Action::kForward, Protocol::kStatic, 0, {{1, 3}}});
  candidates[p].push_back(
      {p, FibEntry::Action::kForward, Protocol::kStatic, 0, {{2, 4}}});
  Fib fib = merge_to_fib(std::move(candidates));
  ASSERT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib[0].hops.size(), 2u);
}

TEST(Rib, AdminDistanceOrdering) {
  EXPECT_LT(admin_distance(Protocol::kConnected),
            admin_distance(Protocol::kStatic));
  EXPECT_LT(admin_distance(Protocol::kStatic),
            admin_distance(Protocol::kEbgp));
  EXPECT_LT(admin_distance(Protocol::kEbgp), admin_distance(Protocol::kOspf));
  EXPECT_LT(admin_distance(Protocol::kOspf), admin_distance(Protocol::kIbgp));
}

TEST(FibDiff, SymmetricDifference) {
  Ipv4Prefix p1(Ipv4Addr(10, 0, 0, 0), 24);
  Ipv4Prefix p2(Ipv4Addr(10, 0, 1, 0), 24);
  Fib before = {{p1, FibEntry::Action::kLocal, Protocol::kConnected, 0, {}}};
  Fib after = {{p1, FibEntry::Action::kLocal, Protocol::kConnected, 0, {}},
               {p2, FibEntry::Action::kForward, Protocol::kOspf, 10, {{1, 0}}}};
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  NodeFibDelta delta = diff_fib(before, after);
  EXPECT_EQ(delta.added.size(), 1u);
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(delta.added[0].prefix, p2);

  NodeFibDelta reverse = diff_fib(after, before);
  EXPECT_EQ(reverse.removed.size(), 1u);
  EXPECT_TRUE(reverse.added.empty());
}

TEST(Engine, FullBuildProducesFibs) {
  Snapshot snap = topo::make_fattree(4);
  ControlPlaneEngine engine(snap);
  EXPECT_EQ(engine.fibs().size(), snap.topology.num_nodes());
  for (const Fib& fib : engine.fibs()) {
    EXPECT_FALSE(fib.empty());
    EXPECT_TRUE(std::is_sorted(fib.begin(), fib.end()));
  }
}

TEST(Engine, AdvanceReportsFibDeltaForCostChange) {
  Snapshot snap = topo::make_ring(6);
  ControlPlaneEngine engine(snap);
  Snapshot changed = topo::with_link_cost(snap, 0, 100);
  AdvanceResult result = engine.advance(changed);
  EXPECT_FALSE(result.config_changes.empty());
  EXPECT_FALSE(result.fib_delta.empty());
  EXPECT_FALSE(result.rebuilt);
  EXPECT_EQ(engine.fibs(), ControlPlaneEngine::compute_fibs(changed));
}

TEST(Engine, NoopAdvanceIsEmpty) {
  Snapshot snap = topo::make_ring(4);
  ControlPlaneEngine engine(snap);
  AdvanceResult result = engine.advance(snap);
  EXPECT_TRUE(result.config_changes.empty());
  EXPECT_TRUE(result.link_changes.empty());
  EXPECT_TRUE(result.fib_delta.empty());
  EXPECT_EQ(engine.last_fib_merges(), 0u);
}

TEST(Engine, StaticRouteReMergesOnePairWhateverTheNetworkSize) {
  // No process redistributes statics, so the route feeds one FIB entry.
  // A whole-table rebuild would redo 60 entries on fattree:4 and 368 on
  // fattree:8.
  for (int k : {4, 8}) {
    Snapshot snap = topo::make_fattree(k);
    ControlPlaneEngine engine(snap);
    const topo::Link& link = snap.topology.link(0);
    Snapshot changed = topo::with_static_route(
        snap, snap.topology.node_name(link.a),
        Ipv4Prefix(Ipv4Addr(198, 18, 0, 0), 24),
        snap.configs[link.b].find_interface(link.b_if)->address);
    AdvanceResult result = engine.advance(changed);
    EXPECT_EQ(engine.last_fib_merges(), 1u) << "fattree:" << k;
    EXPECT_EQ(result.fib_delta.total_changes(), 1u) << "fattree:" << k;
    EXPECT_EQ(engine.fibs(), ControlPlaneEngine::compute_fibs(changed))
        << "fattree:" << k;
  }
}

TEST(Engine, LinkFailureReMergesOnlyTheEntriesOspfChanged) {
  // Failing fattree:6 link 0 changes 256 of the network's 7,695 (node,
  // prefix) entries, at 29 nodes; a rebuild of those nodes' tables would
  // redo 4,959. The bound is a ratchet: lower it when the work falls,
  // never raise it.
  constexpr size_t kMaxMerges = 256;
  Snapshot snap = topo::make_fattree(6);
  ControlPlaneEngine engine(snap);
  size_t entries = 0;
  for (const Fib& fib : engine.fibs()) entries += fib.size();
  EXPECT_EQ(engine.last_fib_merges(), entries);  // construction builds all
  Snapshot failed = topo::with_link_state(snap, 0, false);
  AdvanceResult result = engine.advance(failed);
  EXPECT_LE(engine.last_fib_merges(), kMaxMerges);
  // Every changed entry was re-merged; each adds at most one removal and
  // one addition to the delta.
  EXPECT_GE(engine.last_fib_merges(), result.fib_delta.total_changes() / 2);
  EXPECT_EQ(engine.fibs(), ControlPlaneEngine::compute_fibs(failed));
  engine.advance(snap);
  EXPECT_LE(engine.last_fib_merges(), kMaxMerges);
  EXPECT_EQ(engine.fibs(), ControlPlaneEngine::compute_fibs(snap));
}

class EngineChurn : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineChurn, IncrementalFibsEqualMonolithic) {
  std::string which = GetParam();
  Rng rng(0xF1B + which.size());
  Snapshot snap;
  if (which == "ring") snap = topo::make_ring(8);
  if (which == "fattree") snap = topo::make_fattree(4);
  if (which == "two_tier") snap = topo::make_two_tier_as(4, 2);
  if (which == "random") snap = topo::make_random(10, 16, rng);

  ControlPlaneEngine engine(snap);
  for (int step = 0; step < 25; ++step) {
    topo::RandomChange change = topo::random_change(snap, rng);
    snap = std::move(change.snapshot);
    AdvanceResult result = engine.advance(snap);
    (void)result;
    ASSERT_EQ(engine.fibs(), ControlPlaneEngine::compute_fibs(snap))
        << which << " step " << step << ": " << change.description;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, EngineChurn,
                         ::testing::Values("ring", "fattree", "two_tier",
                                           "random"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dna::cp
