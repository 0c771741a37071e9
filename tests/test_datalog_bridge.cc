// Datalog bridge: reachability computed by recursive datalog over the
// verifier's forwarding graphs must match the specialized verifier, both at
// full load and across incremental syncs.
#include <gtest/gtest.h>

#include "controlplane/engine.h"
#include "core/datalog_bridge.h"
#include "topo/generators.h"
#include "topo/mutators.h"
#include "util/rng.h"

namespace dna::core {
namespace {

using topo::Snapshot;

TEST(DatalogBridge, MatchesVerifierOnFullLoad) {
  Snapshot snap = topo::make_fattree(4);
  cp::ControlPlaneEngine engine(snap);
  dp::Verifier verifier(&engine.snapshot(), &engine.fibs());

  DatalogBridge bridge;
  bridge.sync(verifier);
  EXPECT_EQ(bridge.mismatches(verifier), 0u);
}

TEST(DatalogBridge, IncrementalSyncTracksChanges) {
  Snapshot snap = topo::make_ring(6);
  cp::ControlPlaneEngine engine(snap);
  dp::Verifier verifier(&engine.snapshot(), &engine.fibs());
  DatalogBridge bridge;
  bridge.sync(verifier);
  ASSERT_EQ(bridge.mismatches(verifier), 0u);

  // Fail a link, advance both layers, re-sync only deltas.
  Snapshot broken = topo::with_link_state(snap, 0, false);
  cp::AdvanceResult result = engine.advance(broken);
  verifier.apply(&engine.snapshot(), result.fib_delta, result.config_changes);
  bridge.sync(verifier);
  EXPECT_EQ(bridge.mismatches(verifier), 0u);

  // And back up.
  result = engine.advance(snap);
  verifier.apply(&engine.snapshot(), result.fib_delta, result.config_changes);
  bridge.sync(verifier);
  EXPECT_EQ(bridge.mismatches(verifier), 0u);
}

TEST(DatalogBridge, AllStrategiesAgree) {
  Snapshot snap = topo::make_grid(2, 3);
  cp::ControlPlaneEngine engine(snap);
  dp::Verifier verifier(&engine.snapshot(), &engine.fibs());

  DatalogBridge counting(datalog::DatalogEngine::Strategy::kIncremental);
  DatalogBridge dred(datalog::DatalogEngine::Strategy::kIncrementalForceDRed);
  DatalogBridge recompute(datalog::DatalogEngine::Strategy::kRecompute);
  for (DatalogBridge* bridge : {&counting, &dred, &recompute}) {
    bridge->sync(verifier);
    EXPECT_EQ(bridge->mismatches(verifier), 0u);
  }

  Snapshot changed = topo::with_link_cost(snap, 1, 60);
  cp::AdvanceResult result = engine.advance(changed);
  verifier.apply(&engine.snapshot(), result.fib_delta, result.config_changes);
  for (DatalogBridge* bridge : {&counting, &dred, &recompute}) {
    bridge->sync(verifier);
    EXPECT_EQ(bridge->mismatches(verifier), 0u);
  }
}

TEST(DatalogBridge, ChurnStaysConsistent) {
  Rng rng(0xB41D);
  Snapshot snap = topo::make_ring(5);
  cp::ControlPlaneEngine engine(snap);
  dp::Verifier verifier(&engine.snapshot(), &engine.fibs());
  DatalogBridge bridge;
  bridge.sync(verifier);

  for (int step = 0; step < 8; ++step) {
    // Restrict to routing-only changes: the bridge models FIB-level
    // reachability without ACLs (see header).
    uint32_t link = static_cast<uint32_t>(rng.below(snap.topology.num_links()));
    Snapshot next = rng.chance(0.5)
                        ? topo::with_link_cost(snap, link,
                                               static_cast<int>(rng.range(1, 40)))
                        : topo::with_link_state(
                              snap, link, !snap.topology.link(link).up);
    snap = std::move(next);
    cp::AdvanceResult result = engine.advance(snap);
    verifier.apply(&engine.snapshot(), result.fib_delta, result.config_changes);
    bridge.sync(verifier);
    ASSERT_EQ(bridge.mismatches(verifier), 0u) << "step " << step;
  }
}

}  // namespace
}  // namespace dna::core
