// The scenario subsystem's contract: the thread pool runs every task exactly
// once, batch evaluation is deterministic for any thread count, every
// scenario's verdict equals a sequential DnaEngine::advance from the same
// base, and bad plans fail their own scenario without poisoning the batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "core/engine.h"
#include "scenario/runner.h"
#include "topo/generators.h"
#include "util/error.h"
#include "util/threadpool.h"

namespace dna::scenario {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  constexpr size_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.parallel_for(kTasks, [&](size_t worker, size_t index) {
    ASSERT_LT(worker, pool.num_workers());
    hits[index].fetch_add(1);
  });
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SubmitFromInsideATask) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.submit([&](size_t) {
    ++count;
    for (int i = 0; i < 10; ++i) {
      pool.submit([&](size_t) { ++count; });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, RepeatedSingleSubmitBatchesDoNotDeadlock) {
  // Regression for a lost-wakeup race: one submit against a pool whose
  // workers are (about to be) asleep, repeated so the submit keeps landing
  // inside the workers' scan-then-sleep window.
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 500; ++round) {
    pool.submit([&](size_t) { ++count; });
    pool.wait_idle();
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, SingleWorkerStillDrains) {
  util::ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&](size_t) { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadConstructionClampsToAtLeastOneWorker) {
  // 0 = hardware concurrency, which may itself report 0; either way the
  // pool must come up able to run tasks.
  util::ThreadPool pool(0);
  EXPECT_GE(pool.num_workers(), 1u);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](size_t, size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, TaskExceptionPropagatesToTheWaiter) {
  util::ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([&](size_t) { ++completed; });
  pool.submit([](size_t) { throw Error("task failed"); });
  pool.submit([&](size_t) { ++completed; });
  // The failing task must not kill its worker or the healthy tasks, and
  // the waiter must see the failure.
  EXPECT_THROW(pool.wait_idle(), Error);
  EXPECT_EQ(completed.load(), 2);

  // The failure was collected: the pool is reusable and idle again.
  std::atomic<int> after{0};
  pool.parallel_for(8, [&](size_t, size_t) { ++after; });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, FirstOfManyFailuresWins) {
  util::ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) {
    pool.submit([](size_t) { throw Error("boom"); });
  }
  try {
    pool.wait_idle();
    FAIL() << "expected wait_idle to rethrow";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  pool.wait_idle();  // collected: a second wait is clean
}

// ---------------------------------------------------------------------------
// Sweep generators
// ---------------------------------------------------------------------------

TEST(Sweeps, LinkFailureCoversEveryUpLink) {
  topo::Snapshot snap = topo::make_fattree(4);
  auto specs = link_failure_sweep(snap);
  EXPECT_EQ(specs.size(), snap.topology.num_links());

  snap.topology.set_link_up(3, false);
  EXPECT_EQ(link_failure_sweep(snap).size(), snap.topology.num_links() - 1);
}

TEST(Sweeps, InterfaceShutdownSkipsLoopback) {
  // r1 has exactly its two ring links (r0 and r2 host networks live
  // elsewhere); the loopback must be skipped.
  topo::Snapshot snap = topo::make_ring(5);
  auto specs = interface_shutdown_sweep(snap, "r1");
  EXPECT_EQ(specs.size(), 2u);
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.name.find("shut r1:"), 0u) << spec.name;
  }
  EXPECT_THROW(interface_shutdown_sweep(snap, "nonexistent"), Error);
}

TEST(Sweeps, RandomChangeSweepIsSeedDeterministic) {
  topo::Snapshot snap = topo::make_ring(6);
  auto a = random_change_sweep(snap, 10, 42);
  auto b = random_change_sweep(snap, 10, 42);
  auto c = random_change_sweep(snap, 10, 43);
  ASSERT_EQ(a.size(), 10u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].plan.apply(snap), b[i].plan.apply(snap));
  }
  bool any_differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_differs = any_differs || a[i].name != c[i].name;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Sweeps, HostReachabilityInvariantsDerivedFromSnapshot) {
  // ring(6): r0 and r3 each own a host /24 -> both ordered pairs.
  auto ring = host_reachability_invariants(topo::make_ring(6));
  ASSERT_EQ(ring.size(), 2u);
  for (const core::Invariant& invariant : ring) {
    EXPECT_EQ(invariant.kind, core::Invariant::Kind::kReachable);
    EXPECT_TRUE((invariant.src == "r0" && invariant.dst == "r3") ||
                (invariant.src == "r3" && invariant.dst == "r0"));
  }
  // fat-tree k=4: 8 edge switches with one /24 each -> 8*7 pairs.
  EXPECT_EQ(host_reachability_invariants(topo::make_fattree(4)).size(), 56u);
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

std::vector<core::Invariant> ring_invariants() {
  return {{core::Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()},
          {core::Invariant::Kind::kReachable, "r0", "r3", "",
           Ipv4Prefix(Ipv4Addr(172, 31, 1, 0), 24)}};
}

void expect_same_semantics(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.fib_changes, b.fib_changes);
  EXPECT_EQ(a.reach_lost, b.reach_lost);
  EXPECT_EQ(a.reach_gained, b.reach_gained);
  EXPECT_EQ(a.loops_gained, b.loops_gained);
  EXPECT_EQ(a.blackholes_gained, b.blackholes_gained);
  EXPECT_EQ(a.invariants_broken, b.invariants_broken);
  EXPECT_EQ(a.invariants_fixed, b.invariants_fixed);
  EXPECT_EQ(a.broken_invariants, b.broken_invariants);
  EXPECT_EQ(a.semantically_empty, b.semantically_empty);
}

TEST(ScenarioRunner, DeterministicAcrossThreadCounts) {
  topo::Snapshot base = topo::make_fattree(4);
  std::vector<ScenarioSpec> specs = link_failure_sweep(base);
  auto more = random_change_sweep(base, 8, 0xD00D);
  for (auto& spec : more) specs.push_back(std::move(spec));

  ScenarioRunner runner(base, {{core::Invariant::Kind::kLoopFree, "", "", "",
                                Ipv4Prefix()}});
  ScenarioReport one = runner.run(specs, {.num_threads = 1});
  ScenarioReport eight = runner.run(specs, {.num_threads = 8});

  ASSERT_EQ(one.results.size(), specs.size());
  ASSERT_EQ(eight.results.size(), specs.size());
  EXPECT_EQ(one.ranking, eight.ranking);
  EXPECT_EQ(one.str(), eight.str());
  EXPECT_EQ(one.str(5), eight.str(5));
  for (size_t i = 0; i < specs.size(); ++i) {
    expect_same_semantics(one.results[i], eight.results[i]);
  }
}

TEST(ScenarioRunner, MatchesSequentialAdvance) {
  topo::Snapshot base = topo::make_ring(6);
  std::vector<ScenarioSpec> specs = link_failure_sweep(base);

  ScenarioRunner runner(base, ring_invariants());
  RunnerOptions options;
  options.num_threads = 4;
  options.keep_diffs = true;
  ScenarioReport report = runner.run(specs, options);

  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    core::DnaEngine engine(base);
    for (const core::Invariant& invariant : ring_invariants()) {
      engine.add_invariant(invariant);
    }
    core::NetworkDiff expected =
        engine.advance(specs[i].plan.apply(base), core::Mode::kDifferential);

    const ScenarioResult& got = report.results[i];
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.fib_changes, expected.fib_delta.total_changes());
    EXPECT_EQ(got.reach_lost, expected.reach_delta.lost.size());
    EXPECT_EQ(got.reach_gained, expected.reach_delta.gained.size());
    EXPECT_EQ(got.diff.reach_delta, expected.reach_delta);
    EXPECT_EQ(got.diff.invariant_flips, expected.invariant_flips);
    EXPECT_EQ(got.diff.link_changes, expected.link_changes);
    EXPECT_EQ(got.semantically_empty, expected.semantically_empty());
  }
}

TEST(ScenarioRunner, EmptyBatch) {
  ScenarioRunner runner(topo::make_line(3), {});
  ScenarioReport report = runner.run({});
  EXPECT_TRUE(report.results.empty());
  EXPECT_TRUE(report.ranking.empty());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_NE(report.str().find("0 scenario(s)"), std::string::npos);
}

TEST(ScenarioRunner, FailingPlanDoesNotPoisonTheBatch) {
  topo::Snapshot base = topo::make_ring(5);
  std::vector<ScenarioSpec> specs = link_failure_sweep(base);
  const size_t good = specs.size();

  auto bad = [] {
    core::ChangePlan plan("throws on apply");
    plan.add([](topo::Snapshot) -> topo::Snapshot {
      throw Error("deliberate failure");
    });
    return plan;
  };
  // Front-load one failure so workers hit it before the healthy scenarios,
  // and put another in the same chunk after a healthy one, when its worker
  // already holds an engine.
  specs.emplace(specs.begin(), ScenarioSpec("bad plan", bad()));
  specs.emplace(specs.begin() + 2, ScenarioSpec("bad plan", bad()));

  ScenarioRunner runner(base, ring_invariants());
  ScenarioReport report = runner.run(specs, {.num_threads = 2});

  ASSERT_EQ(report.results.size(), good + 2);
  EXPECT_EQ(report.failures, 2u);
  for (size_t i = 0; i < report.results.size(); ++i) {
    const ScenarioResult& result = report.results[i];
    if (i == 0 || i == 2) {
      EXPECT_FALSE(result.ok) << i;
      EXPECT_NE(result.error.find("deliberate failure"), std::string::npos);
    } else {
      EXPECT_TRUE(result.ok) << result.error;
    }
  }
  // Failures rank last, in input order, and are reported.
  ASSERT_GE(report.ranking.size(), 2u);
  EXPECT_EQ(report.ranking[report.ranking.size() - 2], 0u);
  EXPECT_EQ(report.ranking.back(), 2u);
  EXPECT_NE(report.str().find("FAILED bad plan"), std::string::npos);
  // A plan that throws on apply never reaches an engine, so no worker
  // rebuilt one.
  for (const WorkerTiming& timing : report.worker_timings) {
    EXPECT_LE(timing.clones, 1u) << "worker " << timing.worker;
  }
}

TEST(ScenarioRunner, RankingPutsIntentBreakageFirst) {
  // On a line, failing the middle link severs r0 from r3's host network;
  // an ACL that blocks an unused prefix churns nothing important.
  topo::Snapshot base = topo::make_line(4);
  std::vector<ScenarioSpec> specs;
  core::ChangePlan benign("noop cost change");
  benign.add([](topo::Snapshot s) { return s; });
  specs.emplace_back("noop", std::move(benign));
  specs.emplace_back("sever", core::ChangePlan::link_failure(1));

  ScenarioRunner runner(
      base, {{core::Invariant::Kind::kReachable, "r0", "r3", "",
              Ipv4Prefix(Ipv4Addr(172, 31, 1, 0), 24)}});
  ScenarioReport report = runner.run(specs, {.num_threads = 2});

  ASSERT_EQ(report.ranking.size(), 2u);
  EXPECT_EQ(report.ranked(0).name, "sever");
  EXPECT_GE(report.ranked(0).invariants_broken, 1u);
  EXPECT_TRUE(report.ranked(1).semantically_empty);
}

}  // namespace
}  // namespace dna::scenario
