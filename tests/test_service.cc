// The service layer's contract: versions are immutable and retire exactly
// when the last reader lets go; every query is answered against one
// fully-committed version (no torn reads, however many writers race);
// the framed protocol round-trips through any chunking; and the loopback
// transport end-to-end path behaves like direct DnaService calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/change.h"
#include "core/paths.h"
#include "dataplane/properties.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "service/protocol.h"
#include "service/query.h"
#include "service/service.h"
#include "service/session.h"
#include "service/transport.h"
#include "service/version.h"
#include "topo/generators.h"
#include "util/error.h"

namespace dna::service {
namespace {

std::vector<core::Invariant> ring_invariants() {
  return {{core::Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()},
          {core::Invariant::Kind::kReachable, "r0", "r3", "",
           Ipv4Prefix(Ipv4Addr(172, 31, 1, 0), 24)}};
}

// ---------------------------------------------------------------------------
// SnapshotStore
// ---------------------------------------------------------------------------

TEST(SnapshotStore, PublishesMonotonicVersions) {
  SnapshotStore store(topo::make_ring(4));
  EXPECT_EQ(store.head()->id, 1u);
  EXPECT_EQ(store.head()->change_description, "base");

  Version provenance;
  provenance.change_description = "tweak";
  VersionHandle v2 = store.publish(*store.head()->snapshot, provenance);
  EXPECT_EQ(v2->id, 2u);
  EXPECT_EQ(store.head()->id, 2u);
  EXPECT_EQ(store.head()->change_description, "tweak");
  EXPECT_EQ(store.versions_published(), 2u);
}

TEST(SnapshotStore, RetiresOnlyWhenLastHandleDrops) {
  SnapshotStore store(topo::make_ring(4));
  VersionHandle reader = store.head();  // a reader leases version 1

  Version provenance;
  store.publish(*store.head()->snapshot, provenance);  // supersede it
  EXPECT_EQ(store.versions_published(), 2u);
  EXPECT_EQ(store.versions_retired(), 0u) << "reader still holds v1";
  EXPECT_EQ(store.versions_live(), 2u);

  EXPECT_EQ(reader->id, 1u);  // the lease still sees its version
  reader.reset();             // last reader lets go -> retirement
  EXPECT_EQ(store.versions_retired(), 1u);
  EXPECT_EQ(store.versions_live(), 1u);
}

TEST(SnapshotStore, VersionsOutliveTheStore) {
  VersionHandle survivor;
  {
    SnapshotStore store(topo::make_ring(4));
    survivor = store.head();
  }
  EXPECT_EQ(survivor->id, 1u);
  EXPECT_EQ(survivor->snapshot->topology.num_nodes(), 4u);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(Protocol, FrameRoundTripsThroughAnyChunking) {
  const std::string payloads[] = {"", "x", "reach r0 172.31.1.1",
                                  std::string(1000, 'a') + "\n\nmulti line"};
  std::string stream;
  for (const std::string& payload : payloads) {
    stream += encode_frame(payload);
  }
  for (size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameDecoder decoder;
    std::vector<std::string> decoded;
    for (size_t at = 0; at < stream.size(); at += chunk) {
      decoder.feed(std::string_view(stream).substr(at, chunk));
      while (auto payload = decoder.next()) decoded.push_back(*payload);
    }
    ASSERT_EQ(decoded.size(), 4u) << "chunk size " << chunk;
    for (size_t i = 0; i < 4; ++i) EXPECT_EQ(decoded[i], payloads[i]);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(Protocol, RejectsMalformedAndOversizedFrames) {
  {
    FrameDecoder decoder;
    decoder.feed("12a\npayload");
    EXPECT_THROW(decoder.next(), Error);
  }
  {
    FrameDecoder decoder;
    decoder.feed(std::to_string(kMaxFramePayload + 1) + "\n");
    EXPECT_THROW(decoder.next(), Error);
  }
  {
    FrameDecoder decoder;
    decoder.feed(std::string(30, '1'));  // length line never terminates
    EXPECT_THROW(decoder.next(), Error);
  }
}

TEST(Protocol, ResponseRoundTrip) {
  QueryResult result;
  result.ok = false;
  result.version = 42;
  result.body = "line one\nline two";
  const QueryResult back = decode_response(encode_response(result));
  EXPECT_EQ(back.ok, false);
  EXPECT_EQ(back.version, 42u);
  EXPECT_EQ(back.body, result.body);
  EXPECT_THROW(decode_response("what 3\nbody"), Error);
}

// ---------------------------------------------------------------------------
// Query language
// ---------------------------------------------------------------------------

TEST(QueryLanguage, ParsesEveryKind) {
  EXPECT_EQ(parse_query("version").kind, QueryKind::kVersion);
  EXPECT_EQ(parse_query("hash").kind, QueryKind::kHash);
  const Query reach = parse_query("reach r0 172.31.1.9");
  EXPECT_EQ(reach.kind, QueryKind::kReach);
  EXPECT_EQ(reach.src, "r0");
  EXPECT_EQ(reach.dst, Ipv4Addr(172, 31, 1, 9));
  EXPECT_EQ(parse_query("paths r2 10.0.0.1").kind, QueryKind::kPaths);
  const Query check = parse_query("check waypoint r0 r3 r1 10.0.0.0/8");
  EXPECT_EQ(check.invariant.kind, core::Invariant::Kind::kWaypoint);
  EXPECT_EQ(check.invariant.waypoint, "r1");
  const Query whatif = parse_query("whatif fail_link 2; link_cost 1 50");
  EXPECT_EQ(whatif.kind, QueryKind::kWhatIf);
  EXPECT_EQ(whatif.plan.size(), 2u);

  EXPECT_THROW(parse_query(""), Error);
  EXPECT_THROW(parse_query("reach r0"), Error);
  EXPECT_THROW(parse_query("reach r0 not-an-ip"), Error);
  EXPECT_THROW(parse_query("check bogus r0"), Error);
  EXPECT_THROW(parse_query("whatif"), Error);
  EXPECT_THROW(parse_query("whatif explode_link 2"), Error);
  EXPECT_THROW(parse_query("frobnicate"), Error);
}

TEST(QueryLanguage, ChangePlanAppliesLikeTheNativePlan) {
  const topo::Snapshot base = topo::make_ring(5);
  const topo::Snapshot parsed =
      parse_change_plan("fail_link 1; link_cost 2 77").apply(base);
  topo::Snapshot native = core::ChangePlan::link_cost(2, 77).apply(
      core::ChangePlan::link_failure(1).apply(base));
  EXPECT_EQ(parsed, native);
}

// Journal replay re-runs a commit from its recorded text, so the round
// trip text -> plan -> description -> plan must be the identity: same
// text back, and a re-parsed plan that transforms any snapshot exactly
// like the first parse did. Fuzzed across every step kind the generator
// emits, on two topology shapes.
TEST(QueryLanguage, RandomChangeTextRoundTripsThroughItsDescription) {
  const topo::Snapshot bases[] = {topo::make_ring(6), topo::make_grid(3, 3)};
  for (const topo::Snapshot& base : bases) {
    Rng rng(0xF022 + base.topology.num_links());
    for (int i = 0; i < 150; ++i) {
      const std::string text = random_change_text(base, rng);
      const core::ChangePlan plan = parse_change_plan(text);
      ASSERT_EQ(plan.description(), text);
      const core::ChangePlan reparsed = parse_change_plan(plan.description());
      ASSERT_EQ(reparsed.description(), text);
      ASSERT_EQ(plan.apply(base), reparsed.apply(base)) << text;
    }
  }
}

TEST(QueryLanguage, SnapshotDigestDetectsAnyDifference) {
  const topo::Snapshot a = topo::make_ring(5);
  EXPECT_EQ(snapshot_digest(a), snapshot_digest(topo::make_ring(5)));
  const topo::Snapshot b = core::ChangePlan::link_cost(0, 99).apply(a);
  EXPECT_NE(snapshot_digest(a), snapshot_digest(b));
}

// ---------------------------------------------------------------------------
// DnaService
// ---------------------------------------------------------------------------

TEST(DnaService, AnswersMatchADirectEngine) {
  const topo::Snapshot base = topo::make_ring(6);
  DnaService service(base, ring_invariants(), {.num_threads = 2});

  QueryResult reach = service.query("reach r0 172.31.1.1");
  EXPECT_TRUE(reach.ok) << reach.body;
  EXPECT_EQ(reach.version, 1u);
  EXPECT_EQ(reach.body, "reachable true owner r3");

  QueryResult check = service.query("check reachable r0 r3 172.31.1.0/24");
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.body.find("holds true"), 0u) << check.body;

  QueryResult paths = service.query("paths r0 172.31.1.1");
  core::DnaEngine engine(base);
  const auto expected = core::forwarding_paths(
      engine.verifier(), 0, Ipv4Addr(172, 31, 1, 1));
  size_t found = 0;
  for (const auto& path : expected) {
    if (paths.body.find(path.str(base.topology)) != std::string::npos) {
      ++found;
    }
  }
  EXPECT_EQ(found, expected.size()) << paths.body;

  QueryResult bad = service.query("reach nonexistent 10.0.0.1");
  EXPECT_FALSE(bad.ok);
  QueryResult malformed = service.query("gibberish");
  EXPECT_FALSE(malformed.ok);

  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.queries_total, 5u);
  EXPECT_EQ(metrics.queries_failed, 2u);
  EXPECT_EQ(metrics.versions_published, 1u);
}

TEST(DnaService, CommitPublishesAndQueriesFollowTheHead) {
  DnaService service(topo::make_ring(6), ring_invariants(),
                     {.num_threads = 2});

  // A ring survives one link failure: still reachable, at a new version.
  const CommitResult commit =
      service.commit(core::ChangePlan::link_failure(1));
  EXPECT_EQ(commit.version, 2u);
  EXPECT_FALSE(commit.semantically_empty);

  const QueryResult reach = service.query("reach r0 172.31.1.1");
  EXPECT_TRUE(reach.ok);
  EXPECT_EQ(reach.version, 2u);
  EXPECT_EQ(reach.body, "reachable true owner r3");

  // whatif never commits.
  const QueryResult whatif = service.query("whatif fail_link 0");
  EXPECT_TRUE(whatif.ok) << whatif.body;
  EXPECT_EQ(service.head()->id, 2u);
  EXPECT_NE(whatif.body.find("\"ok\":true"), std::string::npos);

  // A what-if whose plan cannot apply fails alone; the worker replica
  // survives and the next query still answers.
  const QueryResult bad_whatif = service.query("whatif fail_link 999999");
  EXPECT_FALSE(bad_whatif.ok);
  EXPECT_TRUE(service.query("reach r0 172.31.1.1").ok);

  // A failing commit publishes nothing and leaves the service healthy.
  core::ChangePlan bad("throws on apply");
  bad.add([](topo::Snapshot) -> topo::Snapshot {
    throw Error("deliberate failure");
  });
  EXPECT_THROW(service.commit(bad), Error);
  EXPECT_EQ(service.head()->id, 2u);
  EXPECT_TRUE(service.query("reach r0 172.31.1.1").ok);
  EXPECT_EQ(service.metrics().commits, 1u);
}

// The backpressure contract: at the configured queue bound, submit()
// sheds — visibly, with a resolved future and a counted metric — instead
// of growing the queue without limit or blocking forever.
TEST(DnaService, SaturatedQueueShedsInsteadOfDeadlocking) {
  ServiceOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 1;
  options.submit_deadline = std::chrono::milliseconds(0);
  // A fat-tree keeps the first-ever dispatched query busy for a while
  // (the worker replica pays its base verification), so the queue
  // saturates deterministically underneath it.
  DnaService service(topo::make_fattree(4), {}, options);

  std::vector<QueryResult> results;
  bool saw_saturation = false;
  for (int attempt = 0; attempt < 5 && !saw_saturation; ++attempt) {
    // Occupy the dispatcher with a query that takes real work even on a
    // warmed replica...
    auto busy = service.submit("whatif fail_link 0");
    while (service.queue_depth() > 0) std::this_thread::yield();
    // ...then fill the queue to the bound and push one past it.
    auto queued = service.submit("version");
    auto overflow = service.submit("version");
    results.push_back(overflow.get());
    if (!results.back().ok &&
        results.back().body.find("shed") != std::string::npos) {
      saw_saturation = true;
    }
    results.push_back(queued.get());
    results.push_back(busy.get());
  }
  EXPECT_TRUE(saw_saturation);

  // Nothing deadlocked: every future resolved, and sheds are reported.
  size_t ok_count = 0;
  for (const QueryResult& result : results) {
    if (result.ok) ++ok_count;
  }
  EXPECT_GT(ok_count, 0u);
  const ServiceMetrics metrics = service.metrics();
  EXPECT_GE(metrics.queries_shed, 1u);
  EXPECT_EQ(metrics.queries_total, results.size());
  EXPECT_NE(metrics.str().find("shed"), std::string::npos);

  // Exact shed-vs-served accounting: a shed query never acquires a queue
  // slot, so it can never also appear in the queue-wait histogram. Every
  // query in this test parses and resolves its version, so the histogram
  // count (served) and the shed counter must partition the total with
  // nothing dropped and nothing double-counted.
  const uint64_t served = service.registry()
                              .histogram("service.query_queue_seconds")
                              .snapshot()
                              .count;
  EXPECT_EQ(metrics.queries_shed + served, metrics.queries_total);
}

TEST(DnaService, SubmitAfterShutdownFailsCleanly) {
  DnaService service(topo::make_line(3), {}, {.num_threads = 1});
  service.shutdown();
  QueryResult late = service.query("version");
  EXPECT_FALSE(late.ok);
  EXPECT_NE(late.body.find("shutting down"), std::string::npos);
}

// The shutdown race: submitters still in submit() while shutdown() runs.
// The old double-notify path could let a submitter that had already
// passed its stop check enqueue into a queue nobody would drain again —
// a future that never resolves. The contract now: every future resolves,
// either with a real answer (the submit won the race and the dispatcher's
// final drain served it) or with the typed shutting-down error.
TEST(DnaService, ShutdownRacingSubmittersLeavesNoHungFutures) {
  constexpr int kRounds = 8;
  constexpr int kSubmitters = 4;
  for (int round = 0; round < kRounds; ++round) {
    DnaService service(topo::make_line(3), {}, {.num_threads = 2});
    std::atomic<bool> stop{false};
    std::vector<std::vector<std::future<QueryResult>>> futures(kSubmitters);
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&service, &stop, &futures, s] {
        while (!stop.load(std::memory_order_relaxed)) {
          futures[s].push_back(service.submit("version"));
        }
        // One more after the stop is certainly published — the pure
        // submit-after-shutdown path must also resolve.
        futures[s].push_back(service.submit("version"));
      });
    }
    // Let the submitters build up steam, then yank the service from
    // under them.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    service.shutdown();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& submitter : submitters) submitter.join();

    size_t answered = 0, refused = 0;
    for (auto& per_submitter : futures) {
      for (auto& future : per_submitter) {
        // A hung future is the bug this test exists for: fail with a
        // diagnosis instead of wedging the suite.
        ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "round " << round << ": a submit raced shutdown and its "
            << "future never resolved";
        const QueryResult result = future.get();
        if (result.ok) {
          ++answered;
        } else {
          EXPECT_NE(result.body.find("shutting down"), std::string::npos)
              << result.body;
          ++refused;
        }
      }
    }
    // Both outcomes are legal per race; the last-after-stop submits
    // guarantee at least one typed refusal per round.
    EXPECT_GE(refused, static_cast<size_t>(kSubmitters));
    (void)answered;
  }
}

// The headline concurrency property: N writers race M readers, and every
// reader-observed (version, digest) pair must equal the digest a serial
// replay of the commit log produces for that version — a torn or
// half-committed snapshot would hash differently.
TEST(DnaService, WritersRacingReadersProduceNoTornReads) {
  const topo::Snapshot base = topo::make_ring(6);
  DnaService service(base, ring_invariants(), {.num_threads = 2});

  constexpr int kWriters = 3;
  constexpr int kCommitsPerWriter = 5;
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 25;

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  // Writers: each flips its own link's cost through a private sequence.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&service, &go, w] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        service.commit(
            core::ChangePlan::link_cost(w, 10 + (w + 1) * 10 + i));
      }
    });
  }
  // Readers: interleave hash and reach queries while versions churn.
  std::vector<std::vector<QueryResult>> observed(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&service, &go, &observed, r] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kQueriesPerReader; ++i) {
        observed[r].push_back(
            service.query(i % 2 == 0 ? "hash" : "reach r0 172.31.1.1"));
      }
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  const uint64_t last = service.head()->id;
  ASSERT_EQ(last, 1u + kWriters * kCommitsPerWriter);

  uint64_t max_seen = 0;
  for (int r = 0; r < kReaders; ++r) {
    uint64_t previous = 0;
    for (const QueryResult& result : observed[r]) {
      ASSERT_TRUE(result.ok) << result.body;
      // Versions a single client observes never go backwards.
      EXPECT_GE(result.version, previous);
      previous = result.version;
      max_seen = std::max(max_seen, result.version);
      // Reachability must hold at every version: only link costs changed,
      // so a false answer can only come from a torn snapshot.
      if (result.body.find("reachable") == 0) {
        EXPECT_EQ(result.body, "reachable true owner r3") << result.body;
      }
    }
  }
  EXPECT_LE(max_seen, last);

  // No version may ever have been observed with two different digests, and
  // the final head digest must match a from-scratch application of the
  // final state (queried after quiescence, so it is deterministic).
  std::map<uint64_t, std::string> digest_at;
  for (const auto& reader : observed) {
    for (const QueryResult& result : reader) {
      if (result.body.find("hash ") != 0) continue;
      auto [it, inserted] = digest_at.emplace(result.version, result.body);
      EXPECT_EQ(it->second, result.body)
          << "version " << result.version << " observed with two digests";
    }
  }
  const QueryResult head_hash = service.query("hash");
  EXPECT_EQ(head_hash.version, last);
  char expected_hex[32];
  std::snprintf(expected_hex, sizeof(expected_hex), "hash %016llx",
                static_cast<unsigned long long>(
                    snapshot_digest(*service.head()->snapshot)));
  EXPECT_EQ(head_hash.body, expected_hex);

  // Version accounting stayed consistent under the race.
  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.versions_published, last);
  EXPECT_EQ(metrics.commits, size_t{kWriters * kCommitsPerWriter});
  EXPECT_EQ(metrics.queries_total,
            size_t{kReaders * kQueriesPerReader} + 1);
}

// ---------------------------------------------------------------------------
// Loopback transport end-to-end
// ---------------------------------------------------------------------------

TEST(Session, LoopbackEndToEnd) {
  DnaService service(topo::make_ring(6), ring_invariants(),
                     {.num_threads = 2});
  LoopbackChannel channel;
  ServerSession session(service, channel.server());
  std::thread server([&session] { session.run(); });

  ServiceClient client(channel.client());
  const QueryResult version = client.request("version");
  EXPECT_TRUE(version.ok);
  EXPECT_EQ(version.version, 1u);
  EXPECT_EQ(version.body.find("version 1"), 0u) << version.body;

  const QueryResult commit = client.request("commit link_cost 0 42");
  EXPECT_TRUE(commit.ok);
  EXPECT_EQ(commit.version, 2u);
  EXPECT_EQ(commit.body.find("committed version 2"), 0u) << commit.body;

  const QueryResult reach = client.request("reach r0 172.31.1.1");
  EXPECT_TRUE(reach.ok);
  EXPECT_EQ(reach.version, 2u);

  const QueryResult bad = client.request("commit fail_link 999999");
  EXPECT_FALSE(bad.ok);

  const QueryResult metrics = client.request("metrics");
  EXPECT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("service metrics"), std::string::npos);

  client.close();
  server.join();
  EXPECT_FALSE(session.shutdown_requested());
}

TEST(Session, ManyClientsOneService) {
  DnaService service(topo::make_ring(6), ring_invariants(),
                     {.num_threads = 2});
  constexpr int kClients = 4;
  constexpr int kRequests = 10;

  std::vector<std::unique_ptr<LoopbackChannel>> channels;
  std::vector<std::unique_ptr<ServerSession>> sessions;
  std::vector<std::thread> servers;
  for (int c = 0; c < kClients; ++c) {
    channels.push_back(std::make_unique<LoopbackChannel>());
    sessions.push_back(
        std::make_unique<ServerSession>(service, channels[c]->server()));
    servers.emplace_back([&session = *sessions[c]] { session.run(); });
  }

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&channel = *channels[c], &failures] {
      ServiceClient client(channel.client());
      for (int i = 0; i < kRequests; ++i) {
        const QueryResult result = client.request("reach r0 172.31.1.1");
        if (!result.ok || result.body != "reachable true owner r3") {
          failures.fetch_add(1);
        }
      }
      client.close();
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (std::thread& thread : servers) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.metrics().queries_total, size_t{kClients * kRequests});
}

TEST(Session, AbortEvictsAnIdleSession) {
  // A server shutting down must be able to unblock a session whose client
  // is connected but silent (the serve loop aborts before joining).
  DnaService service(topo::make_line(3), {}, {.num_threads = 1});
  LoopbackChannel channel;
  ServerSession session(service, channel.server());
  std::thread server([&session] { session.run(); });

  ServiceClient client(channel.client());
  EXPECT_TRUE(client.request("version").ok);  // session is live...
  channel.server().abort();                   // ...evict it anyway
  server.join();
  EXPECT_FALSE(session.shutdown_requested());
}

// ---------------------------------------------------------------------------
// Version-pinned queries
// ---------------------------------------------------------------------------

TEST(Query, ParsesPinAndScopeModifiersInAnyOrder) {
  const Query pinned = parse_query("@7 reach r0 172.31.1.1");
  EXPECT_EQ(pinned.pinned_version, 7u);
  EXPECT_EQ(pinned.kind, QueryKind::kReach);
  EXPECT_EQ(pinned.src, "r0");

  const Query scoped = parse_query("part 1/4 check loopfree");
  EXPECT_EQ(scoped.scope_index, 1u);
  EXPECT_EQ(scoped.scope_count, 4u);
  EXPECT_EQ(scoped.kind, QueryKind::kCheck);

  const Query both = parse_query("part 0/2 @3 hash");
  EXPECT_EQ(both.pinned_version, 3u);
  EXPECT_EQ(both.scope_count, 2u);
  EXPECT_EQ(both.kind, QueryKind::kHash);

  EXPECT_THROW(parse_query("@0 version"), Error);
  EXPECT_THROW(parse_query("@x version"), Error);
  EXPECT_THROW(parse_query("part 2/2 version"), Error);
  EXPECT_THROW(parse_query("part nonsense version"), Error);
  EXPECT_THROW(parse_query("@3"), Error);  // modifiers alone are no query
}

TEST(Service, PinnedQueryAnswersAgainstALeasedOldVersion) {
  DnaService service(topo::make_ring(6), ring_invariants(),
                     {.num_threads = 2});
  const VersionHandle lease = service.head();  // keep version 1 alive
  const QueryResult old_hash = service.query("hash");

  service.commit(core::ChangePlan::link_failure(1));
  const QueryResult head_hash = service.query("hash");
  ASSERT_NE(head_hash.body, old_hash.body);

  // Pinned to the leased version: old answer, old version id — time travel.
  const QueryResult pinned = service.query("@1 hash");
  EXPECT_TRUE(pinned.ok);
  EXPECT_EQ(pinned.version, 1u);
  EXPECT_EQ(pinned.body, old_hash.body);

  // Unpinned queries still read the head.
  EXPECT_EQ(service.query("hash").body, head_hash.body);

  // Pinning works for reads that need an engine at the old snapshot too.
  const QueryResult pinned_reach = service.query("@1 reach r0 172.31.1.1");
  EXPECT_TRUE(pinned_reach.ok);
  EXPECT_EQ(pinned_reach.version, 1u);
}

TEST(Service, PinToARetiredOrUnknownVersionFailsTyped) {
  DnaService service(topo::make_ring(6), {}, {.num_threads = 1});
  service.commit(core::ChangePlan::link_failure(1));  // retires version 1

  const QueryResult retired = service.query("@1 version");
  EXPECT_FALSE(retired.ok);
  EXPECT_NE(retired.body.find("version 1 is not live"), std::string::npos);

  const QueryResult unknown = service.query("@99 version");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.body.find("not live"), std::string::npos);

  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.queries_failed, 2u);
}

TEST(Service, KeepVersionsPinsRecentHistoryWithoutReaders) {
  ServiceOptions options;
  options.num_threads = 1;
  options.keep_versions = 3;
  DnaService service(topo::make_ring(6), ring_invariants(), options);
  // The base version counts as history too: it must survive the first
  // commit without any reader leasing it.
  service.commit(core::ChangePlan::link_cost(0, 2));
  EXPECT_TRUE(service.query("@1 version").ok);
  for (int cost = 3; cost <= 5; ++cost) {
    service.commit(core::ChangePlan::link_cost(0, cost));
  }
  // Head is 5; the ring holds {3, 4, 5}; 1 and 2 fell out.
  EXPECT_EQ(service.head()->id, 5u);
  for (uint64_t id = 3; id <= 5; ++id) {
    const QueryResult pinned =
        service.query("@" + std::to_string(id) + " version");
    EXPECT_TRUE(pinned.ok) << pinned.body;
    EXPECT_EQ(pinned.version, id);
  }
  EXPECT_FALSE(service.query("@2 version").ok);
}

// ---------------------------------------------------------------------------
// Observability plane: health, worker stats, diagnose
// ---------------------------------------------------------------------------

struct ObsTempDir {
  std::string path;
  ObsTempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "dna_obs_XXXXXX");
    const char* created = ::mkdtemp(tmpl.data());
    if (created == nullptr) throw Error("mkdtemp failed for " + tmpl);
    path = created;
  }
  ~ObsTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(Observability, HealthFlipsWhenTheJournalFailsAnAppend) {
  ObsTempDir dir;
  ServiceOptions options;
  options.num_threads = 1;
  options.journal_dir = dir.path;
  DnaService service(topo::make_ring(4), ring_invariants(), options);

  Health healthy = service.health();
  EXPECT_TRUE(healthy.ok);
  EXPECT_NE(healthy.detail.find("ok"), std::string::npos);
  EXPECT_NE(healthy.detail.find("journal"), std::string::npos);

  // Inject a journal fault: the commit throws, publishes nothing, and
  // health flips — durability is gone, stop sending writes here.
  ASSERT_NE(service.journal(), nullptr);
  service.journal()->set_fail_appends(true);
  EXPECT_THROW(service.commit_text("link_cost 0 7"), Error);
  EXPECT_EQ(service.head()->id, 1u);
  const Health unhealthy = service.health();
  EXPECT_FALSE(unhealthy.ok);
  EXPECT_NE(unhealthy.detail.find("journal append failed"), std::string::npos);
  // Queries still answer (the service is degraded, not dead).
  EXPECT_TRUE(service.query("version").ok);
}

TEST(Observability, HealthReportsShutdown) {
  DnaService service(topo::make_line(3), {}, {.num_threads = 1});
  EXPECT_TRUE(service.health().ok);
  service.shutdown();
  const Health health = service.health();
  EXPECT_FALSE(health.ok);
  EXPECT_NE(health.detail.find("shutting down"), std::string::npos);
}

TEST(Observability, HealthzVerbMirrorsHealthOverTheWire) {
  DnaService service(topo::make_ring(4), ring_invariants(),
                     {.num_threads = 1});
  LoopbackChannel channel;
  ServerSession session(service, channel.server());
  std::thread server([&session] { session.run(); });
  ServiceClient client(channel.client());
  const QueryResult result = client.request("healthz");
  EXPECT_TRUE(result.ok);
  EXPECT_NE(result.body.find("ok"), std::string::npos);
  client.request("shutdown");
  server.join();
}

TEST(Observability, WorkerStatsPartitionBusyTime) {
  DnaService service(topo::make_ring(6), ring_invariants(),
                     {.num_threads = 2});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(service.query("check loopfree").ok);
  }
  const auto stats = service.worker_stats();
  // Pool workers plus the dispatcher's inline-serve slot.
  ASSERT_EQ(stats.size(), service.num_workers() + 1);
  uint64_t tasks = 0;
  for (const auto& worker : stats) {
    tasks += worker.tasks;
    // catch-up and eval partition busy: their sum cannot exceed it (both
    // are measured inside the busy span).
    EXPECT_LE(worker.catchup_seconds + worker.eval_seconds,
              worker.busy_seconds + 1e-6);
    if (worker.tasks > 0) EXPECT_GT(worker.busy_seconds, 0.0);
  }
  EXPECT_GE(tasks, 20u);
  EXPECT_GT(service.uptime_seconds(), 0.0);
}

TEST(Observability, DiagnoseAttributesTheCollapseWithHighCoverage) {
  DnaService service(topo::make_fattree(4), {}, {.num_threads = 2});
  const obs::DiagnosisReport report = service.diagnose(/*queries_per_phase=*/40);

  EXPECT_EQ(report.component, "service");
  EXPECT_GE(report.threads, 2u);
  EXPECT_EQ(report.queries_seq, 40u);
  EXPECT_EQ(report.queries_flood, 40u);
  EXPECT_GT(report.seconds_seq, 0.0);
  EXPECT_GT(report.seconds_flood, 0.0);
  EXPECT_GT(report.qps_seq, 0.0);
  EXPECT_GT(report.qps_flood, 0.0);
  EXPECT_GT(report.speedup, 0.0);
  EXPECT_GE(report.serial_fraction, 0.0);
  EXPECT_LE(report.serial_fraction, 1.0);

  // The acceptance bar: the queue/fanout/catchup/eval legs partition
  // submit→done exactly, so attribution must cover >= 90% of measured
  // wall time.
  ASSERT_GE(report.legs.size(), 4u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GE(report.coverage, 0.9);
  // The flood went through the batching dispatcher, and the report says
  // what shape the fan-out took.
  EXPECT_GE(report.batches, 1u);
  EXPECT_GT(report.mean_batch, 0.0);
  EXPECT_FALSE(report.dominant.empty());
  EXPECT_EQ(report.dominant, report.legs.front().name);
  // Legs are sorted descending and shares are sane.
  for (size_t i = 1; i < report.legs.size(); ++i) {
    EXPECT_GE(report.legs[i - 1].seconds, report.legs[i].seconds);
  }
  for (const auto& leg : report.legs) {
    EXPECT_GE(leg.share, 0.0);
  }
  // The human rendering names the verdict and the dominant leg.
  const std::string text = report.str();
  EXPECT_NE(text.find(report.dominant), std::string::npos);
  EXPECT_FALSE(report.verdict.empty());
  // And the JSON form is a well-formed object carrying the same verdict.
  util::JsonWriter json;
  report.append_json(json);
  EXPECT_NE(json.str().find("\"dominant\""), std::string::npos);
}

TEST(Observability, DiagnoseVerbAnswersOverTheWire) {
  DnaService service(topo::make_ring(6), ring_invariants(),
                     {.num_threads = 2});
  LoopbackChannel channel;
  ServerSession session(service, channel.server());
  std::thread server([&session] { session.run(); });
  ServiceClient client(channel.client());
  const QueryResult human = client.request("diagnose 10");
  EXPECT_TRUE(human.ok) << human.body;
  EXPECT_NE(human.body.find("verdict"), std::string::npos);
  const QueryResult json = client.request("diagnose 10 json");
  EXPECT_TRUE(json.ok) << json.body;
  EXPECT_NE(json.body.find("\"dominant\""), std::string::npos);
  client.request("shutdown");
  server.join();
}

TEST(Observability, SlowQueriesMarkEventsIntoTheFlightRecorder) {
  ServiceOptions options;
  options.num_threads = 1;
  options.slow_query_ns = 1;  // everything is slow
  DnaService service(topo::make_ring(4), ring_invariants(), options);
  obs::FlightRecorder recorder(service.registry());
  service.set_flight_recorder(&recorder);
  ASSERT_TRUE(service.query("check loopfree").ok);
  service.set_flight_recorder(nullptr);
  const auto events = recorder.events();
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "slow_query");
  EXPECT_GE(recorder.size(), 1u);  // the auto-dumped sample
}

TEST(Session, ShutdownRequestStopsTheSession) {
  DnaService service(topo::make_line(3), {}, {.num_threads = 1});
  LoopbackChannel channel;
  ServerSession session(service, channel.server());
  std::thread server([&session] { session.run(); });

  ServiceClient client(channel.client());
  const QueryResult result = client.request("shutdown");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.body, "shutting down");
  server.join();
  EXPECT_TRUE(session.shutdown_requested());
}

}  // namespace
}  // namespace dna::service
