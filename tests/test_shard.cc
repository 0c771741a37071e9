// The shard tier's contract: a sharded TCP deployment is observationally
// identical to one monolithic DnaService — the same session script answers
// byte-identically through a ShardRouter over 2 shards as against a single
// service — and partial failure is clean: with replication (R >= 2) a dead
// shard's queries fail over byte-identically to a healthy replica; with
// R=1 they fail with a typed error (never a hang); a restarted shard is
// caught up exactly-once by reconnect-and-replay; a wiped or brand-new
// shard warms up by journal-seeded sync; commits succeed at quorum and
// report under-replication as a typed failure; and partition-scoped global
// checks AND together to exactly the monolithic verdict.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flaky.h"
#include "service/net/server.h"
#include "service/net/tcp.h"
#include "service/service.h"
#include "service/session.h"
#include "service/shard/host.h"
#include "service/shard/partition.h"
#include "service/shard/router.h"
#include "service/transport.h"
#include "topo/generators.h"
#include "util/error.h"

namespace dna::service::shard {
namespace {

namespace fs = std::filesystem;

/// A unique directory removed (with contents) when the test scope ends.
struct TempDir {
  std::string path;

  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "dna_shard_XXXXXX");
    const char* created = ::mkdtemp(tmpl.data());
    if (created == nullptr) throw Error("mkdtemp failed for " + tmpl);
    path = created;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const { return path + "/" + name; }
};

std::vector<core::Invariant> ring_invariants() {
  return {{core::Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()},
          {core::Invariant::Kind::kReachable, "r0", "r3", "",
           Ipv4Prefix(Ipv4Addr(172, 31, 1, 0), 24)}};
}

/// (ok, version, body) triples returned by a sequence of requests — the
/// response payload is a bijection of this triple, so equality here is
/// byte-equality of the framed responses.
struct Answer {
  bool ok;
  uint64_t version;
  std::string body;

  bool operator==(const Answer&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Answer& answer) {
  return out << (answer.ok ? "ok " : "err ") << answer.version << " \""
             << answer.body << "\"";
}

Answer to_answer(const QueryResult& result) {
  return {result.ok, result.version, result.body};
}

/// Runs `script` against a monolithic service over a loopback session —
/// the reference every sharded deployment must match byte for byte.
std::vector<Answer> monolithic_answers(const std::vector<std::string>& script,
                                       size_t num_threads = 2) {
  DnaService service(topo::make_ring(6), ring_invariants(),
                     {.num_threads = num_threads, .keep_versions = 6});
  LoopbackChannel channel;
  ServerSession session(service, channel.server());
  std::thread server([&session] { session.run(); });
  std::vector<Answer> answers;
  {
    ServiceClient client(channel.client());
    for (const std::string& line : script) {
      answers.push_back(to_answer(client.request(line)));
    }
    client.close();
  }
  server.join();
  return answers;
}

/// The session script both deployments run: reader and writer requests
/// mixed, global checks, a forced forwarding loop (statics pointing at
/// each other), and a malformed line.
std::vector<std::string> equivalence_script(const topo::Snapshot& base) {
  // Discover the two interface addresses of link r1-r2 so the script can
  // commit a two-node static-route loop for an un-announced prefix.
  const topo::Topology& topology = base.topology;
  const topo::NodeId r1 = topology.node_id("r1");
  const topo::NodeId r2 = topology.node_id("r2");
  std::string addr_r1, addr_r2;
  for (const uint32_t link_index : topology.links_of(r1)) {
    const topo::Link& link = topology.link(link_index);
    if (link.peer_of(r1) != r2) continue;
    addr_r1 =
        base.config_of(r1).find_interface(link.if_of(r1))->address.str();
    addr_r2 =
        base.config_of(r2).find_interface(link.if_of(r2))->address.str();
    break;
  }
  EXPECT_FALSE(addr_r1.empty());
  std::vector<std::string> script = {
      "version",
      "hash",
      "check loopfree",
      "commit fail_link 1",
      "version",
      "whatif fail_link 0",
      "check reachable r0 r3 172.31.1.0/24",
      "check blackholefree r2",
      "commit link_cost 0 7; announce r4 203.0.100.0/24",
      "hash",
      "definitely not a query",
      // A forwarding loop: r1 and r2 forward 203.0.113/24 at each other.
      "commit static_route r1 203.0.113.0/24 " + addr_r2 +
          "; static_route r2 203.0.113.0/24 " + addr_r1,
      "check loopfree",
      "whatif recover_link 1",
      // Risk analytics: pure read-only aggregates, so the router spreads
      // them like any query and every deployment must render the same
      // bytes — including the diff across two committed versions and the
      // typed errors for a dead version and a malformed sweep.
      "rank",
      "risk links",
      "@2 rank costs:20",
      "risk node:r2",
      "risk diff 2 3",
      "risk diff 1 99",
      "risk bogus:sweep",
  };
  for (topo::NodeId node = 0; node < topology.num_nodes(); ++node) {
    script.push_back("reach " + topology.node_name(node) + " 172.31.1.1");
    script.push_back("paths " + topology.node_name(node) + " 172.31.0.1");
  }
  return script;
}

// ---------------------------------------------------------------------------
// Partition map
// ---------------------------------------------------------------------------

TEST(Partition, StableAndTotal) {
  // The hash is a pure function of the name: every process computes the
  // same map, across runs and restarts.
  EXPECT_EQ(shard_of("r0", 4), shard_of("r0", 4));
  EXPECT_EQ(stable_name_hash("r0"), stable_name_hash(std::string("r0")));

  const topo::Snapshot base = topo::make_fattree(4);
  const PartitionMap map(3);
  std::vector<int> owners(base.topology.num_nodes(), 0);
  for (uint32_t index = 0; index < 3; ++index) {
    const std::vector<bool> owned = map.owned_nodes(base.topology, index);
    for (size_t node = 0; node < owned.size(); ++node) {
      owners[node] += owned[node] ? 1 : 0;
      EXPECT_EQ(owned[node], map.owns(index, base.topology.node_name(
                                                 static_cast<topo::NodeId>(
                                                     node))));
    }
  }
  // Every node owned by exactly one shard; the histogram accounts for all.
  for (const int count : owners) EXPECT_EQ(count, 1);
  size_t total = 0;
  for (const size_t count : map.histogram(base.topology)) total += count;
  EXPECT_EQ(total, base.topology.num_nodes());
}

TEST(Partition, SingleShardOwnsEverything) {
  const PartitionMap map(1);
  EXPECT_EQ(map.owner_of("anything"), 0u);
}

TEST(Partition, ReplicaSetsAreDistinctAndLedByTheOwner) {
  const PartitionMap map(4, 2);
  EXPECT_EQ(map.replicas(), 2u);
  const topo::Snapshot base = topo::make_fattree(4);
  for (topo::NodeId node = 0; node < base.topology.num_nodes(); ++node) {
    const std::string name = base.topology.node_name(node);
    const std::vector<uint32_t> replicas = map.replicas_of(name);
    ASSERT_EQ(replicas.size(), 2u) << name;
    EXPECT_NE(replicas[0], replicas[1]) << name;
    EXPECT_EQ(replicas[0], map.owner_of(name)) << name;
    for (const uint32_t shard : replicas) EXPECT_LT(shard, 4u);
  }
  // The replica count clamps to what exists: never more than the shard
  // count, never less than one.
  EXPECT_EQ(PartitionMap(2, 5).replicas(), 2u);
  EXPECT_EQ(PartitionMap(3, 0).replicas(), 1u);
}

TEST(Partition, ReplicationDoesNotMovePrimaryOwnership) {
  // The ring is a pure function of the shard count; the replica count only
  // sizes preference lists. Critical: shards compute PartitionMap(n) for
  // scoped checks while the router runs PartitionMap(n, R) — the two must
  // agree on every owner.
  const PartitionMap plain(4), replicated(4, 3);
  for (int i = 0; i < 500; ++i) {
    const std::string name = "node-" + std::to_string(i);
    EXPECT_EQ(plain.owner_of(name), replicated.owner_of(name)) << name;
  }
}

TEST(Partition, GrowthRemapsABoundedFraction) {
  // Consistent hashing's point: adding a shard to 3 should move about 1/4
  // of the keys — not the ~3/4 a modulo partition reshuffles.
  const PartitionMap before(3), after(4);
  size_t moved = 0;
  const size_t names = 1000;
  for (size_t i = 0; i < names; ++i) {
    const std::string name = "node-" + std::to_string(i);
    if (before.owner_of(name) != after.owner_of(name)) ++moved;
  }
  EXPECT_GT(moved, 0u) << "the new shard must take some load";
  EXPECT_LT(moved, names * 45 / 100)
      << "growth 3->4 moved " << moved << "/" << names
      << " names — far above the ~25% consistent hashing promises";
  // And whatever moved, moved *to the new shard*: an old key never hops
  // between surviving shards.
  for (size_t i = 0; i < names; ++i) {
    const std::string name = "node-" + std::to_string(i);
    if (before.owner_of(name) != after.owner_of(name)) {
      EXPECT_EQ(after.owner_of(name), 3u) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Partition-scoped checks decompose the monolithic verdict
// ---------------------------------------------------------------------------

TEST(ScopedCheck, LoopfreePartitionsAndTogether) {
  DnaService service(topo::make_ring(6), ring_invariants(),
                     {.num_threads = 1});
  // Loop-free base: every partition scope must concur with the whole.
  const QueryResult whole = service.query("check loopfree");
  ASSERT_TRUE(whole.ok);
  EXPECT_EQ(whole.body.find("holds true"), 0u);
  for (int i = 0; i < 3; ++i) {
    const QueryResult part =
        service.query("part " + std::to_string(i) + "/3 check loopfree");
    ASSERT_TRUE(part.ok);
    EXPECT_EQ(part.body, whole.body) << "scope must not change the rendering";
  }

  // Introduce a loop; the partitions owning the looping sources flip to
  // false, and the AND over all partitions equals the monolithic verdict.
  const std::vector<std::string> script =
      equivalence_script(*service.head()->snapshot);
  for (const std::string& line : script) {
    if (line.rfind("commit static_route", 0) == 0) {
      const CommitResult commit = service.commit_text(line.substr(7));
      EXPECT_GT(commit.version, 1u);
    }
  }
  const QueryResult looped = service.query("check loopfree");
  ASSERT_TRUE(looped.ok);
  EXPECT_EQ(looped.body.find("holds false"), 0u);
  bool any_false = false;
  for (int i = 0; i < 3; ++i) {
    const QueryResult part =
        service.query("part " + std::to_string(i) + "/3 check loopfree");
    ASSERT_TRUE(part.ok);
    any_false = any_false || part.body.find("holds false") == 0;
  }
  EXPECT_TRUE(any_false) << "some partition must own a looping source";
}

// ---------------------------------------------------------------------------
// Router equivalence: sharded == monolithic, byte for byte
// ---------------------------------------------------------------------------

TEST(Router, TwoLoopbackShardsAnswerLikeAMonolith) {
  const std::vector<std::string> script =
      equivalence_script(topo::make_ring(6));
  const std::vector<Answer> expected = monolithic_answers(script);

  DnaService shard0(topo::make_ring(6), ring_invariants(),
                    {.num_threads = 1, .keep_versions = 6});
  DnaService shard1(topo::make_ring(6), ring_invariants(),
                    {.num_threads = 1, .keep_versions = 6});
  ShardRouter router({loopback_dial(shard0), loopback_dial(shard1)});
  EXPECT_EQ(router.connect_all(), 2u);

  std::vector<Answer> actual;
  for (const std::string& line : script) {
    actual.push_back(to_answer(router.handle(line)));
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "request: " << script[i];
  }

  const RouterMetrics metrics = router.metrics();
  EXPECT_GT(metrics.queries_routed, 0u);
  EXPECT_EQ(metrics.scatters, 2u);  // the two `check loopfree` lines
  EXPECT_EQ(metrics.commits, 3u);
  EXPECT_EQ(metrics.head_version, 4u);
}

TEST(Router, TwoTcpShardsAnswerLikeAMonolith) {
  // The acceptance-criterion deployment: two shard processes-worth of
  // DnaServices behind real TCP listeners, a router in front, clients on
  // the same framed protocol — answers byte-identical to one service.
  const std::vector<std::string> script =
      equivalence_script(topo::make_ring(6));
  const std::vector<Answer> expected = monolithic_answers(script);

  std::vector<std::unique_ptr<ShardHost>> hosts;
  std::vector<Dialer> dialers;
  for (int i = 0; i < 2; ++i) {
    ShardHostOptions options;
    options.service.num_threads = 1;
    options.service.keep_versions = 6;
    hosts.push_back(std::make_unique<ShardHost>(topo::make_ring(6),
                                                ring_invariants(), options));
    dialers.push_back(hosts.back()->dialer());
  }
  ShardRouter router(std::move(dialers));
  EXPECT_EQ(router.connect_all(), 2u);

  // Serve the router itself over TCP and talk to it like any server.
  TcpListener listener(0);
  SessionServer server(listener, [&router](Transport& transport) {
    RouterSession session(router, transport);
    session.run();
    return session.shutdown_requested();
  });
  server.start();

  std::vector<Answer> actual;
  {
    auto transport = connect_tcp("127.0.0.1", listener.port());
    ServiceClient client(*transport);
    for (const std::string& line : script) {
      actual.push_back(to_answer(client.request(line)));
    }
    client.close();
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "request: " << script[i];
  }

  // A client-requested shutdown cascades: router acks, shards stop.
  {
    auto transport = connect_tcp("127.0.0.1", listener.port());
    ServiceClient client(*transport);
    EXPECT_EQ(client.request("shutdown").body, "shutting down");
  }
  server.join();
  EXPECT_TRUE(server.shutdown_requested());
  for (const auto& host : hosts) {
    host->wait();
    EXPECT_TRUE(host->shutdown_requested());
  }
}

// ---------------------------------------------------------------------------
// Partial failure: typed errors, reconnect, replay
// ---------------------------------------------------------------------------

/// A query the partition map routes to `target` first — found by scanning
/// node names, so the test holds for any hash function. Empty when the
/// ring gave `target` none of the topology's names (legitimate for small
/// name sets under consistent hashing).
std::string query_owned_by(const topo::Topology& topology, uint32_t target,
                           uint32_t count) {
  for (topo::NodeId node = 0; node < topology.num_nodes(); ++node) {
    if (shard_of(topology.node_name(node), count) == target) {
      return "reach " + topology.node_name(node) + " 172.31.1.1";
    }
  }
  return "";
}

TEST(Router, ShardDownIsATypedErrorAndRecoveryReplaysWithoutReplicas) {
  // R=1 is the unreplicated (pre-failover) deployment: a dead shard's
  // queries fail typed, and the restarted shard is healed by replay.
  const topo::Snapshot base = topo::make_ring(6);
  TempDir dirs;

  ShardHostOptions options0;
  options0.service.num_threads = 1;
  options0.service.journal_dir = dirs.sub("j0");
  auto host0 =
      std::make_unique<ShardHost>(base, ring_invariants(), options0);

  ShardHostOptions options1;
  options1.service.num_threads = 1;
  options1.service.journal_dir = dirs.sub("j1");
  auto host1 =
      std::make_unique<ShardHost>(base, ring_invariants(), options1);

  // Dialers read the current port through an indirection so a restarted
  // shard (fresh ephemeral port) is reachable without rebuilding the
  // router — the moral equivalent of a service VIP.
  auto port0 = std::make_shared<std::atomic<uint16_t>>(host0->port());
  auto port1 = std::make_shared<std::atomic<uint16_t>>(host1->port());
  auto dial = [](std::shared_ptr<std::atomic<uint16_t>> port) -> Dialer {
    return [port] { return connect_tcp("127.0.0.1", port->load()); };
  };
  // The hosts are interchangeable, so kill whichever shard the ring made
  // primary for r0 — it provably owns at least one query.
  const uint32_t victim = PartitionMap(2).owner_of("r0");
  const uint32_t survivor = 1 - victim;
  std::vector<Dialer> dialers = {dial(port0), dial(port1)};
  if (victim == 0) {
    // The dialers above already captured the port cells by value, so
    // re-binding the *names* host1/port1/options1 to shard 0's objects is
    // enough: shard index `victim` keeps dialing the cell now named port1.
    std::swap(host0, host1);
    std::swap(options0, options1);
    std::swap(port0, port1);
  }
  // From here: host1/port1/options1 is the victim (shard index `victim`),
  // host0 the survivor.
  ShardRouter router(std::move(dialers), {.replicas = 1});
  EXPECT_EQ(router.connect_all(), 2u);

  const std::string to_victim = query_owned_by(base.topology, victim, 2);
  ASSERT_FALSE(to_victim.empty());
  const std::string to_survivor = query_owned_by(base.topology, survivor, 2);
  EXPECT_TRUE(router.handle(to_victim).ok);
  if (!to_survivor.empty()) EXPECT_TRUE(router.handle(to_survivor).ok);
  EXPECT_TRUE(router.handle("commit fail_link 1").ok);

  // Kill the victim (listener down, sessions evicted, service gone).
  host1.reset();

  // Its queries fail *typed* — ok=false naming the shard — and fast; the
  // other shard keeps answering; a global scatter also fails typed.
  const std::string unavailable =
      "shard " + std::to_string(victim) + " unavailable";
  const QueryResult down = router.handle(to_victim);
  EXPECT_FALSE(down.ok);
  EXPECT_NE(down.body.find(unavailable), std::string::npos) << down.body;
  if (!to_survivor.empty()) EXPECT_TRUE(router.handle(to_survivor).ok);
  const QueryResult scatter = router.handle("check loopfree");
  EXPECT_FALSE(scatter.ok);
  EXPECT_NE(scatter.body.find(unavailable), std::string::npos);

  // With R=1 a dead shard is a hole in the deployment: health says so.
  const Health health = router.health();
  EXPECT_FALSE(health.ok);
  EXPECT_NE(health.detail.find("unhealthy"), std::string::npos);

  // A commit while the shard is down is acked by the survivors and
  // recorded for replay.
  const QueryResult commit = router.handle("commit link_cost 0 9");
  EXPECT_TRUE(commit.ok);
  EXPECT_EQ(commit.version, 3u);

  // Restart the victim from its journal: it recovers version 2 on its
  // own, and the router's catch-up replays version 3 before the next
  // answer. The breaker opened while it was down; wait out the backoff so
  // the next routed query actually re-dials.
  host1 = std::make_unique<ShardHost>(base, ring_invariants(), options1);
  port1->store(host1->port());
  EXPECT_EQ(host1->service().recovered_commits(), 1u);
  EXPECT_EQ(host1->service().head()->id, 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(350));

  const QueryResult recovered = router.handle(to_victim);
  EXPECT_TRUE(recovered.ok) << recovered.body;
  EXPECT_EQ(recovered.version, 3u);
  EXPECT_EQ(host1->service().head()->id, 3u);

  // And the healed deployment again answers exactly like a monolith.
  DnaService monolith(base, ring_invariants(), {.num_threads = 1});
  monolith.commit_text("fail_link 1");
  monolith.commit_text("link_cost 0 9");
  for (topo::NodeId node = 0; node < base.topology.num_nodes(); ++node) {
    const std::string line =
        "reach " + base.topology.node_name(node) + " 172.31.1.1";
    EXPECT_EQ(to_answer(router.handle(line)), to_answer(monolith.query(line)))
        << line;
  }
  const QueryResult scatter_again = router.handle("check loopfree");
  EXPECT_EQ(to_answer(scatter_again),
            to_answer(monolith.query("check loopfree")));

  const RouterMetrics metrics = router.metrics();
  EXPECT_GE(metrics.reconnects, 1u);
  EXPECT_EQ(metrics.replayed_commits, 1u);
  EXPECT_GE(metrics.shard_errors, 2u);
  EXPECT_GE(metrics.breaker_opens, 1u);
  EXPECT_EQ(metrics.head_version, 3u);
}

TEST(Router, AllShardsDownFailsCommitTyped) {
  ShardRouter router({[]() -> std::unique_ptr<Transport> {
    throw Error("nothing listening");
  }});
  const QueryResult commit = router.handle("commit fail_link 0");
  EXPECT_FALSE(commit.ok);
  EXPECT_NE(commit.body.find("no shard reachable"), std::string::npos);
  const QueryResult query = router.handle("version");
  EXPECT_FALSE(query.ok);
  EXPECT_NE(query.body.find("shard 0 unavailable"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Replication: failover, quorum, journal-seeded sync
// ---------------------------------------------------------------------------

TEST(Router, FailoverCoversAKilledShardByteIdentically) {
  // The acceptance drill, in-process: R=2, kill one shard, run the whole
  // equivalence script — zero failed requests, answers byte-identical to
  // a monolith, health degraded but still ok.
  const std::vector<std::string> script =
      equivalence_script(topo::make_ring(6));
  const std::vector<Answer> expected = monolithic_answers(script);

  std::vector<std::unique_ptr<ShardHost>> hosts;
  std::vector<Dialer> dialers;
  for (int i = 0; i < 2; ++i) {
    ShardHostOptions options;
    options.service.num_threads = 1;
    options.service.keep_versions = 6;
    hosts.push_back(std::make_unique<ShardHost>(topo::make_ring(6),
                                                ring_invariants(), options));
    dialers.push_back(hosts.back()->dialer());
  }
  ShardRouter router(std::move(dialers), {.replicas = 2, .quorum = 1});
  EXPECT_EQ(router.connect_all(), 2u);

  // kill -9, morally: the shard's listener and sessions vanish mid-tier.
  hosts[1]->stop();

  std::vector<Answer> actual;
  for (const std::string& line : script) {
    actual.push_back(to_answer(router.handle(line)));
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "request: " << script[i];
  }

  const Health health = router.health();
  EXPECT_TRUE(health.ok) << health.detail;
  EXPECT_NE(health.detail.find("degraded"), std::string::npos)
      << health.detail;

  const RouterMetrics metrics = router.metrics();
  EXPECT_GT(metrics.failovers, 0u);
  EXPECT_EQ(metrics.commits, 3u);
  EXPECT_EQ(metrics.degraded_commits, 3u);
  EXPECT_EQ(metrics.head_version, 4u);
  EXPECT_EQ(metrics.replicas, 2u);
  EXPECT_EQ(metrics.quorum, 1u);
}

TEST(Router, QuorumShortfallIsATypedFailureButVersionsStayMonotonic) {
  // quorum=2 with one shard permanently dead: every commit lands on the
  // survivor (versions keep increasing, queries see the new state) but the
  // router refuses to call it replicated.
  DnaService alive(topo::make_ring(6), ring_invariants(), {.num_threads = 1});
  ShardRouter router(
      {loopback_dial(alive),
       []() -> std::unique_ptr<Transport> { throw Error("dead"); }},
      {.replicas = 2, .quorum = 2});

  const QueryResult first = router.handle("commit fail_link 1");
  EXPECT_FALSE(first.ok);
  EXPECT_NE(first.body.find("under-replicated: 1/2"), std::string::npos)
      << first.body;
  EXPECT_EQ(first.version, 2u);
  EXPECT_EQ(alive.head()->id, 2u);

  const QueryResult second = router.handle("commit link_cost 0 9");
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(second.version, 3u) << "version ids must stay monotonic";
  EXPECT_EQ(alive.head()->id, 3u);

  // Queries still answer — failover covers the dead shard — and reflect
  // the committed state.
  const QueryResult version = router.handle("version");
  EXPECT_TRUE(version.ok) << version.body;
  EXPECT_EQ(version.version, 3u);

  const RouterMetrics metrics = router.metrics();
  EXPECT_EQ(metrics.commits, 0u);
  EXPECT_EQ(metrics.head_version, 3u);
}

TEST(Router, WipedShardAndFreshRouterWarmUpByJournalSeededSync) {
  // The scale-out / disaster path: shard 1 loses its journal entirely and
  // the router restarts with it (no in-memory history). Catch-up cannot
  // replay — the history is gone — so the new router clones shard 0's
  // compacted snapshot into shard 1 (`sync` + `seed`) and the deployment
  // converges at the head version.
  const topo::Snapshot base = topo::make_ring(6);
  TempDir dirs;

  ShardHostOptions options0;
  options0.service.num_threads = 1;
  options0.service.journal_dir = dirs.sub("j0");
  auto host0 = std::make_unique<ShardHost>(base, ring_invariants(), options0);

  ShardHostOptions options1;
  options1.service.num_threads = 1;
  options1.service.journal_dir = dirs.sub("j1");
  auto host1 = std::make_unique<ShardHost>(base, ring_invariants(), options1);

  auto port0 = std::make_shared<std::atomic<uint16_t>>(host0->port());
  auto port1 = std::make_shared<std::atomic<uint16_t>>(host1->port());
  auto dial = [](std::shared_ptr<std::atomic<uint16_t>> port) -> Dialer {
    return [port] { return connect_tcp("127.0.0.1", port->load()); };
  };

  {
    ShardRouter router({dial(port0), dial(port1)}, {.replicas = 2});
    EXPECT_EQ(router.connect_all(), 2u);
    EXPECT_TRUE(router.handle("commit fail_link 1").ok);
    EXPECT_TRUE(router.handle("commit link_cost 0 9").ok);
  }  // the router (and its commit history) is gone

  // Wipe shard 1: journal deleted, process restarted from the base model.
  host1.reset();
  std::filesystem::remove_all(dirs.sub("j1"));
  host1 = std::make_unique<ShardHost>(base, ring_invariants(), options1);
  port1->store(host1->port());
  EXPECT_EQ(host1->service().recovered_commits(), 0u);
  EXPECT_EQ(host1->service().head()->id, 1u);

  // A brand-new router probes shard 0 (head v3), finds shard 1 at v1 with
  // an unbridgeable history gap, and heals it by cloning.
  ShardRouter router({dial(port0), dial(port1)}, {.replicas = 2});
  EXPECT_EQ(router.connect_all(), 2u);

  EXPECT_EQ(host1->service().head()->id, 3u);
  const RouterMetrics metrics = router.metrics();
  EXPECT_GE(metrics.syncs, 1u);
  EXPECT_EQ(metrics.head_version, 3u);
  EXPECT_EQ(metrics.shard_versions[0], 3u);
  EXPECT_EQ(metrics.shard_versions[1], 3u);

  // The clone is the state, not an approximation: both shards hash the
  // same model, and the deployment answers exactly like a monolith that
  // took the same commits.
  const QueryResult hash0 = host0->service().query("hash");
  const QueryResult hash1 = host1->service().query("hash");
  EXPECT_EQ(hash0.body, hash1.body);

  DnaService monolith(base, ring_invariants(), {.num_threads = 1});
  monolith.commit_text("fail_link 1");
  monolith.commit_text("link_cost 0 9");
  for (topo::NodeId node = 0; node < base.topology.num_nodes(); ++node) {
    const std::string line =
        "reach " + base.topology.node_name(node) + " 172.31.1.1";
    EXPECT_EQ(to_answer(router.handle(line)), to_answer(monolith.query(line)))
        << line;
  }
  EXPECT_EQ(to_answer(router.handle("check loopfree")),
            to_answer(monolith.query("check loopfree")));

  // The seeded shard serves from its *own* journal on the next restart —
  // the seed was compacted into it, not just installed in memory.
  host1.reset();
  host1 = std::make_unique<ShardHost>(base, ring_invariants(), options1);
  EXPECT_EQ(host1->service().head()->id, 3u);
}

TEST(Router, TornMidFrameCommitIsAppliedExactlyOnce) {
  // FlakyTransport kills shard 1's link after 20 bytes — past the version
  // probe ("7\nversion", 9 bytes framed), mid-way through the first commit
  // frame ("18\ncommit fail_link 1", 21 bytes). The
  // shard receives a torn frame (never applies), the router records the
  // commit (quorum 1 met by shard 0), and the reconnect replays it exactly
  // once: no lost commit, no double-apply.
  DnaService shard0(topo::make_ring(6), ring_invariants(), {.num_threads = 1});
  DnaService shard1(topo::make_ring(6), ring_invariants(), {.num_threads = 1});
  const Dialer inner1 = loopback_dial(shard1);
  auto first_dial = std::make_shared<std::atomic<bool>>(true);
  Dialer flaky1 = [inner1, first_dial]() -> std::unique_ptr<Transport> {
    if (first_dial->exchange(false)) {
      return make_flaky(inner1(), {.seed = 7, .fail_after_bytes = 20});
    }
    return inner1();
  };
  ShardRouter router({loopback_dial(shard0), flaky1},
                     {.replicas = 2, .quorum = 1});
  EXPECT_EQ(router.connect_all(), 2u);

  const QueryResult commit = router.handle("commit fail_link 1");
  EXPECT_TRUE(commit.ok) << commit.body;
  EXPECT_EQ(commit.version, 2u);
  EXPECT_EQ(shard0.head()->id, 2u);
  EXPECT_EQ(shard1.head()->id, 1u) << "the torn frame must not apply";

  // Wait out the breaker, then scatter: scope 1 prefers shard 1, so the
  // reconnect catch-up replays version 2 — once — before it answers.
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  const QueryResult scatter = router.handle("check loopfree");
  EXPECT_TRUE(scatter.ok) << scatter.body;
  EXPECT_EQ(shard1.head()->id, 2u);
  const RouterMetrics metrics = router.metrics();
  EXPECT_EQ(metrics.replayed_commits, 1u);
  EXPECT_EQ(metrics.degraded_commits, 1u);
  EXPECT_EQ(metrics.head_version, 2u);
}

}  // namespace
}  // namespace dna::service::shard
