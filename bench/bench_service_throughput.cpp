// Serving-layer benchmarks for the long-lived query service:
//
//  1. Query throughput scaling: a fixed batch of reachability queries
//     against a resident fat-tree model, as the worker count grows 1 -> N.
//     Answers must be identical for every thread count.
//
//  2. Live update latency: committing a change against the running service
//     differentially vs recomputing the same change from scratch
//     (monolithic mode). The differential commit must win strictly — this
//     is the paper's thesis restated at the serving layer, and the bench
//     fails (exit 1) if it ever does not.
//
//  3. Durability cost: the same differential commit with the write-ahead
//     journal off, on without fsync, and on with fsync — what crash
//     durability actually charges per commit.
//
//  4. Sharded serving: the same query batch pushed through a ShardRouter
//     over 1, 2, and 4 TCP shard processes-worth of DnaServices (in-process
//     hosts on ephemeral ports — the identical serving stack `dna_cli
//     shard-serve`/`route` run). Answers must be identical at every shard
//     count; throughput should scale with the shard count because each
//     shard owns its partition's queries end to end.
//
// Output: human-readable tables plus machine-readable BENCH_service.json
// (same shape as BENCH_scenario.json: ns-per-op results, ratios, peak
// RSS; see bench_common.h). Flags:
//   --k=N                  fat-tree parameter (default 4)
//   --queries=N            queries per throughput run (default 224)
//   --quick                smaller trial counts (CI)
//   --json=PATH            write the JSON report (default BENCH_service.json)
//   --check=BASELINE.json  fail (exit 1) if a CPU-bound bench regresses >2x
//                          versus the baseline; the comparison is
//                          calibrated by the monolithic commit (fixed
//                          engine code measured in this very process) so it
//                          ports across machine speeds. fsync-bound numbers
//                          are recorded but never gated — they measure the
//                          disk, not the code.
//   (positional: [k] [queries], kept for compatibility)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <sys/resource.h>
#endif

#include "bench_common.h"
#include "core/change.h"
#include "obs/metrics.h"
#include "scenario/spec.h"
#include "service/net/server.h"
#include "service/net/tcp.h"
#include "service/service.h"
#include "service/shard/host.h"
#include "service/shard/router.h"
#include "topo/generators.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace dna;

namespace {

bench::BenchReport g_report;

void record(const std::string& name, size_t ops, double seconds,
            bool gated = true) {
  g_report.record(name, ops, seconds, gated);
}

double ns_of(const std::string& name) { return g_report.ns_of(name); }

/// One throughput run's latency attribution: where each query's wall time
/// went, summed over the batch — the same queue/catchup/eval partition
/// `dna_cli diagnose` reports, here as a function of the thread count.
struct LegRow {
  size_t threads = 0;
  double queue_seconds = 0;
  double fanout_seconds = 0;
  double catchup_seconds = 0;
  double eval_seconds = 0;
  double total_seconds = 0;  // service.query_seconds sum (submit→done)

  double share(double leg) const {
    return total_seconds > 0 ? leg / total_seconds : 0;
  }
};

std::vector<LegRow> g_leg_rows;

/// Host-to-host reachability questions derived from the snapshot itself:
/// one "reach <src> <addr-in-dst-host-net>" per ordered owner pair.
std::vector<std::string> make_queries(const topo::Snapshot& base,
                                      size_t count) {
  std::vector<std::string> queries;
  const auto invariants = scenario::host_reachability_invariants(base);
  if (invariants.empty()) {
    std::fprintf(stderr, "no host networks in base snapshot\n");
    std::exit(1);
  }
  while (queries.size() < count) {
    for (const core::Invariant& invariant : invariants) {
      if (queries.size() >= count) break;
      const Ipv4Addr probe(invariant.traffic.first().bits() + 1);
      queries.push_back("reach " + invariant.src + " " + probe.str());
    }
  }
  return queries;
}

void bench_throughput(int k, size_t num_queries, int trials) {
  const topo::Snapshot base = topo::make_fattree(k);
  const std::vector<std::string> queries = make_queries(base, num_queries);
  std::printf("fat-tree k=%d: %zu nodes, %zu links, %zu queries per run\n", k,
              base.topology.num_nodes(), base.topology.num_links(),
              queries.size());
  std::printf("%8s %12s %12s %10s %10s %8s %8s %8s %7s %7s %7s %7s\n",
              "threads", "total ms", "queries/s", "speedup", "answers",
              "p50 ms", "p95 ms", "p99 ms", "queue%", "fanout%", "catchup%",
              "eval%");
  bench::print_rule(118);

  std::vector<std::string> reference;
  double t1_ms = 0;
  bool all_identical = true;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    service::DnaService service(base, {}, {.num_threads = threads});
    // Warm every worker replica (base verification) outside the timing.
    // One round is not enough: work stealing lets the first worker awake
    // run a whole round while its siblings are still parked (acute on
    // few-core runners), leaving their replicas cold to be built
    // mid-measurement. Submit rounds until every worker has actually run
    // a query — each worker's first task builds its replica.
    for (int round = 0; round < 64; ++round) {
      std::vector<std::future<service::QueryResult>> warmup;
      for (size_t i = 0; i < service.num_workers() * 2; ++i) {
        warmup.push_back(service.submit(queries[i % queries.size()]));
      }
      for (auto& future : warmup) future.get();
      // Only the pool workers need warming — the trailing row is the
      // dispatcher's inline-serve slot, which small batches warm on
      // their own.
      const auto stats = service.worker_stats();
      const bool all_warm = std::all_of(
          stats.begin(), stats.begin() + service.num_workers(),
          [](const auto& s) { return s.tasks > 0; });
      if (all_warm) break;
    }

    // Best of `trials` floods: one flood lasts well under a scheduler
    // quantum, so a single shot measures the runner's noise floor, not
    // the code. Best-of is the same policy the commit benches use.
    double ms = 1e30;
    std::vector<std::string> answers;
    for (int trial = 0; trial < trials; ++trial) {
      Stopwatch stopwatch;
      std::vector<std::future<service::QueryResult>> futures;
      futures.reserve(queries.size());
      for (const std::string& query : queries) {
        futures.push_back(service.submit(query));
      }
      std::vector<std::string> trial_answers;
      trial_answers.reserve(futures.size());
      for (auto& future : futures) {
        service::QueryResult result = future.get();
        if (!result.ok) {
          std::fprintf(stderr, "FAIL: query error: %s\n", result.body.c_str());
          std::exit(1);
        }
        trial_answers.push_back(std::move(result.body));
      }
      ms = std::min(ms, stopwatch.elapsed_ms());
      if (trial > 0 && trial_answers != answers) {
        std::fprintf(stderr, "FAIL: answers diverged across trials\n");
        std::exit(1);
      }
      answers = std::move(trial_answers);
    }
    // Only the single-thread number is portable enough to gate: the
    // scaling entries depend on the runner's core count and
    // oversubscription behavior, not on the code under test.
    record("query_t" + std::to_string(threads), queries.size(), ms / 1e3,
           /*gated=*/threads == 1);

    // Per-query latency percentiles from the service's own telemetry —
    // the same histogram `dna_cli stats` serves in production. (The warmup
    // queries are included; they are a rounding error of the batch.)
    const obs::Histogram::Snapshot lat =
        service.registry().histogram("service.query_seconds").snapshot();
    const obs::Histogram::Snapshot::Quantiles lat_q = lat.quantiles();
    const std::string prefix = "query_t" + std::to_string(threads);
    // Percentiles depend on queueing under the chosen thread count —
    // recorded for dashboards, never gated.
    record(prefix + "_p50", 1, lat_q.p50 * 1e-9, /*gated=*/false);
    record(prefix + "_p95", 1, lat_q.p95 * 1e-9, /*gated=*/false);
    record(prefix + "_p99", 1, lat_q.p99 * 1e-9, /*gated=*/false);

    // Leg attribution: the queue/catchup/eval histograms partition every
    // query's submit→done time, so their sums over the batch say where
    // this thread count actually spent its latency budget (the warmup
    // queries are in the sums too — same rounding error as above).
    auto hist_sum_seconds = [&service](const char* name) {
      return service.registry().histogram(name).snapshot().sum * 1e-9;
    };
    LegRow legs;
    legs.threads = threads;
    legs.queue_seconds = hist_sum_seconds("service.query_queue_seconds");
    legs.fanout_seconds = hist_sum_seconds("service.query_fanout_seconds");
    legs.catchup_seconds = hist_sum_seconds("service.replica_catchup_seconds");
    legs.eval_seconds = hist_sum_seconds("service.query_eval_seconds");
    legs.total_seconds = lat.sum * 1e-9;
    g_leg_rows.push_back(legs);
    if (lat.count > 0) {
      record(prefix + "_leg_queue", lat.count, legs.queue_seconds,
             /*gated=*/false);
      record(prefix + "_leg_fanout", lat.count, legs.fanout_seconds,
             /*gated=*/false);
      record(prefix + "_leg_catchup", lat.count, legs.catchup_seconds,
             /*gated=*/false);
      record(prefix + "_leg_eval", lat.count, legs.eval_seconds,
             /*gated=*/false);
    }

    if (reference.empty()) {
      reference = answers;
      t1_ms = ms;
    }
    const bool identical = answers == reference;
    all_identical = all_identical && identical;
    std::printf(
        "%8zu %12.1f %12.0f %9.2fx %10s %8.2f %8.2f %8.2f %6.1f%% %6.1f%% "
        "%6.1f%% %6.1f%%\n",
        threads, ms, queries.size() / (ms / 1e3), t1_ms / ms,
        identical ? "identical" : "DIVERGED", lat_q.p50 * 1e-6,
        lat_q.p95 * 1e-6, lat_q.p99 * 1e-6,
        legs.share(legs.queue_seconds) * 100,
        legs.share(legs.fanout_seconds) * 100,
        legs.share(legs.catchup_seconds) * 100,
        legs.share(legs.eval_seconds) * 100);
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("(%u hardware thread(s) available; speedup saturates there)\n\n",
              hw);
  if (!all_identical) {
    std::printf("FAIL: answers diverged across thread counts\n");
    std::exit(1);
  }
}

void bench_live_commit(int k, int trials) {
  const topo::Snapshot base = topo::make_fattree(k);
  service::DnaService service(base, {}, {.num_threads = 2});
  // The service is live: a resident writer engine holds the verified head.
  service.query("reach " + base.topology.node_name(0) + " 172.31.1.1");

  std::printf("live commit, fat-tree k=%d (set one link cost):\n", k);
  std::printf("%24s %12s\n", "mode", "best ms");
  bench::print_rule(38);

  double best_diff = 1e30, best_mono = 1e30;
  int cost = 40;
  for (int trial = 0; trial < trials; ++trial) {
    const auto diff =
        service.commit(core::ChangePlan::link_cost(0, cost++),
                       core::Mode::kDifferential);
    best_diff = std::min(best_diff, diff.seconds);
    const auto mono =
        service.commit(core::ChangePlan::link_cost(0, cost++),
                       core::Mode::kMonolithic);
    best_mono = std::min(best_mono, mono.seconds);
  }
  record("commit_differential", 1, best_diff);
  record("commit_monolithic", 1, best_mono, /*gated=*/false);  // the anchor
  std::printf("%24s %12.2f\n", "differential", best_diff * 1e3);
  std::printf("%24s %12.2f\n", "monolithic", best_mono * 1e3);
  std::printf("differential is %.1fx faster\n\n", best_mono / best_diff);
  if (best_diff >= best_mono) {
    std::printf(
        "FAIL: differential commit not strictly faster than monolithic\n");
    std::exit(1);
  }
}

/// One sharded deployment end to end: N in-process shard hosts on
/// ephemeral TCP ports, a router over them, itself served on TCP, and a
/// pool of client connections pushing `queries` through it. Returns the
/// answer bodies in query order (so callers can assert shard-count
/// invariance) and the wall time via `out_ms`.
std::vector<std::string> run_sharded(const topo::Snapshot& base,
                                     const std::vector<std::string>& queries,
                                     size_t num_shards, size_t num_clients,
                                     double* out_ms) {
  namespace shard = service::shard;
  std::vector<std::unique_ptr<shard::ShardHost>> hosts;
  std::vector<shard::Dialer> dialers;
  for (size_t i = 0; i < num_shards; ++i) {
    shard::ShardHostOptions options;
    options.service.num_threads = 1;
    hosts.push_back(std::make_unique<shard::ShardHost>(
        base, std::vector<core::Invariant>{}, options));
    dialers.push_back(hosts.back()->dialer());
  }
  shard::ShardRouter router(std::move(dialers));
  if (router.connect_all() != num_shards) {
    std::fprintf(stderr, "FAIL: sharded bench could not reach every shard\n");
    std::exit(1);
  }
  service::TcpListener listener(0);
  service::SessionServer server(listener, [&](service::Transport& transport) {
    shard::RouterSession session(router, transport);
    session.run();
    return session.shutdown_requested();
  });
  server.start();

  const std::string host = listener.host();
  const uint16_t port = listener.port();
  std::vector<std::string> answers(queries.size());
  std::atomic<bool> failed{false};
  auto drive = [&](size_t client, bool record) {
    auto transport = service::connect_tcp(host, port);
    service::ServiceClient service_client(*transport);
    for (size_t i = client; i < queries.size(); i += num_clients) {
      const service::QueryResult result = service_client.request(queries[i]);
      if (!result.ok) {
        std::fprintf(stderr, "FAIL: sharded query error: %s\n",
                     result.body.c_str());
        failed.store(true);
        return;
      }
      if (record) answers[i] = std::move(result.body);
    }
    service_client.close();
  };

  auto round = [&](bool record) {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back(drive, c, record);
    }
    for (std::thread& thread : clients) thread.join();
  };
  round(/*record=*/false);  // warm every shard's replica (base verification)
  Stopwatch stopwatch;
  round(/*record=*/true);
  *out_ms = stopwatch.elapsed_ms();

  server.stop();
  if (failed.load()) std::exit(1);
  return answers;
}

void bench_sharded(int k, size_t num_queries) {
  const topo::Snapshot base = topo::make_fattree(k);
  const std::vector<std::string> queries = make_queries(base, num_queries);
  std::printf(
      "sharded serving, fat-tree k=%d: %zu queries through a TCP router\n", k,
      queries.size());
  std::printf("%8s %12s %12s %10s %10s\n", "shards", "total ms", "queries/s",
              "speedup", "answers");
  bench::print_rule(58);

  std::vector<std::string> reference;
  double s1_ms = 0;
  bool all_identical = true;
  for (const size_t shards : {1u, 2u, 4u}) {
    double ms = 0;
    const std::vector<std::string> answers =
        run_sharded(base, queries, shards, /*num_clients=*/8, &ms);
    // Machine-dependent (cores, loopback stack) — recorded, never gated.
    record("sharded_s" + std::to_string(shards), queries.size(), ms / 1e3,
           /*gated=*/false);
    if (reference.empty()) {
      reference = answers;
      s1_ms = ms;
    }
    const bool identical = answers == reference;
    all_identical = all_identical && identical;
    std::printf("%8zu %12.1f %12.0f %9.2fx %10s\n", shards, ms,
                queries.size() / (ms / 1e3), s1_ms / ms,
                identical ? "identical" : "DIVERGED");
  }
  std::printf("\n");
  if (!all_identical) {
    std::printf("FAIL: answers diverged across shard counts\n");
    std::exit(1);
  }
}

/// The availability bill: tail latency of a replicated (R=2) two-shard
/// fabric when one shard dies cold mid-stream. A single client streams
/// queries through the router; halfway in, shard 1's host is stopped.
/// Every query must still answer — the router fails the dead replica over
/// to the survivor — and the rows compare the steady-state window's p99
/// with the degraded window's (which includes the kill itself, i.e. the
/// first query that eats the dead-connection error plus the re-dial).
void bench_failover(int k, size_t num_queries) {
  namespace shard = service::shard;
  const topo::Snapshot base = topo::make_fattree(k);
  const std::vector<std::string> queries = make_queries(base, num_queries);
  std::vector<std::unique_ptr<shard::ShardHost>> hosts;
  std::vector<shard::Dialer> dialers;
  for (size_t i = 0; i < 2; ++i) {
    shard::ShardHostOptions options;
    options.service.num_threads = 1;
    hosts.push_back(std::make_unique<shard::ShardHost>(
        base, std::vector<core::Invariant>{}, options));
    dialers.push_back(hosts.back()->dialer());
  }
  shard::ShardRouter router(std::move(dialers), {.replicas = 2});
  if (router.connect_all() != 2) {
    std::fprintf(stderr, "FAIL: failover bench could not reach every shard\n");
    std::exit(1);
  }
  // Warm both replicas (base verification) outside the timing.
  for (const std::string& query : queries) {
    if (!router.handle(query).ok) std::exit(1);
  }

  std::vector<double> steady, degraded;
  const size_t half = queries.size() / 2;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == half) hosts[1]->stop();  // kill, no drain: sockets die live
    Stopwatch stopwatch;
    const service::QueryResult result = router.handle(queries[i]);
    const double ms = stopwatch.elapsed_ms();
    if (!result.ok) {
      std::fprintf(stderr, "FAIL: query failed during failover: %s\n",
                   result.body.c_str());
      std::exit(1);
    }
    (i < half ? steady : degraded).push_back(ms);
  }

  auto percentile = [](std::vector<double> window, double p) {
    std::sort(window.begin(), window.end());
    const size_t rank = static_cast<size_t>(p * (window.size() - 1) + 0.5);
    return window[std::min(rank, window.size() - 1)];
  };
  const double steady_p99 = percentile(steady, 0.99);
  const double degraded_p99 = percentile(degraded, 0.99);
  const double worst = *std::max_element(degraded.begin(), degraded.end());
  std::printf(
      "failover, fat-tree k=%d: R=2 router, shard 1 stopped mid-stream "
      "(%zu queries, 0 failed)\n",
      k, queries.size());
  std::printf("%24s %10s %10s %10s\n", "window", "p50 ms", "p99 ms",
              "worst ms");
  bench::print_rule(58);
  std::printf("%24s %10.3f %10.3f %10.3f\n", "steady (2/2 up)",
              percentile(steady, 0.50), steady_p99,
              *std::max_element(steady.begin(), steady.end()));
  std::printf("%24s %10.3f %10.3f %10.3f\n", "degraded (1/2 up)",
              percentile(degraded, 0.50), degraded_p99, worst);
  std::printf("first answer after the kill took %.3f ms\n\n", degraded[0]);
  // Wall-clock latencies of a live TCP fabric — recorded, never gated.
  record("failover_p99_steady", 1, steady_p99 * 1e-3, /*gated=*/false);
  record("failover_p99_degraded", 1, degraded_p99 * 1e-3, /*gated=*/false);
  record("failover_first_after_kill", 1, degraded[0] * 1e-3, /*gated=*/false);
}

/// The durability bill: identical differential commits through the
/// write-ahead journal, without and with per-commit fsync.
void bench_journal_commit(int k, int trials) {
  const topo::Snapshot base = topo::make_fattree(k);
  std::printf("journaled commit, fat-tree k=%d (set one link cost):\n", k);
  std::printf("%24s %12s\n", "journal", "best ms");
  bench::print_rule(38);

  const struct {
    const char* name;
    service::FsyncPolicy fsync;
    bool gated;
  } variants[] = {
      {"commit_journal_nofsync", service::FsyncPolicy::kNever, true},
      // fsync latency measures the disk under the CI runner, not the
      // representation; record it, never gate on it.
      {"commit_journal_fsync", service::FsyncPolicy::kAlways, false},
  };
  for (const auto& variant : variants) {
    std::string dir_template =
        (std::filesystem::temp_directory_path() / "dna_bench_XXXXXX");
    const char* dir = ::mkdtemp(dir_template.data());
    if (dir == nullptr) {
      std::fprintf(stderr, "cannot create temp journal dir from %s\n",
                   dir_template.c_str());
      std::exit(1);
    }
    service::ServiceOptions options;
    options.num_threads = 2;
    options.journal_dir = dir;
    options.journal_fsync = variant.fsync;
    double best = 1e30;
    {
      service::DnaService service(base, {}, options);
      int cost = 140;
      for (int trial = 0; trial < trials; ++trial) {
        const auto commit =
            service.commit_text("link_cost 0 " + std::to_string(cost++));
        best = std::min(best, commit.seconds);
      }
    }
    std::filesystem::remove_all(dir);
    record(variant.name, 1, best, variant.gated);
    std::printf("%24s %12.2f\n", variant.name, best * 1e3);
  }
  const double plain = ns_of("commit_differential");
  if (plain > 0) {
    std::printf("journal overhead: %.2fx (no fsync), %.2fx (fsync)\n\n",
                ns_of("commit_journal_nofsync") / plain,
                ns_of("commit_journal_fsync") / plain);
  }
}

/// The anti-collapse gate: thread-scaling floors, enforced on every run
/// (no baseline file needed — t1 is measured in this very process, so the
/// ratio is self-calibrated). A healthy service sits at 0.9–1.0x on a
/// single-core runner (everything serializes; the floor is the hand-off
/// overhead) and above 1x wherever cores can actually overlap. The
/// pre-fix collapse sat at 0.28x (t4) / 0.09x (t8) — multiples below any
/// of these floors, so a regression to the serialized submission path
/// fails the bench loudly instead of shipping.
int check_scaling_floors() {
  const struct {
    const char* name;
    double floor;
  } rows[] = {{"query_t2", 0.75}, {"query_t4", 0.75}, {"query_t8", 0.75}};
  const double t1 = ns_of("query_t1");
  int failures = 0;
  for (const auto& row : rows) {
    const double tn = ns_of(row.name);
    const double speedup = tn > 0 ? t1 / tn : 0;
    if (speedup < row.floor) {
      std::printf(
          "FAIL: %s is %.2fx the single-thread throughput, below the %.2fx "
          "floor — the parallel-scaling collapse is back\n",
          row.name, speedup, row.floor);
      ++failures;
    }
  }
  return failures;
}

// ---- report ---------------------------------------------------------------

void write_json(const std::string& path, bool quick) {
  util::JsonWriter json;
  json.begin_object();
  json.key("bench").value("service_throughput");
  json.key("quick").value(quick);
  g_report.append_json(json);
  // Per-thread-count latency attribution (bench_throughput): how the
  // submit→done budget splits across the queue/fanout/catchup/eval legs —
  // the measured face of the t1→t8 scaling collapse ROADMAP #1 tracks.
  json.key("legs").begin_array();
  for (const LegRow& row : g_leg_rows) {
    json.begin_object();
    json.key("threads").value(static_cast<unsigned long long>(row.threads));
    json.key("queue_seconds").value(row.queue_seconds);
    json.key("fanout_seconds").value(row.fanout_seconds);
    json.key("catchup_seconds").value(row.catchup_seconds);
    json.key("eval_seconds").value(row.eval_seconds);
    json.key("total_seconds").value(row.total_seconds);
    json.key("queue_share").value(row.share(row.queue_seconds));
    json.key("fanout_share").value(row.share(row.fanout_seconds));
    json.key("catchup_share").value(row.share(row.catchup_seconds));
    json.key("eval_share").value(row.share(row.eval_seconds));
    json.end_object();
  }
  json.end_array();
  // The failover row (bench_failover): what a kill -9'd replica costs the
  // tail — degraded-window p99 (including the first query that eats the
  // dead connection) against the steady-state p99.
  json.key("failover").begin_object();
  json.key("p99_steady_ms").value(ns_of("failover_p99_steady") * 1e-6);
  json.key("p99_degraded_ms").value(ns_of("failover_p99_degraded") * 1e-6);
  json.key("first_after_kill_ms")
      .value(ns_of("failover_first_after_kill") * 1e-6);
  json.key("p99_degraded_vs_steady")
      .value(ns_of("failover_p99_steady") > 0
                 ? ns_of("failover_p99_degraded") / ns_of("failover_p99_steady")
                 : 0);
  json.end_object();
  json.key("speedups").begin_object();
  // Thread-scaling rows, self-relative (t1 measured in this very process,
  // so the ratios port across machine speeds). These are the gated face
  // of ROADMAP #1: the pre-fix collapse sat at 0.28x (t4) / 0.09x (t8).
  json.key("threads_2")
      .value(ns_of("query_t2") > 0 ? ns_of("query_t1") / ns_of("query_t2") : 0);
  json.key("threads_4")
      .value(ns_of("query_t4") > 0 ? ns_of("query_t1") / ns_of("query_t4") : 0);
  json.key("threads_8")
      .value(ns_of("query_t8") > 0 ? ns_of("query_t1") / ns_of("query_t8") : 0);
  json.key("differential_vs_monolithic")
      .value(ns_of("commit_differential") > 0
                 ? ns_of("commit_monolithic") / ns_of("commit_differential")
                 : 0);
  json.key("sharded_2_vs_1")
      .value(ns_of("sharded_s2") > 0 ? ns_of("sharded_s1") / ns_of("sharded_s2")
                                     : 0);
  json.key("sharded_4_vs_1")
      .value(ns_of("sharded_s4") > 0 ? ns_of("sharded_s1") / ns_of("sharded_s4")
                                     : 0);
  json.end_object();
  json.key("overheads").begin_object();
  json.key("journal_nofsync")
      .value(ns_of("commit_differential") > 0
                 ? ns_of("commit_journal_nofsync") /
                       ns_of("commit_differential")
                 : 0);
  json.key("journal_fsync")
      .value(ns_of("commit_differential") > 0
                 ? ns_of("commit_journal_fsync") /
                       ns_of("commit_differential")
                 : 0);
  json.end_object();
  json.end_object();

  std::ofstream out(path);
  out << json.str() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int k = 4;
  size_t num_queries = 224;
  bool quick = false;
  std::string json_path = "BENCH_service.json";
  std::string baseline_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--k=", 0) == 0) {
      k = std::atoi(arg.c_str() + 4);
    } else if (arg.rfind("--queries=", 0) == 0) {
      num_queries = static_cast<size_t>(std::atoll(arg.c_str() + 10));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--check=", 0) == 0) {
      baseline_path = arg.substr(8);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() > 0) k = std::atoi(positional[0].c_str());
  if (positional.size() > 1) {
    num_queries = static_cast<size_t>(std::atoll(positional[1].c_str()));
  }

  const int trials = quick ? 3 : 5;
  // One flood is ~1 ms of work — run plenty and keep the best so the
  // scaling rows measure the code's floor, not a scheduler quantum.
  bench_throughput(k, num_queries, quick ? 16 : 24);
  bench_sharded(k, quick ? num_queries / 2 : num_queries);
  bench_failover(k, quick ? num_queries / 2 : num_queries);
  bench_live_commit(k, trials);
  bench_journal_commit(k, trials);
  write_json(json_path, quick);

  int failures = check_scaling_floors();
  // The monolithic commit is fixed engine code measured in this very
  // process — the calibration anchor that makes the >2x gate about
  // serving-layer regressions, not runner hardware.
  if (!baseline_path.empty()) {
    failures +=
        g_report.check_against_baseline(baseline_path, "commit_monolithic");
  }
  return failures > 0 ? 1 : 0;
}
