// serve-read, serve-mixed and serve-routed: closed-loop query serving.
//
// nproc clients (nproc - 1 readers beside one paced writer on serve-mixed)
// each call the serving front door back to back over a seeded query mix:
// 75% `reach`, 15% `check reachable`, 8% `paths`, 2% `check loopfree`, over
// every ordered pair of host networks. After a warm-up the run is split
// into kWindows windows; op_us_p50, op_us_p90 and ops_per_s come from the
// best window. Every answer, warm-up included, is compared with a reference
// computed before timing on a fresh engine at the answering version's state.
#include <atomic>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <unistd.h>

#include "core/engine.h"
#include "obs/metrics.h"
#include "scenario/spec.h"
#include "service/net/server.h"
#include "service/net/tcp.h"
#include "service/service.h"
#include "service/session.h"
#include "service/shard/host.h"
#include "service/shard/router.h"
#include "util/rng.h"
#include "workloads.h"

namespace dna::bench_dna {

std::vector<std::string> mix_queries(const topo::Snapshot& base) {
  std::vector<std::string> reach, check, paths;
  for (const core::Invariant& invariant :
       scenario::host_reachability_invariants(base)) {
    const std::string probe = Ipv4Addr(invariant.traffic.first().bits() + 1).str();
    reach.push_back("reach " + invariant.src + " " + probe);
    check.push_back("check reachable " + invariant.src + " " + invariant.dst +
                    " " + invariant.traffic.str());
    paths.push_back("paths " + invariant.src + " " + probe);
  }
  std::vector<std::string> queries = std::move(reach);
  queries.insert(queries.end(), check.begin(), check.end());
  queries.insert(queries.end(), paths.begin(), paths.end());
  queries.push_back("check loopfree");
  return queries;
}

std::vector<std::string> reference_answers(
    const topo::Snapshot& state, const std::vector<std::string>& queries) {
  core::DnaEngine engine(state);
  service::Version version;
  version.id = 1;
  version.snapshot = std::make_shared<const topo::Snapshot>(state);
  std::vector<std::string> answers;
  answers.reserve(queries.size());
  for (const std::string& line : queries) {
    service::QueryResult answer =
        service::eval_query(service::parse_query(line), version, engine);
    DNA_CHECK_MSG(answer.ok, "reference query failed: " + line + ": " + answer.body);
    answers.push_back(std::move(answer.body));
  }
  return answers;
}

std::string answer_mismatch(const service::QueryResult& served,
                            const std::string& expected) {
  if (!served.ok) return "failed: " + served.body;
  if (served.body != expected) {
    return "answered '" + served.body + "', reference '" + expected + "'";
  }
  return "";
}

namespace {

constexpr double kWarmupSeconds = 0.5;
/// Pause between set-up builds, so one slow burst of the machine does not
/// cover all of them.
constexpr double kSetupGapSeconds = 0.2;
constexpr size_t kMixLength = size_t{1} << 16;
/// serve-mixed's writer: commit rate and the seeded change/undo pairs.
constexpr double kCommitsPerSecond = 10;
constexpr size_t kCommitPairs = 16;

struct Mix {
  std::vector<std::string> queries;  // distinct queries, mix_queries() order
  std::vector<uint32_t> sequence;    // seeded draw of query ids
};

Mix make_mix(const topo::Snapshot& base, uint64_t seed) {
  Mix mix;
  mix.queries = mix_queries(base);
  const uint64_t pairs = (mix.queries.size() - 1) / 3;
  Rng rng(seed);
  mix.sequence.reserve(kMixLength);
  for (size_t i = 0; i < kMixLength; ++i) {
    const uint64_t roll = rng.below(100);
    const uint64_t pair = rng.below(pairs);
    uint64_t id = mix.queries.size() - 1;  // check loopfree
    if (roll < 75) {
      id = pair;
    } else if (roll < 90) {
      id = pairs + pair;
    } else if (roll < 98) {
      id = 2 * pairs + pair;
    }
    mix.sequence.push_back(static_cast<uint32_t>(id));
  }
  return mix;
}

/// Reference answers per network state, and which state each version id
/// holds. The writer records a version's state before committing it, so a
/// reader that sees the version finds its state.
class Oracle {
 public:
  Oracle(std::vector<std::vector<std::string>> tables, size_t max_versions)
      : tables_(std::move(tables)), state_of_version_(max_versions) {
    for (auto& state : state_of_version_) state.store(-1);
  }

  /// False when `version` is beyond the table.
  bool record(uint64_t version, int state) {
    if (version >= state_of_version_.size()) return false;
    state_of_version_[version].store(state, std::memory_order_release);
    return true;
  }

  const std::vector<std::string>* at(uint64_t version) const {
    if (version >= state_of_version_.size()) return nullptr;
    const int state = state_of_version_[version].load(std::memory_order_acquire);
    return state < 0 ? nullptr : &tables_[static_cast<size_t>(state)];
  }

 private:
  std::vector<std::vector<std::string>> tables_;
  std::vector<std::atomic<int>> state_of_version_;
};

/// Builds the workload's system kSetupBuilds times, kSetupGapSeconds apart,
/// and records setup_s as the median build; the previous build is torn
/// down, untimed, first.
template <typename System>
std::unique_ptr<System> timed_setup(
    Result& result, Lane* lane,
    const std::function<std::unique_ptr<System>(int)>& build) {
  std::unique_ptr<System> system;
  std::vector<double> seconds;
  for (int i = 0; i < kSetupBuilds; ++i) {
    system.reset();
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kSetupGapSeconds));
    }
    SpanScope span(lane, SpanName::kSetup, -1, static_cast<uint64_t>(i));
    const uint64_t start = now_ns();
    system = build(i);
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  result.e2e("setup_s", median(seconds), "s");
  return system;
}

/// Queries until every pool worker of `service` has served one, so each
/// worker's replica is verified before timing.
void warm_workers(service::DnaService& service,
                  const std::function<void(size_t)>& send, size_t per_round) {
  for (int round = 0; round < 64; ++round) {
    for (size_t i = 0; i < per_round; ++i) send(i);
    const auto stats = service.worker_stats();
    bool warm = true;
    for (size_t w = 0; w < service.num_workers(); ++w) warm &= stats[w].tasks > 0;
    if (warm) return;
  }
}

struct ClientStats {
  std::vector<LatencyHist> windows = std::vector<LatencyHist>(kWindows);
  std::vector<uint64_t> calls = std::vector<uint64_t>(kWindows, 0);
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

using Call = std::function<service::QueryResult(size_t client, const std::string&)>;

/// One client's closed loop over the mix, from `offset`, until `phase`
/// passes the last window. A call's latency lands in the window it started
/// in; warm-up calls (phase -1) are checked but not timed.
void client_loop(const Call& call, size_t client, const Mix& mix, size_t offset,
                 const std::atomic<int>& phase, const Oracle& oracle,
                 SpanName span_name, Lane* lane, Result& result,
                 ClientStats& stats) {
  size_t next = offset;
  for (int window = phase.load(std::memory_order_acquire); window < kWindows;
       window = phase.load(std::memory_order_acquire)) {
    const uint32_t id = mix.sequence[next++ % mix.sequence.size()];
    const std::string& line = mix.queries[id];
    service::QueryResult answer;
    uint64_t start = 0, end = 0;
    {
      SpanScope span(lane, span_name, -1, stats.attempted);
      start = now_ns();
      try {
        answer = call(client, line);
      } catch (const std::exception& e) {
        answer.ok = false;
        answer.body = e.what();
      }
      end = now_ns();
    }
    ++stats.attempted;
    if (window >= 0) {
      stats.windows[static_cast<size_t>(window)].add(end - start);
      ++stats.calls[static_cast<size_t>(window)];
    }
    if (!answer.ok) {
      ++stats.failed;
      continue;
    }
    const std::vector<std::string>* reference = oracle.at(answer.version);
    if (reference == nullptr) {
      result.wrong("'" + line + "' answered at unrecorded version " +
                   std::to_string(answer.version));
    } else if (const std::string why = answer_mismatch(answer, (*reference)[id]);
               !why.empty()) {
      result.wrong("'" + line + "' at version " + std::to_string(answer.version) +
                   ": " + why);
    }
  }
}

/// Hooks around the measured windows, run on the measuring thread.
struct Hooks {
  std::function<void()> begin = [] {};  // just before window 0
  std::function<void()> end = [] {};    // right after the last window
};

/// Runs `clients` closed-loop clients through the warm-up and the windows
/// and records op_us_p50, op_us_p90, ops_per_s and the proc.* metrics.
/// Client c traces into lane c + 1. Returns the mean timed call in µs.
double run_clients(size_t clients, const Call& call, const Mix& mix,
                 const Oracle& oracle, std::atomic<int>& phase,
                 const Options& options, SpanName span_name, Tracer* tracer,
                 Result& result, const Hooks& hooks) {
  std::vector<ClientStats> stats(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      client_loop(call, c, mix, c * (kMixLength / clients), phase, oracle,
                  span_name, tracer ? tracer->lane(c + 1) : nullptr, result,
                  stats[c]);
    });
  }
  const auto window_ns = std::chrono::nanoseconds(
      static_cast<int64_t>(options.seconds / kWindows * 1e9));
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  hooks.begin();
  const ProcSample proc_begin = proc_sample();
  std::vector<double> window_s;
  uint64_t window_start = now_ns();
  for (int w = 0; w < kWindows; ++w) {
    phase.store(w, std::memory_order_release);
    std::this_thread::sleep_for(window_ns);
    const uint64_t now = now_ns();
    window_s.push_back(static_cast<double>(now - window_start) * 1e-9);
    window_start = now;
  }
  phase.store(kWindows, std::memory_order_release);
  const ProcSample proc_end = proc_sample();
  hooks.end();
  for (std::thread& thread : threads) thread.join();

  std::vector<double> p50, p90, p99, rate;
  uint64_t timed = 0;
  double timed_us = 0;
  for (size_t w = 0; w < kWindows; ++w) {
    LatencyHist merged;
    uint64_t calls = 0;
    for (const ClientStats& client : stats) {
      merged.merge(client.windows[w]);
      calls += client.calls[w];
    }
    p50.push_back(merged.percentile_us(50));
    p90.push_back(merged.percentile_us(90));
    p99.push_back(merged.percentile_us(99));
    rate.push_back(static_cast<double>(calls) / window_s[w]);
    timed += calls;
    timed_us += merged.mean_us() * static_cast<double>(merged.count());
  }
  result.e2e("op_us_p50", lowest(p50), "us");
  result.e2e("op_us_p90", lowest(p90), "us");
  result.e2e("ops_per_s", highest(rate), "1/s");
  result.info("op_samples", static_cast<double>(timed), "count");
  result.info("op_us_p99", median(p99), "us");
  record_proc(result, proc_begin, proc_end, options.threads, timed);
  for (const ClientStats& client : stats) {
    result.attempted(client.attempted);
    result.failed(client.failed);
  }
  return timed > 0 ? timed_us / static_cast<double>(timed) : 0;
}

// ---- service-side accounting -------------------------------------------------

/// What a histogram gained between two snapshots.
struct HistDelta {
  double count = 0;
  double sum = 0;  // raw units: ns, or a count for kCount histograms
  double mean() const { return count > 0 ? sum / count : 0; }
};

HistDelta operator-(const obs::Histogram::Snapshot& after,
                    const obs::Histogram::Snapshot& before) {
  return {static_cast<double>(after.count - before.count),
          static_cast<double>(after.sum - before.sum)};
}

obs::Histogram::Snapshot hist(obs::Registry& registry, const char* name) {
  return registry.histogram(name).snapshot();
}

/// The service registry and worker profile at one instant.
struct ServiceSample {
  obs::Histogram::Snapshot queue, fanout, eval, batch, catchup, commit, journal;
  uint64_t commits = 0;
  double busy_s = 0;
  uint64_t wall_ns = 0;
};

ServiceSample sample_service(service::DnaService& service) {
  obs::Registry& registry = service.registry();
  ServiceSample sample;
  sample.queue = hist(registry, "service.query_queue_seconds");
  sample.fanout = hist(registry, "service.query_fanout_seconds");
  sample.eval = hist(registry, "service.query_eval_seconds");
  sample.batch = hist(registry, "service.batch_size");
  sample.catchup = hist(registry, "service.replica_catchup_seconds");
  sample.commit = hist(registry, "service.commit_seconds");
  sample.journal = hist(registry, "service.journal_append_seconds");
  sample.commits = registry.counter("service.commits").value();
  for (const auto& worker : service.worker_stats()) sample.busy_s += worker.busy_seconds;
  sample.wall_ns = now_ns();
  return sample;
}

void record_service(Result& result, const ServiceSample& a,
                    const ServiceSample& b, size_t worker_slots) {
  result.layer("service.queue_us", (b.queue - a.queue).mean() * 1e-3);
  result.layer("service.fanout_us", (b.fanout - a.fanout).mean() * 1e-3);
  result.layer("service.eval_us", (b.eval - a.eval).mean() * 1e-3);
  result.layer("service.batch_mean", (b.batch - a.batch).mean());
  const double wall_s = static_cast<double>(b.wall_ns - a.wall_ns) * 1e-9;
  result.layer("service.worker_busy_share",
               (b.busy_s - a.busy_s) / (wall_s * static_cast<double>(worker_slots)));
  const HistDelta catchup = b.catchup - a.catchup;
  const double commits = static_cast<double>(b.commits - a.commits);
  result.layer("service.catchup_ms", catchup.mean() * 1e-6);
  result.layer("service.catchups_per_commit",
               commits > 0 ? catchup.count / commits : 0);
  result.layer("service.commit_ms", (b.commit - a.commit).mean() * 1e-6);
  result.layer("service.journal_append_us", (b.journal - a.journal).mean() * 1e-3);
}

// ---- serve-read and serve-mixed ----------------------------------------------

/// A DnaService with every pool worker's replica warm (and, for
/// serve-mixed, its journal directory, removed with it).
struct ServiceSystem {
  std::string journal_dir;
  std::unique_ptr<service::DnaService> service;

  ~ServiceSystem() {
    service.reset();
    if (!journal_dir.empty()) std::filesystem::remove_all(journal_dir);
  }
};

std::unique_ptr<ServiceSystem> build_service(
    const topo::Snapshot& base, const std::vector<core::Invariant>& invariants,
    const Mix& mix, std::string journal_dir) {
  auto system = std::make_unique<ServiceSystem>();
  service::ServiceOptions options;
  if (!journal_dir.empty()) {
    std::filesystem::remove_all(journal_dir);
    std::filesystem::create_directories(journal_dir);
    options.journal_dir = journal_dir;
    options.journal_fsync = service::FsyncPolicy::kNever;
  }
  system->journal_dir = std::move(journal_dir);
  system->service =
      std::make_unique<service::DnaService>(base, invariants, options);
  service::DnaService& service = *system->service;
  warm_workers(
      service,
      [&](size_t i) { service.query(mix.queries[mix.sequence[i]]); },
      2 * service.num_workers());
  return system;
}

/// serve-mixed's writer: change/undo pairs, each change restoring the base.
struct CommitPair {
  std::string change;
  std::string undo;
};

std::vector<CommitPair> commit_pairs(const topo::Snapshot& base, uint64_t seed) {
  Rng rng(seed ^ 0xC0FFEEULL);
  const topo::Topology& topology = base.topology;
  std::vector<CommitPair> pairs;
  while (pairs.size() < kCommitPairs) {
    const auto link = static_cast<uint32_t>(rng.below(topology.num_links()));
    const std::string id = std::to_string(link);
    if (rng.below(2) == 0) {
      pairs.push_back({"fail_link " + id, "recover_link " + id});
      continue;
    }
    const topo::Link& l = topology.link(link);
    const int base_cost = base.configs[l.a].find_interface(l.a_if)->ospf_cost;
    const int cost = static_cast<int>(1 + rng.below(100));
    if (cost == base_cost) continue;
    pairs.push_back({"link_cost " + id + " " + std::to_string(cost),
                     "link_cost " + id + " " + std::to_string(base_cost)});
  }
  return pairs;
}

struct WriterStats {
  std::vector<double> commit_ms;
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Commits at kCommitsPerSecond from the start of the warm-up until the
/// windows end: pair k's change, then its undo. Before each commit it
/// records the state the next version will hold.
void writer_loop(service::DnaService& service,
                 const std::vector<CommitPair>& pairs, Oracle& oracle,
                 const std::atomic<int>& phase, Lane* lane, Result& result,
                 WriterStats& stats) {
  const auto period = std::chrono::duration<double>(1 / kCommitsPerSecond);
  const auto start = std::chrono::steady_clock::now();
  uint64_t version = service.head()->id + 1;
  for (size_t k = 0;; ++k) {
    const auto due =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    period * static_cast<double>(k));
    std::this_thread::sleep_until(due);
    const int window = phase.load(std::memory_order_acquire);
    if (window >= kWindows) return;
    const double late_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - due)
            .count();
    const size_t pair = (k / 2) % pairs.size();
    const bool forward = k % 2 == 0;
    if (!oracle.record(version, forward ? static_cast<int>(pair) + 1 : 0)) {
      result.wrong("serve-mixed: more commits than the version table holds");
      return;
    }
    ++stats.attempted;
    service::CommitResult commit;
    const uint64_t t0 = now_ns();
    try {
      SpanScope span(lane, SpanName::kCommit, -1, k);
      commit = service.commit_text(forward ? pairs[pair].change : pairs[pair].undo);
    } catch (const std::exception& e) {
      // Versions no longer line up with the recorded states: stop writing.
      ++stats.failed;
      std::fprintf(stderr, "serve-mixed: commit failed: %s\n", e.what());
      return;
    }
    const uint64_t t1 = now_ns();
    if (commit.version != version) {
      result.wrong("commit published version " + std::to_string(commit.version) +
                   ", expected " + std::to_string(version));
      return;
    }
    ++version;
    if (window >= 0) {
      stats.commit_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      stats.late_ms.push_back(late_ms);
    }
  }
}

void run_service(const Options& options, Result& result, Tracer* tracer,
                 bool mixed) {
  const topo::Snapshot base = fixture_network();
  const std::vector<core::Invariant> invariants = fixture_invariants(base);
  const Mix mix = make_mix(base, options.seed);
  Lane* lane = tracer ? tracer->lane(0) : nullptr;

  // References first: one table for the base, one per change state.
  std::vector<std::vector<std::string>> tables;
  std::vector<CommitPair> pairs;
  {
    SpanScope span(lane, SpanName::kOracle);
    tables.push_back(reference_answers(base, mix.queries));
    if (mixed) {
      pairs = commit_pairs(base, options.seed);
      for (const CommitPair& pair : pairs) {
        const topo::Snapshot state =
            service::parse_change_plan(pair.change).apply(base);
        if (!(service::parse_change_plan(pair.undo).apply(state) == base)) {
          result.wrong("'" + pair.undo + "' does not restore the base");
        }
        tables.push_back(reference_answers(state, mix.queries));
      }
    }
  }
  const auto max_versions = static_cast<size_t>(
      2 + (kWarmupSeconds + options.seconds + 2) * kCommitsPerSecond);
  Oracle oracle(std::move(tables), max_versions);

  const std::string journal_base =
      mixed ? options.tmp_dir + "/serve-mixed." + std::to_string(getpid()) : "";
  std::unique_ptr<ServiceSystem> system = timed_setup<ServiceSystem>(
      result, lane, [&](int build) {
        return build_service(base, invariants, mix,
                             mixed ? journal_base + "." + std::to_string(build)
                                   : "");
      });
  service::DnaService& service = *system->service;
  oracle.record(service.head()->id, 0);
  result.sample_heap();

  std::atomic<int> phase{-1};
  WriterStats writer;
  std::thread writer_thread;
  if (mixed) {
    writer_thread = std::thread([&] {
      writer_loop(service, pairs, oracle, phase,
                  tracer ? tracer->lane(options.threads + 1) : nullptr, result,
                  writer);
    });
  }
  ServiceSample before, after;
  const size_t readers = mixed ? std::max<size_t>(1, options.threads - 1)
                               : options.threads;
  run_clients(
      readers,
      [&service](size_t, const std::string& line) { return service.query(line); },
      mix, oracle, phase, options, SpanName::kQuery, tracer, result,
      {.begin = [&] { before = sample_service(service); },
       .end = [&] { after = sample_service(service); }});
  if (writer_thread.joinable()) writer_thread.join();
  result.sample_heap();
  record_service(result, before, after, service.worker_stats().size());

  if (mixed) {
    result.attempted(writer.attempted);
    result.failed(writer.failed);
    result.layer("writer.commit_ms_p50", percentile(writer.commit_ms, 50));
    result.layer("writer.commit_ms_p90", percentile(writer.commit_ms, 90));
    result.layer("gen.commit_late_ms", percentile(writer.late_ms, 99));
    result.info("commits", static_cast<double>(writer.commit_ms.size()), "count");
    if (writer.commit_ms.empty()) result.wrong("serve-mixed committed nothing");
  }
}

// ---- serve-routed ---------------------------------------------------------------

/// Two shard hosts, a replicated router behind a TCP front door, and one
/// client connection per bench client. Members tear down in reverse.
struct RoutedSystem {
  std::vector<std::unique_ptr<service::shard::ShardHost>> hosts;
  std::unique_ptr<service::shard::ShardRouter> router;
  std::unique_ptr<service::TcpListener> listener;
  std::unique_ptr<service::SessionServer> server;
  std::vector<std::unique_ptr<service::Transport>> transports;
  std::vector<std::unique_ptr<service::ServiceClient>> clients;

  ~RoutedSystem() {
    for (auto& client : clients) client->close();
    clients.clear();
    transports.clear();
    if (server) server->stop();
  }
};

std::unique_ptr<RoutedSystem> build_routed(
    const topo::Snapshot& base, const std::vector<core::Invariant>& invariants,
    const Mix& mix, size_t clients) {
  namespace shard = service::shard;
  auto system = std::make_unique<RoutedSystem>();
  std::vector<shard::Dialer> dialers;
  for (int i = 0; i < 2; ++i) {
    shard::ShardHostOptions options;
    options.service.num_threads = 1;
    system->hosts.push_back(
        std::make_unique<shard::ShardHost>(base, invariants, options));
    dialers.push_back(system->hosts.back()->dialer());
  }
  system->router = std::make_unique<shard::ShardRouter>(
      std::move(dialers), shard::RouterOptions{.replicas = 2, .quorum = 1});
  DNA_CHECK_MSG(system->router->connect_all() == 2, "a shard is unreachable");
  system->listener = std::make_unique<service::TcpListener>(0);
  shard::ShardRouter& router = *system->router;
  system->server = std::make_unique<service::SessionServer>(
      *system->listener, [&router](service::Transport& transport) {
        shard::RouterSession session(router, transport);
        session.run();
        return session.shutdown_requested();
      });
  system->server->start();
  for (size_t c = 0; c < clients; ++c) {
    system->transports.push_back(service::connect_tcp(
        system->listener->host(), system->listener->port()));
    system->clients.push_back(
        std::make_unique<service::ServiceClient>(*system->transports.back()));
  }
  // Warm both shards' replicas through the whole stack.
  for (auto& host : system->hosts) {
    warm_workers(
        host->service(),
        [&](size_t i) {
          system->clients[i % clients]->request(mix.queries[mix.sequence[i]]);
        },
        4 * clients);
  }
  return system;
}

}  // namespace

void run_serve_routed(const Options& options, Result& result, Tracer* tracer) {
  const topo::Snapshot base = fixture_network();
  const std::vector<core::Invariant> invariants = fixture_invariants(base);
  const Mix mix = make_mix(base, options.seed);
  Lane* lane = tracer ? tracer->lane(0) : nullptr;
  std::vector<std::vector<std::string>> tables;
  {
    SpanScope span(lane, SpanName::kOracle);
    tables.push_back(reference_answers(base, mix.queries));
  }
  Oracle oracle(std::move(tables), 2);
  oracle.record(1, 0);

  std::unique_ptr<RoutedSystem> system = timed_setup<RoutedSystem>(
      result, lane,
      [&](int) { return build_routed(base, invariants, mix, options.threads); });
  result.sample_heap();

  // Shard-side histograms merge over the two shards.
  struct RoutedSample {
    obs::Histogram::Snapshot request, rtt, shard_queue, shard_eval;
    uint64_t failovers = 0, shard_errors = 0;
  };
  auto sample = [&] {
    RoutedSample s;
    obs::Registry& registry = system->router->registry();
    s.request = hist(registry, "router.request_seconds");
    for (size_t i = 0; i < system->hosts.size(); ++i) {
      const std::string rtt = "router.s" + std::to_string(i) + ".rtt_seconds";
      s.rtt.merge(hist(registry, rtt.c_str()));
      obs::Registry& shard = system->hosts[i]->service().registry();
      s.shard_queue.merge(hist(shard, "service.query_queue_seconds"));
      s.shard_eval.merge(hist(shard, "service.query_eval_seconds"));
    }
    s.failovers = registry.counter("router.failovers").value();
    s.shard_errors = registry.counter("router.shard_errors").value();
    return s;
  };
  RoutedSample before, after;
  std::atomic<int> phase{-1};
  const double client_us = run_clients(
      options.threads,
      [&system](size_t client, const std::string& line) {
        return system->clients[client]->request(line);
      },
      mix, oracle, phase, options, SpanName::kRequest, tracer, result,
      {.begin = [&] { before = sample(); }, .end = [&] { after = sample(); }});
  result.sample_heap();

  const HistDelta request = after.request - before.request;
  const HistDelta rtt = after.rtt - before.rtt;
  const double request_us = request.mean() * 1e-3;
  const double rtt_per_request_us =
      request.count > 0 ? rtt.sum / request.count * 1e-3 : 0;
  result.layer("router.request_us", request_us);
  result.layer("router.shard_rtt_us", rtt.mean() * 1e-3);
  result.layer("router.self_us", request_us - rtt_per_request_us);
  // The front door: what a client waits beyond the router's own handling.
  result.layer("router.frontdoor_us", client_us - request_us);
  result.layer("router.failovers",
               static_cast<double>(after.failovers - before.failovers));
  result.layer("router.shard_errors",
               static_cast<double>(after.shard_errors - before.shard_errors));
  result.layer("shard.queue_us",
               (after.shard_queue - before.shard_queue).mean() * 1e-3);
  result.layer("shard.eval_us", (after.shard_eval - before.shard_eval).mean() * 1e-3);
}

void run_serve_read(const Options& options, Result& result, Tracer* tracer) {
  run_service(options, result, tracer, /*mixed=*/false);
}

void run_serve_mixed(const Options& options, Result& result, Tracer* tracer) {
  run_service(options, result, tracer, /*mixed=*/true);
}

}  // namespace dna::bench_dna
