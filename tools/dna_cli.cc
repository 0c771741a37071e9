// dna_cli — differential network analysis from the command line.
//
//   dna_cli show  <topo-file> <config-file>
//       Verify one snapshot: routes, equivalence classes, loops/blackholes.
//
//   dna_cli diff  <base-topo> <base-cfg> <target-topo> <target-cfg>
//                 [--monolithic]
//       Compute the semantic diff between two snapshots.
//
//   dna_cli paths <topo-file> <config-file> <src-node> <dst-ip>
//       Enumerate the forwarding paths a probe takes.
//
//   dna_cli whatif (--gen=<spec> | <topo-file> <config-file>) [options]
//       Batch-evaluate a sweep of candidate changes and rank them by blast
//       radius (see src/scenario/). Options:
//         --gen=fattree:K|ring:N|line:N|grid:RxC|two_tier:E,C
//                              generate the base snapshot instead of files
//         --sweep=links        fail every up link (default)
//         --sweep=costs:C      set every link's cost to C
//         --sweep=node:NAME    shut each interface of NAME
//         --sweep=random:N[:SEED]  N seeded random changes
//         --threads=N          worker threads (default: hardware)
//         --top=K              rows to print (default 10, 0 = all)
//         --json               machine-readable report on stdout
//         --timing             per-worker clone/eval timing diagnostics
//         --monolithic         evaluate scenarios monolithically
//         --host-invariants    add reachability invariants between all
//                              host-network (172.31/16) owners
//
//   dna_cli serve (--gen=<spec> | <topo-file> <config-file>)
//                 (--socket=PATH | --tcp=[HOST:]PORT) [--threads=N]
//                 [--host-invariants] [--journal-dir=PATH] [--no-fsync]
//                 [--queue-depth=N] [--keep-versions=N] [--slow-ms=N]
//       Run the long-lived query service (src/service/) on a unix-domain
//       socket or a TCP port. Clients commit changes and query any number
//       of times; the server prints its metrics after a client sends
//       `shutdown`.
//       --journal-dir enables the write-ahead commit journal: commits are
//       durable before they are acknowledged, and a restart pointed at the
//       same directory recovers the whole version history by differential
//       replay (same version ids). --no-fsync keeps journaling but skips
//       the per-commit fsync (crash may lose the tail, never tear state).
//       --queue-depth bounds the pending-query queue; saturated submits
//       shed after a deadline instead of queueing without limit.
//       --keep-versions pins the N most recent versions so `@<id>`-pinned
//       queries can time-travel into recent history.
//       --slow-ms enables the slow-query log: queries slower than N ms are
//       warned about and their span breakdown lands in the trace log
//       (`trace last N` retrieves it).
//       --http=PORT opens the HTTP observability plane on 127.0.0.1:PORT
//       (0 = ephemeral, printed at startup): GET /metrics (Prometheus
//       0.0.4), /stats.json, /healthz (200 ok / 503 unhealthy), /traces?n=N
//       and /flight?ms=W&max=M. --flight-ms=N attaches a flight recorder
//       that samples the registry every N ms into a bounded delta-
//       compressed ring (--flight-cap=S samples, default 2048), queryable
//       over /flight or the `flight` verb and auto-sampled at slow-query
//       and shard-death moments.
//
//   dna_cli shard-serve (--gen=<spec> | <topo> <cfg>) --tcp=[HOST:]PORT
//                 [serve flags...]
//       Run one shard of a sharded deployment: a full DnaService over TCP
//       (same flags as serve; give each shard its own --journal-dir).
//       Shards are kept in lock-step by the router's commit fan-out; a
//       restarted shard first recovers its own journal, then the router
//       replays whatever it missed.
//
//   dna_cli route --tcp=[HOST:]PORT --shards=HOST:PORT[,HOST:PORT...]
//                 [--replicas=R] [--quorum=Q]
//                 [--http=PORT] [--flight-ms=N] [--flight-cap=S]
//       Run the shard router (src/service/shard/): owns the consistent-
//       hash partition map over the listed shards (R replicas per
//       partition, default 2), routes single-source queries to the
//       replica set with deterministic failover, scatter/gathers global
//       checks, broadcasts commits (succeeding at >= Q identical-version
//       acks, default 1), catches restarted shards up by replay, and
//       warms wiped/new shards by journal-seeded sync. Clients talk to it
//       exactly like a monolithic server.
//
//   All three serving roles (serve, shard-serve, route) drain gracefully
//   on SIGTERM/SIGINT: stop accepting, give in-flight requests a grace
//   period, close the journal, exit 0.
//
//   dna_cli query (--socket=PATH | --tcp=HOST:PORT) [--version=N] [--trace]
//                 <request> [<request> ...]
//       Send request lines to a running server (or router), one response
//       per line printed to stdout. --version pins every request to live
//       version N (prefixes "@N "); --trace asks the server to trace each
//       request and prints the span breakdown (against a router, the trace
//       stitches in every shard's legs). See src/service/query.h for the
//       language, e.g.:
//         dna_cli query --socket=/tmp/dna.sock version \
//             "reach r0 172.31.1.1" "commit fail_link 2" "whatif fail_link 3"
//
//   dna_cli stats (--socket=PATH | --tcp=HOST:PORT) [--json | --prom]
//       One-shot stats scrape of a server or router: the obs registry as
//       human text (default), JSON, or Prometheus 0.0.4 text exposition.
//
//   dna_cli top (--socket=PATH | --tcp=HOST:PORT) [--interval=SECONDS]
//                 [--count=N]
//       Live service dashboard: samples `stats json` every interval
//       (default 2 s) and prints one line per sample — query rate since the
//       last sample plus latency quantiles. --count bounds the samples
//       (default 0 = until interrupted; 1 = a single absolute snapshot).
//       A counter reset (server restart between samples) prints as
//       `(reset)` instead of a bogus negative rate.
//
//   dna_cli dash (--socket=PATH | --tcp=HOST:PORT) [--interval=SECONDS]
//                 [--count=N] [--no-clear]
//       Live terminal dashboard over `stats json`: throughput and commit
//       rates, queue depth, per-leg latency quantiles (queue wait, replica
//       catch-up, eval, total), slow-query and journal-error counters —
//       redrawn in place every interval. Against a router it shows routed/
//       scatter rates and per-shard RTT quantiles instead.
//
//   dna_cli diagnose (--socket=PATH | --tcp=HOST:PORT) [--queries=N]
//                 [--json]
//       Ask a running server (or router) to profile itself: the `diagnose`
//       verb drives N probe queries strictly sequentially, then the same N
//       flooded across its workers, and replies with an Amdahl-style
//       attribution report — per-leg shares of the flood's wall time, the
//       measured speedup, the inferred serial fraction, and a verdict
//       naming the leg that dominates the scaling collapse (ROADMAP #1).
//
//   dna_cli risk (--socket=PATH | --tcp=HOST:PORT) [--sweep=TOKEN] [--top=N]
//                 [--at=V] [--rank] [--json] [--diff V1 V2]
//       Risk analytics over a live service: the ranked keystone table for a
//       sweep (`links` by default; `costs:<c>`, `node:<name>`,
//       `random:<n>[:<seed>]`), with blast-radius and invariant-fragility
//       summaries. --rank asks for the slim ranking body, --at pins a live
//       version, --diff renders the enriched/depleted/stable classification
//       between two committed versions, --json prints the raw body the
//       server memoized (byte-identical on every re-read).
//
// File formats: topo/textio.h (topology) and config/parser.h (configs).
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/engine.h"
#include "obs/httpd.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "core/paths.h"
#include "core/report.h"
#include "scenario/runner.h"
#include "service/net/server.h"
#include "service/net/tcp.h"
#include "service/session.h"
#include "service/shard/router.h"
#include "service/transport.h"
#include "topo/generators.h"
#include "topo/textio.h"
#include "util/json.h"
#include "util/strings.h"

using namespace dna;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int cmd_show(const std::string& topo_path, const std::string& cfg_path) {
  topo::Snapshot snap =
      topo::load_snapshot(read_file(topo_path), read_file(cfg_path));
  core::DnaEngine engine(snap);
  const dp::Verifier& verifier = engine.verifier();

  std::cout << "snapshot: " << snap.topology.num_nodes() << " nodes, "
            << snap.topology.num_links() << " links, " << verifier.num_ecs()
            << " equivalence classes\n";
  size_t fib_total = 0;
  for (const auto& fib : engine.control_plane().fibs()) {
    fib_total += fib.size();
  }
  std::cout << "fib entries: " << fib_total << "\n";
  auto loops = verifier.all_loop_facts();
  auto blackholes = verifier.all_blackhole_facts();
  std::cout << "loops: " << loops.size() << " fact(s), blackholes: "
            << blackholes.size() << " fact(s)\n";
  for (size_t i = 0; i < std::min<size_t>(loops.size(), 10); ++i) {
    std::cout << "  loop from " << snap.topology.node_name(loops[i].src)
              << " for " << Ipv4Addr(loops[i].lo).str() << "-"
              << Ipv4Addr(loops[i].hi).str() << "\n";
  }
  return 0;
}

int cmd_diff(const std::string& base_topo, const std::string& base_cfg,
             const std::string& target_topo, const std::string& target_cfg,
             bool monolithic) {
  topo::Snapshot base =
      topo::load_snapshot(read_file(base_topo), read_file(base_cfg));
  topo::Snapshot target =
      topo::load_snapshot(read_file(target_topo), read_file(target_cfg));
  core::DnaEngine engine(std::move(base));
  core::NetworkDiff diff = engine.advance(
      std::move(target),
      monolithic ? core::Mode::kMonolithic : core::Mode::kDifferential);
  std::cout << core::render(diff, engine.snapshot().topology, 50);
  return diff.semantically_empty() ? 0 : 1;
}

int cmd_paths(const std::string& topo_path, const std::string& cfg_path,
              const std::string& src, const std::string& dst) {
  topo::Snapshot snap =
      topo::load_snapshot(read_file(topo_path), read_file(cfg_path));
  auto addr = Ipv4Addr::parse(dst);
  if (!addr) throw Error("bad destination address: " + dst);
  core::DnaEngine engine(snap);
  auto paths = core::forwarding_paths(
      engine.verifier(), engine.snapshot().topology.node_id(src), *addr);
  if (paths.empty()) {
    std::cout << "no forwarding paths\n";
    return 1;
  }
  for (const auto& path : paths) {
    std::cout << path.str(engine.snapshot().topology) << "\n";
  }
  return 0;
}

// ---- whatif ---------------------------------------------------------------

/// Strict integer parse: the whole string must be a number.
int as_int(const std::string& s) {
  try {
    size_t used = 0;
    const int value = std::stoi(s, &used);
    if (used != s.size()) throw Error("bad number: " + s);
    return value;
  } catch (const std::logic_error&) {  // stoi's invalid_argument/out_of_range
    throw Error("bad number: " + s);
  }
}

/// Strict unsigned 64-bit parse, for RNG seeds.
uint64_t as_u64(const std::string& s) {
  try {
    size_t used = 0;
    const uint64_t value = std::stoull(s, &used);
    if (used != s.size()) throw Error("bad number: " + s);
    return value;
  } catch (const std::logic_error&) {
    throw Error("bad number: " + s);
  }
}

/// "fattree:4" -> make_fattree(4), etc. Throws on a malformed spec.
topo::Snapshot generate_snapshot(const std::string& spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) throw Error("bad --gen spec: " + spec);
  const std::string kind = spec.substr(0, colon);
  const std::string params = spec.substr(colon + 1);
  if (kind == "fattree") return topo::make_fattree(as_int(params));
  if (kind == "ring") return topo::make_ring(as_int(params));
  if (kind == "line") return topo::make_line(as_int(params));
  if (kind == "grid") {
    const size_t x = params.find('x');
    if (x == std::string::npos) throw Error("bad grid spec: " + params);
    return topo::make_grid(as_int(params.substr(0, x)),
                           as_int(params.substr(x + 1)));
  }
  if (kind == "two_tier") {
    const size_t comma = params.find(',');
    if (comma == std::string::npos) throw Error("bad two_tier spec: " + params);
    return topo::make_two_tier_as(as_int(params.substr(0, comma)),
                                  as_int(params.substr(comma + 1)));
  }
  throw Error("unknown --gen kind: " + kind);
}

/// Base snapshot from --gen=<spec> or a <topo> <cfg> file pair.
topo::Snapshot load_base(const std::string& gen,
                         const std::vector<std::string>& files,
                         const std::string& command) {
  if (!gen.empty()) return generate_snapshot(gen);
  if (files.size() == 2) {
    return topo::load_snapshot(read_file(files[0]), read_file(files[1]));
  }
  throw Error(command + " needs --gen=<spec> or <topo> <cfg>");
}

/// The standard intent set: loop freedom, plus host-to-host reachability
/// when requested.
std::vector<core::Invariant> standard_invariants(const topo::Snapshot& base,
                                                 bool want_host_invariants) {
  std::vector<core::Invariant> invariants = {
      {core::Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()}};
  if (want_host_invariants) {
    auto more = scenario::host_reachability_invariants(base);
    invariants.insert(invariants.end(), more.begin(), more.end());
  }
  return invariants;
}

int cmd_whatif(const std::vector<std::string>& args) {
  std::string gen, sweep = "links";
  std::vector<std::string> files;
  size_t threads = 0, top_k = 10;
  bool monolithic = false, want_host_invariants = false, json = false;
  bool timing = false;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value_of = [&](const std::string& flag) {
      return arg.substr(flag.size());
    };
    if (starts_with(arg, "--gen=")) {
      gen = value_of("--gen=");
    } else if (starts_with(arg, "--sweep=")) {
      sweep = value_of("--sweep=");
    } else if (starts_with(arg, "--threads=")) {
      const int value = as_int(value_of("--threads="));
      if (value < 0) throw Error("--threads must be >= 0");
      threads = static_cast<size_t>(value);
    } else if (starts_with(arg, "--top=")) {
      const int value = as_int(value_of("--top="));
      if (value < 0) throw Error("--top must be >= 0");
      top_k = static_cast<size_t>(value);
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--monolithic") {
      monolithic = true;
    } else if (arg == "--host-invariants") {
      want_host_invariants = true;
    } else if (starts_with(arg, "--")) {
      throw Error("unknown whatif flag: " + arg);
    } else {
      files.push_back(arg);
    }
  }

  topo::Snapshot base = load_base(gen, files, "whatif");
  std::vector<core::Invariant> invariants =
      standard_invariants(base, want_host_invariants);

  std::vector<scenario::ScenarioSpec> specs;
  if (sweep == "links") {
    specs = scenario::link_failure_sweep(base);
  } else if (starts_with(sweep, "costs:")) {
    specs = scenario::link_cost_sweep(base, as_int(sweep.substr(6)));
  } else if (starts_with(sweep, "node:")) {
    specs = scenario::interface_shutdown_sweep(base, sweep.substr(5));
  } else if (starts_with(sweep, "random:")) {
    const std::string params = sweep.substr(7);
    const size_t colon = params.find(':');
    const int count = as_int(params.substr(0, colon));
    if (count < 0) throw Error("random sweep count must be >= 0: " + sweep);
    const uint64_t seed = colon == std::string::npos
                              ? 0x5eed
                              : as_u64(params.substr(colon + 1));
    specs = scenario::random_change_sweep(base, count, seed);
  } else {
    throw Error("unknown sweep: " + sweep);
  }

  if (!json) {
    std::cout << "base: " << base.topology.num_nodes() << " nodes, "
              << base.topology.num_links() << " links | " << specs.size()
              << " scenario(s), " << invariants.size() << " invariant(s)\n";
  }

  scenario::ScenarioRunner runner(std::move(base), std::move(invariants));
  scenario::RunnerOptions options;
  options.num_threads = threads;
  options.mode = monolithic ? core::Mode::kMonolithic : core::Mode::kDifferential;
  scenario::ScenarioReport report = runner.run(specs, options);

  if (json) {
    // Machine-readable: exactly one JSON document on stdout, nothing else;
    // timing diagnostics go to stderr so they cannot corrupt the document.
    std::cout << scenario::to_json(report) << "\n";
    if (timing) std::cerr << report.timing_str();
  } else {
    std::cout << report.str(top_k)
              << "evaluated on " << report.threads << " thread(s) in "
              << report.seconds_total << " s\n";
    if (timing) std::cout << report.timing_str();
  }
  return report.failures == 0 ? 0 : 1;
}

// ---- serve / query --------------------------------------------------------

/// Shared --http= / --flight-ms= / --flight-cap= knobs of the serving
/// commands (serve, shard-serve, route).
struct ObsPlaneOptions {
  int http_port = -1;        // -1 = no HTTP endpoint; 0 = ephemeral
  uint64_t flight_ms = 0;    // 0 = no flight recorder
  size_t flight_cap = 2048;  // retained recorder samples

  /// Consumes the flag if it is one of ours; returns whether it was.
  bool parse_flag(const std::string& arg) {
    if (starts_with(arg, "--http=")) {
      const int value = as_int(arg.substr(7));
      if (value < 0 || value > 65535) throw Error("--http needs a port");
      http_port = value;
      return true;
    }
    if (starts_with(arg, "--flight-ms=")) {
      const int value = as_int(arg.substr(12));
      if (value <= 0) throw Error("--flight-ms must be > 0");
      flight_ms = static_cast<uint64_t>(value);
      return true;
    }
    if (starts_with(arg, "--flight-cap=")) {
      const int value = as_int(arg.substr(13));
      if (value <= 0) throw Error("--flight-cap must be > 0");
      flight_cap = static_cast<size_t>(value);
      return true;
    }
    return false;
  }
};

/// The running observability side-plane of one serving process: an optional
/// flight recorder plus an optional HTTP endpoint over the component's
/// registry, trace log, and health callback. Stop with shutdown() before
/// the component it observes goes away.
struct ObsPlane {
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::HttpServer> http;

  void shutdown() {
    if (http) http->stop();
    if (recorder) recorder->stop();
  }
};

/// Builds, starts, and announces the side-plane. `health` must be
/// thread-safe; the recorder (when enabled) is started but the caller still
/// attaches it to the component (set_flight_recorder) so events flow.
ObsPlane start_obs_plane(const ObsPlaneOptions& options,
                         const obs::Registry& registry, obs::TraceLog& traces,
                         std::function<std::pair<bool, std::string>()> health) {
  ObsPlane plane;
  if (options.flight_ms > 0) {
    obs::FlightRecorder::Options recorder_options;
    recorder_options.interval_ms = options.flight_ms;
    recorder_options.capacity = options.flight_cap;
    plane.recorder =
        std::make_unique<obs::FlightRecorder>(registry, recorder_options);
    plane.recorder->start();
    std::cout << "flight recorder: every " << options.flight_ms << " ms, "
              << options.flight_cap << " samples retained\n";
  }
  if (options.http_port >= 0) {
    obs::ObsEndpoints endpoints;
    endpoints.prometheus = [&registry] { return registry.prometheus_text(); };
    endpoints.stats_json = [&registry] {
      util::JsonWriter json;
      json.begin_object();
      registry.append_json(json);
      json.end_object();
      return json.str();
    };
    endpoints.health = std::move(health);
    endpoints.traces = [&traces](size_t n) { return traces.json(n); };
    if (plane.recorder) {
      obs::FlightRecorder* recorder = plane.recorder.get();
      endpoints.flight = [recorder](uint64_t window_ms, size_t max_samples) {
        const uint64_t now = obs::now_ns();
        const uint64_t span = window_ms * 1000000ull;
        const uint64_t start = (window_ms == 0 || span > now) ? 0 : now - span;
        return recorder->json(start, ~uint64_t{0}, max_samples);
      };
    }
    plane.http = std::make_unique<obs::HttpServer>(
        static_cast<uint16_t>(options.http_port),
        obs::make_obs_handler(std::move(endpoints)));
    plane.http->start();
    std::cout << "observability on http://" << plane.http->host() << ":"
              << plane.http->port()
              << "/ (metrics, stats.json, healthz, traces, flight)\n";
  }
  return plane;
}

/// The listener SIGTERM/SIGINT close to begin a graceful drain. Closing a
/// listener is ::shutdown(2) on the listening socket — async-signal-safe —
/// which unblocks the accept loop; SessionServer then drains in-flight
/// sessions under its grace period and the serving command unwinds
/// normally (journal closed by the service destructor, exit 0).
std::atomic<service::Listener*> g_drain_listener{nullptr};

void drain_signal_handler(int) {
  if (service::Listener* listener = g_drain_listener.load()) {
    listener->close();
  }
}

/// Points SIGTERM/SIGINT at `listener` (nullptr restores default disposition).
void install_drain_handlers(service::Listener* listener) {
  g_drain_listener.store(listener);
  std::signal(SIGTERM, listener != nullptr ? drain_signal_handler : SIG_DFL);
  std::signal(SIGINT, listener != nullptr ? drain_signal_handler : SIG_DFL);
}

/// How long a draining server waits for in-flight requests before evicting.
constexpr uint64_t kDrainGraceMs = 2000;

/// serve and shard-serve share everything but the banner and the required
/// listener kind: a shard is a full DnaService that must speak TCP so a
/// router (and its peers' operators) can reach it.
int cmd_serve(const std::vector<std::string>& args, bool shard_mode) {
  std::string gen, socket_path, tcp_endpoint;
  std::vector<std::string> files;
  service::ServiceOptions options;
  ObsPlaneOptions obs_options;
  bool want_host_invariants = false;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (obs_options.parse_flag(arg)) {
      continue;
    } else if (starts_with(arg, "--gen=")) {
      gen = arg.substr(6);
    } else if (starts_with(arg, "--socket=")) {
      socket_path = arg.substr(9);
    } else if (starts_with(arg, "--tcp=")) {
      tcp_endpoint = arg.substr(6);
    } else if (starts_with(arg, "--threads=")) {
      const int value = as_int(arg.substr(10));
      if (value < 0) throw Error("--threads must be >= 0");
      options.num_threads = static_cast<size_t>(value);
    } else if (starts_with(arg, "--journal-dir=")) {
      options.journal_dir = arg.substr(14);
      if (options.journal_dir.empty()) {
        throw Error("--journal-dir needs a path");
      }
    } else if (arg == "--no-fsync") {
      options.journal_fsync = service::FsyncPolicy::kNever;
    } else if (starts_with(arg, "--queue-depth=")) {
      const int value = as_int(arg.substr(14));
      if (value < 0) throw Error("--queue-depth must be >= 0");
      options.max_queue_depth = static_cast<size_t>(value);
    } else if (starts_with(arg, "--keep-versions=")) {
      const int value = as_int(arg.substr(16));
      if (value < 0) throw Error("--keep-versions must be >= 0");
      options.keep_versions = static_cast<size_t>(value);
    } else if (starts_with(arg, "--slow-ms=")) {
      const int value = as_int(arg.substr(10));
      if (value < 0) throw Error("--slow-ms must be >= 0");
      options.slow_query_ns = static_cast<uint64_t>(value) * 1000000;
    } else if (arg == "--host-invariants") {
      want_host_invariants = true;
    } else if (starts_with(arg, "--")) {
      throw Error("unknown serve flag: " + arg);
    } else {
      files.push_back(arg);
    }
  }
  const char* role = shard_mode ? "shard-serve" : "serve";
  if (shard_mode && tcp_endpoint.empty()) {
    throw Error("shard-serve needs --tcp=[HOST:]PORT");
  }
  if (socket_path.empty() == tcp_endpoint.empty()) {
    throw Error(std::string(role) +
                " needs exactly one of --socket=PATH or --tcp=[HOST:]PORT");
  }

  topo::Snapshot base = load_base(gen, files, role);
  std::vector<core::Invariant> invariants =
      standard_invariants(base, want_host_invariants);

  std::cout << "base: " << base.topology.num_nodes() << " nodes, "
            << base.topology.num_links() << " links, " << invariants.size()
            << " invariant(s)\n";
  service::DnaService dna_service(std::move(base), std::move(invariants),
                                  options);
  if (dna_service.journaling()) {
    std::cout << "journal: " << options.journal_dir << " (fsync "
              << (options.journal_fsync == service::FsyncPolicy::kAlways
                      ? "on"
                      : "off")
              << "), recovered " << dna_service.recovered_commits()
              << " commit(s), head version " << dna_service.head()->id
              << "\n";
  }

  ObsPlane obs_plane = start_obs_plane(
      obs_options, dna_service.registry(), dna_service.trace_log(),
      [&dna_service] {
        const service::Health health = dna_service.health();
        return std::make_pair(health.ok, health.detail);
      });
  if (obs_plane.recorder) {
    dna_service.set_flight_recorder(obs_plane.recorder.get());
  }

  std::unique_ptr<service::Listener> listener;
  std::string where;
  if (!socket_path.empty()) {
    listener = std::make_unique<service::UnixListener>(socket_path);
    where = socket_path;
  } else {
    const service::HostPort endpoint = service::parse_hostport(tcp_endpoint);
    auto tcp =
        std::make_unique<service::TcpListener>(endpoint.port, endpoint.host);
    where = tcp->host() + ":" + std::to_string(tcp->port());
    listener = std::move(tcp);
  }
  std::cout << (shard_mode ? "shard serving on " : "serving on ") << where
            << " with " << dna_service.num_workers() << " worker(s)\n"
            << std::flush;

  service::SessionServer server(*listener,
                                [&dna_service](service::Transport& transport) {
                                  service::ServerSession session(dna_service,
                                                                 transport);
                                  session.run();
                                  return session.shutdown_requested();
                                });
  // SIGTERM/SIGINT begin a graceful drain: stop accepting, let in-flight
  // requests finish, then unwind (the service destructor closes the
  // journal) and exit 0.
  server.set_drain_grace_ms(kDrainGraceMs);
  install_drain_handlers(listener.get());
  server.run();
  install_drain_handlers(nullptr);
  // The plane reads the service's registry; stop it (and detach the
  // recorder) before the service winds down.
  dna_service.set_flight_recorder(nullptr);
  obs_plane.shutdown();
  dna_service.shutdown();
  std::cout << dna_service.metrics().str();
  return 0;
}

int cmd_route(const std::vector<std::string>& args) {
  std::string tcp_endpoint, shard_list;
  service::shard::RouterOptions router_options;
  ObsPlaneOptions obs_options;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (obs_options.parse_flag(arg)) {
      continue;
    } else if (starts_with(arg, "--tcp=")) {
      tcp_endpoint = arg.substr(6);
    } else if (starts_with(arg, "--shards=")) {
      shard_list = arg.substr(9);
    } else if (starts_with(arg, "--replicas=")) {
      const int value = as_int(arg.substr(11));
      if (value < 1) throw Error("--replicas must be >= 1");
      router_options.replicas = static_cast<uint32_t>(value);
    } else if (starts_with(arg, "--quorum=")) {
      const int value = as_int(arg.substr(9));
      if (value < 1) throw Error("--quorum must be >= 1");
      router_options.quorum = static_cast<uint32_t>(value);
    } else if (starts_with(arg, "--")) {
      throw Error("unknown route flag: " + arg);
    }
  }
  if (tcp_endpoint.empty()) throw Error("route needs --tcp=[HOST:]PORT");
  if (shard_list.empty()) {
    throw Error("route needs --shards=HOST:PORT[,HOST:PORT...]");
  }

  std::vector<service::shard::Dialer> dialers;
  for (const std::string& endpoint_text : split(shard_list, ',')) {
    const service::HostPort endpoint = service::parse_hostport(endpoint_text);
    dialers.push_back([endpoint] {
      return service::connect_tcp(endpoint.host, endpoint.port);
    });
  }
  service::shard::ShardRouter router(std::move(dialers), router_options);
  const size_t reachable = router.connect_all();
  std::cout << "routing over " << router.num_shards() << " shard(s) ("
            << reachable << " reachable), consistent-hash ring ("
            << service::shard::PartitionMap::kVirtualNodes
            << " vnodes/shard), R=" << router.options().replicas
            << " quorum=" << router.options().quorum << "\n";

  ObsPlane obs_plane = start_obs_plane(
      obs_options, router.registry(), router.trace_log(), [&router] {
        const service::Health health = router.health();
        return std::make_pair(health.ok, health.detail);
      });
  if (obs_plane.recorder) {
    router.set_flight_recorder(obs_plane.recorder.get());
  }

  const service::HostPort endpoint = service::parse_hostport(tcp_endpoint);
  service::TcpListener listener(endpoint.port, endpoint.host);
  std::cout << "routing on " << listener.host() << ":" << listener.port()
            << "\n"
            << std::flush;
  service::SessionServer server(
      listener, [&router](service::Transport& transport) {
        service::shard::RouterSession session(router, transport);
        session.run();
        return session.shutdown_requested();
      });
  server.set_drain_grace_ms(kDrainGraceMs);
  install_drain_handlers(&listener);
  server.run();
  install_drain_handlers(nullptr);
  router.set_flight_recorder(nullptr);
  obs_plane.shutdown();
  std::cout << router.metrics().str();
  return 0;
}

/// Dials a server from the shared --socket=/--tcp= flag pair.
std::unique_ptr<service::Transport> dial_server(const std::string& socket_path,
                                               const std::string& tcp_endpoint,
                                               const std::string& command) {
  if (socket_path.empty() == tcp_endpoint.empty()) {
    throw Error(command +
                " needs exactly one of --socket=PATH or --tcp=HOST:PORT");
  }
  if (!socket_path.empty()) return service::connect_unix(socket_path);
  const service::HostPort endpoint = service::parse_hostport(tcp_endpoint);
  return service::connect_tcp(endpoint.host, endpoint.port);
}

int cmd_query(const std::vector<std::string>& args) {
  std::string socket_path, tcp_endpoint, pin_prefix;
  bool trace = false;
  std::vector<std::string> requests;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (starts_with(arg, "--socket=")) {
      socket_path = arg.substr(9);
    } else if (starts_with(arg, "--tcp=")) {
      tcp_endpoint = arg.substr(6);
    } else if (starts_with(arg, "--version=")) {
      const int value = as_int(arg.substr(10));
      if (value <= 0) throw Error("--version must be >= 1");
      pin_prefix = "@" + std::to_string(value) + " ";
    } else if (arg == "--trace") {
      trace = true;
    } else if (starts_with(arg, "--")) {
      throw Error("unknown query flag: " + arg);
    } else {
      requests.push_back(arg);
    }
  }
  if (requests.empty()) throw Error("query needs at least one request");

  std::unique_ptr<service::Transport> transport =
      dial_server(socket_path, tcp_endpoint, "query");
  service::ServiceClient client(*transport);
  bool all_ok = true;
  for (const std::string& request : requests) {
    // Session commands are not queries; pinning them would only confuse the
    // server's command matcher. (Tracing still applies to commits.)
    const std::string verb = request.substr(0, request.find(' '));
    const bool command = verb == "metrics" || verb == "stats" ||
                         verb == "trace" || verb == "shutdown" ||
                         verb == "commit";
    std::string line = command ? request : pin_prefix + request;
    // The trace tag must lead the line, ahead of any @N pin.
    if (trace && verb != "metrics" && verb != "stats" && verb != "trace" &&
        verb != "shutdown") {
      line = "trace:auto " + line;
    }
    const service::QueryResult result = client.request(line);
    if (result.ok) {
      std::cout << "[v" << result.version << "] " << result.body << "\n";
    } else {
      all_ok = false;
      std::cout << "[v" << result.version << "] error: " << result.body
                << "\n";
    }
    if (!result.trace.empty()) {
      if (const auto decoded = obs::Trace::decode(result.trace)) {
        std::cout << decoded->str();
      }
    }
  }
  client.close();
  return all_ok ? 0 : 1;
}

int cmd_stats(const std::vector<std::string>& args) {
  std::string socket_path, tcp_endpoint, form = "stats";
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (starts_with(arg, "--socket=")) {
      socket_path = arg.substr(9);
    } else if (starts_with(arg, "--tcp=")) {
      tcp_endpoint = arg.substr(6);
    } else if (arg == "--json") {
      form = "stats json";
    } else if (arg == "--prom") {
      form = "stats prom";
    } else if (starts_with(arg, "--")) {
      throw Error("unknown stats flag: " + arg);
    } else {
      throw Error("stats takes no positional arguments");
    }
  }
  std::unique_ptr<service::Transport> transport =
      dial_server(socket_path, tcp_endpoint, "stats");
  service::ServiceClient client(*transport);
  const service::QueryResult result = client.request(form);
  client.close();
  if (!result.ok) {
    std::cerr << "error: " << result.body << "\n";
    return 1;
  }
  std::cout << result.body;
  if (!result.body.empty() && result.body.back() != '\n') std::cout << "\n";
  return 0;
}

// ---- top: a minimal live dashboard over `stats json` ----------------------

/// Scans a JSON document for `"key":` and parses the number after it.
/// Targeted key scanning (the bench baseline reader uses the same trick)
/// keeps the CLI free of a JSON parser dependency; our own JsonWriter emits
/// no whitespace, so the pattern is exact. Returns `fallback` if absent.
double scan_json_number(const std::string& json, const std::string& key,
                        double fallback) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return fallback;
  try {
    return std::stod(json.substr(at + needle.size()));
  } catch (const std::logic_error&) {
    return fallback;
  }
}

/// The `{...}` object value following `"key":`, or "" if absent.
std::string scan_json_object(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":{";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  size_t depth = 0;
  for (size_t i = at + needle.size() - 1; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(at + needle.size() - 1, i - (at + needle.size() - 1) + 1);
    }
  }
  return "";
}

int cmd_top(const std::vector<std::string>& args) {
  std::string socket_path, tcp_endpoint;
  double interval = 2.0;
  size_t count = 0;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (starts_with(arg, "--socket=")) {
      socket_path = arg.substr(9);
    } else if (starts_with(arg, "--tcp=")) {
      tcp_endpoint = arg.substr(6);
    } else if (starts_with(arg, "--interval=")) {
      interval = std::stod(arg.substr(11));
      if (interval <= 0) throw Error("--interval must be > 0");
    } else if (starts_with(arg, "--count=")) {
      const int value = as_int(arg.substr(8));
      if (value < 0) throw Error("--count must be >= 0");
      count = static_cast<size_t>(value);
    } else if (starts_with(arg, "--")) {
      throw Error("unknown top flag: " + arg);
    } else {
      throw Error("top takes no positional arguments");
    }
  }
  std::unique_ptr<service::Transport> transport =
      dial_server(socket_path, tcp_endpoint, "top");
  service::ServiceClient client(*transport);

  double last_total = -1;
  for (size_t sample = 0; count == 0 || sample < count; ++sample) {
    if (sample > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(interval * 1000)));
    }
    const service::QueryResult result = client.request("stats json");
    if (!result.ok) {
      std::cerr << "error: " << result.body << "\n";
      return 1;
    }
    // A monolithic server exposes service.*; a router exposes router.*.
    const bool router = result.body.find("\"router.") != std::string::npos;
    const double total =
        router ? scan_json_number(result.body, "router.queries_routed", 0) +
                     scan_json_number(result.body, "router.scatters", 0)
               : scan_json_number(result.body, "service.queries_total", 0);
    const std::string latency = scan_json_object(
        result.body,
        router ? "router.s0.rtt_seconds" : "service.query_seconds");
    std::ostringstream line;
    line << "[v" << result.version << "] queries " << total;
    if (last_total >= 0) {
      // Counters are monotone within one server lifetime; a negative delta
      // means the process restarted between samples. Flag the reset
      // instead of printing a nonsense negative rate, and let the next
      // sample re-baseline.
      if (total < last_total) {
        line << " (reset)";
      } else {
        line << " (+" << (total - last_total) / interval << "/s)";
      }
    }
    if (!latency.empty()) {
      line << " | " << (router ? "s0 rtt" : "latency") << " p50 "
           << scan_json_number(latency, "p50", 0) * 1e3 << " ms p95 "
           << scan_json_number(latency, "p95", 0) * 1e3 << " ms p99 "
           << scan_json_number(latency, "p99", 0) * 1e3 << " ms";
    }
    if (!router) {
      line << " | commits " << scan_json_number(result.body,
                                                "service.commits", 0);
    }
    std::cout << line.str() << "\n" << std::flush;
    last_total = total;
  }
  client.close();
  return 0;
}

// ---- dash: a full-screen live view over `stats json` ----------------------

/// One latency-table row: label, p50/p95/p99 in ms, observation count —
/// from the histogram object at `key` in the stats document ("" if absent).
std::string dash_latency_row(const std::string& json, const std::string& key,
                             const std::string& label) {
  const std::string hist = scan_json_object(json, key);
  if (hist.empty()) return "";
  std::ostringstream row;
  row << "  " << std::left << std::setw(20) << label << std::right
      << std::fixed << std::setprecision(2);
  for (const char* quantile : {"p50", "p95", "p99"}) {
    row << std::setw(10) << scan_json_number(hist, quantile, 0) * 1e3;
  }
  row << std::setw(10)
      << static_cast<long long>(scan_json_number(hist, "count", 0)) << "\n";
  return row.str();
}

int cmd_dash(const std::vector<std::string>& args) {
  std::string socket_path, tcp_endpoint;
  double interval = 2.0;
  size_t count = 0;
  bool clear = true;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (starts_with(arg, "--socket=")) {
      socket_path = arg.substr(9);
    } else if (starts_with(arg, "--tcp=")) {
      tcp_endpoint = arg.substr(6);
    } else if (starts_with(arg, "--interval=")) {
      interval = std::stod(arg.substr(11));
      if (interval <= 0) throw Error("--interval must be > 0");
    } else if (starts_with(arg, "--count=")) {
      const int value = as_int(arg.substr(8));
      if (value < 0) throw Error("--count must be >= 0");
      count = static_cast<size_t>(value);
    } else if (arg == "--no-clear") {
      clear = false;
    } else if (starts_with(arg, "--")) {
      throw Error("unknown dash flag: " + arg);
    } else {
      throw Error("dash takes no positional arguments");
    }
  }
  std::unique_ptr<service::Transport> transport =
      dial_server(socket_path, tcp_endpoint, "dash");
  service::ServiceClient client(*transport);

  double last_queries = -1, last_commits = -1, last_scatters = -1;
  for (size_t sample = 0; count == 0 || sample < count; ++sample) {
    if (sample > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(interval * 1000)));
    }
    const service::QueryResult result = client.request("stats json");
    if (!result.ok) {
      std::cerr << "error: " << result.body << "\n";
      return 1;
    }
    const std::string& body = result.body;
    const bool router = body.find("\"router.") != std::string::npos;
    auto num = [&body](const std::string& key) {
      return scan_json_number(body, key, 0);
    };
    // Rate since the previous sample, re-baselining after a counter reset
    // (server restart) — same contract as `top`.
    auto rate = [interval](double current, double& last) {
      std::ostringstream out;
      if (last >= 0 && current >= last) {
        out << " (+" << std::fixed << std::setprecision(1)
            << (current - last) / interval << "/s)";
      } else if (last >= 0) {
        out << " (reset)";
      }
      last = current;
      return out.str();
    };

    std::ostringstream screen;
    screen << "dna dash — " << (router ? "router" : "service") << " v"
           << result.version << " · every " << interval << " s · sample "
           << sample + 1 << (count > 0 ? "/" + std::to_string(count) : "")
           << "\n\n";
    if (router) {
      screen << "  routed   "
             << static_cast<long long>(num("router.queries_routed"))
             << rate(num("router.queries_routed"), last_queries)
             << "   scatters "
             << static_cast<long long>(num("router.scatters"))
             << rate(num("router.scatters"), last_scatters) << "\n"
             << "  commits  " << static_cast<long long>(num("router.commits"))
             << rate(num("router.commits"), last_commits) << " (degraded "
             << static_cast<long long>(num("router.degraded_commits")) << ")"
             << "   shard errors "
             << static_cast<long long>(num("router.shard_errors"))
             << "   reconnects "
             << static_cast<long long>(num("router.reconnects")) << "\n"
             << "  healing  failovers "
             << static_cast<long long>(num("router.failovers"))
             << "   syncs " << static_cast<long long>(num("router.syncs"))
             << "   breaker opens "
             << static_cast<long long>(num("router.breaker_opens"))
             << "   replayed "
             << static_cast<long long>(num("router.replayed_commits"))
             << "\n\n";
      screen << "  latency (ms)            p50       p95       p99     count\n"
             << dash_latency_row(body, "router.request_seconds", "request");
      for (size_t shard = 0; shard < 64; ++shard) {
        const std::string row = dash_latency_row(
            body, "router.s" + std::to_string(shard) + ".rtt_seconds",
            "s" + std::to_string(shard) + " rtt");
        if (row.empty()) break;
        screen << row;
      }
    } else {
      screen << "  queries  "
             << static_cast<long long>(num("service.queries_total"))
             << rate(num("service.queries_total"), last_queries)
             << "   failed " << static_cast<long long>(num("service.queries_failed"))
             << "   shed " << static_cast<long long>(num("service.queries_shed"))
             << "   slow " << static_cast<long long>(num("service.slow_queries"))
             << "\n"
             << "  commits  " << static_cast<long long>(num("service.commits"))
             << rate(num("service.commits"), last_commits)
             << "   queue depth "
             << static_cast<long long>(num("service.queue_depth")) << " (max "
             << static_cast<long long>(num("service.max_queue_depth")) << ")"
             << "   journal errors "
             << static_cast<long long>(num("service.journal_errors"))
             << "\n\n";
      screen << "  latency (ms)            p50       p95       p99     count\n"
             << dash_latency_row(body, "service.query_queue_seconds",
                                 "queue wait")
             << dash_latency_row(body, "service.query_fanout_seconds",
                                 "batch fan-out")
             << dash_latency_row(body, "service.replica_catchup_seconds",
                                 "replica catch-up")
             << dash_latency_row(body, "service.query_eval_seconds", "eval")
             << dash_latency_row(body, "service.query_seconds", "total")
             << dash_latency_row(body, "service.commit_seconds", "commit")
             << dash_latency_row(body, "service.risk_sweep_seconds",
                                 "risk sweep");
      screen << "\n  risk     sweeps "
             << static_cast<long long>(num("service.risk_sweeps_total"))
             << "   cache hits "
             << static_cast<long long>(num("service.risk_cache_hits"))
             << "\n";
    }
    // Home + clear-to-end keeps the redraw flicker-free; --no-clear (and
    // single-shot mode) just appends, which is what scripts and CI want.
    if (clear && count != 1) std::cout << "\x1b[H\x1b[J";
    std::cout << screen.str() << std::flush;
  }
  client.close();
  return 0;
}

int cmd_diagnose(const std::vector<std::string>& args) {
  std::string socket_path, tcp_endpoint;
  size_t queries = 0;  // 0 = the server's default phase size
  bool json = false;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (starts_with(arg, "--socket=")) {
      socket_path = arg.substr(9);
    } else if (starts_with(arg, "--tcp=")) {
      tcp_endpoint = arg.substr(6);
    } else if (starts_with(arg, "--queries=")) {
      const int value = as_int(arg.substr(10));
      if (value <= 0) throw Error("--queries must be > 0");
      queries = static_cast<size_t>(value);
    } else if (arg == "--json") {
      json = true;
    } else if (starts_with(arg, "--")) {
      throw Error("unknown diagnose flag: " + arg);
    } else {
      throw Error("diagnose takes no positional arguments");
    }
  }
  std::unique_ptr<service::Transport> transport =
      dial_server(socket_path, tcp_endpoint, "diagnose");
  service::ServiceClient client(*transport);
  std::string request = "diagnose";
  if (queries > 0) request += " " + std::to_string(queries);
  if (json) request += " json";
  const service::QueryResult result = client.request(request);
  client.close();
  if (!result.ok) {
    std::cerr << "error: " << result.body << "\n";
    return 1;
  }
  std::cout << result.body;
  if (!result.body.empty() && result.body.back() != '\n') std::cout << "\n";
  return 0;
}

// ---- risk: ranked keystone analytics over a live service ------------------

/// The string value following `"key":"`, or "" if absent. Element names and
/// sweep tokens never contain escaped quotes, so a plain quote scan is safe
/// against our own JsonWriter output.
std::string scan_json_string(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = json.find('"', start);
  if (end == std::string::npos) return "";
  return json.substr(start, end - start);
}

/// Splits the `[{...},{...}]` array following `"key":[` into its element
/// objects (same no-parser scanning as scan_json_object).
std::vector<std::string> scan_json_array_objects(const std::string& json,
                                                 const std::string& key) {
  std::vector<std::string> items;
  const std::string needle = "\"" + key + "\":[";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return items;
  size_t depth = 0;
  size_t start = 0;
  for (size_t i = at + needle.size(); i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) items.push_back(json.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return items;
}

int cmd_risk(const std::vector<std::string>& args) {
  std::string socket_path, tcp_endpoint, sweep = "links";
  size_t top = 20;
  bool json = false, rank_only = false;
  uint64_t at = 0, diff_before = 0, diff_after = 0;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (starts_with(arg, "--socket=")) {
      socket_path = arg.substr(9);
    } else if (starts_with(arg, "--tcp=")) {
      tcp_endpoint = arg.substr(6);
    } else if (starts_with(arg, "--sweep=")) {
      sweep = arg.substr(8);
    } else if (starts_with(arg, "--top=")) {
      const int value = as_int(arg.substr(6));
      if (value <= 0) throw Error("--top must be > 0");
      top = static_cast<size_t>(value);
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--rank") {
      rank_only = true;
    } else if (starts_with(arg, "--at=")) {
      const int value = as_int(arg.substr(5));
      if (value <= 0) throw Error("--at must be >= 1");
      at = static_cast<uint64_t>(value);
    } else if (arg == "--diff") {
      if (i + 2 >= args.size()) {
        throw Error("--diff needs two versions: --diff <before> <after>");
      }
      const int before = as_int(args[i + 1]);
      const int after = as_int(args[i + 2]);
      if (before <= 0 || after <= 0) throw Error("--diff versions are >= 1");
      diff_before = static_cast<uint64_t>(before);
      diff_after = static_cast<uint64_t>(after);
      i += 2;
    } else if (starts_with(arg, "--")) {
      throw Error("unknown risk flag: " + arg);
    } else {
      throw Error("risk takes no positional arguments (see --diff, --sweep)");
    }
  }

  const bool diff = diff_before > 0;
  std::string request;
  if (diff) {
    request = "risk diff " + std::to_string(diff_before) + " " +
              std::to_string(diff_after) + " " + sweep;
  } else {
    request = (rank_only ? "rank " : "risk ") + sweep;
  }
  if (at > 0) request = "@" + std::to_string(at) + " " + request;

  std::unique_ptr<service::Transport> transport =
      dial_server(socket_path, tcp_endpoint, "risk");
  service::ServiceClient client(*transport);
  const service::QueryResult result = client.request(request);
  client.close();
  if (!result.ok) {
    std::cerr << "error: " << result.body << "\n";
    return 1;
  }
  if (json) {
    std::cout << result.body << "\n";
    return 0;
  }

  const std::string& body = result.body;
  const std::vector<std::string> elements =
      scan_json_array_objects(body, "elements");
  if (diff) {
    std::cout << "risk diff — sweep " << scan_json_string(body, "sweep")
              << " · v" << diff_before << " -> v" << diff_after << " · "
              << (long long)scan_json_number(body, "enriched", 0)
              << " enriched, "
              << (long long)scan_json_number(body, "depleted", 0)
              << " depleted, " << (long long)scan_json_number(body, "stable", 0)
              << " stable\n";
    std::printf("  %-9s %9s  %9s -> %-9s  %-6s %s\n", "status", "log2fc",
                "before", "after", "kind", "element");
    for (size_t i = 0; i < elements.size() && i < top; ++i) {
      const std::string& e = elements[i];
      std::printf("  %-9s %+9.4f  %9.6f -> %-9.6f  %-6s %s\n",
                  scan_json_string(e, "status").c_str(),
                  scan_json_number(e, "log2_fc", 0),
                  scan_json_number(e, "keystone_before", 0),
                  scan_json_number(e, "keystone_after", 0),
                  scan_json_string(e, "kind").c_str(),
                  scan_json_string(e, "element").c_str());
    }
    return 0;
  }

  std::cout << (rank_only ? "rank" : "risk") << " — sweep "
            << scan_json_string(body, "sweep") << " · v" << result.version
            << " · " << (long long)scan_json_number(body, "scenarios", 0)
            << " scenarios · total mass "
            << (long long)scan_json_number(body, "total_mass", 0) << "\n";
  std::printf("  %3s  %-9s %8s  %5s  %-6s %s\n", "#", "keystone", "mass",
              "scen", "kind", "element");
  for (size_t i = 0; i < elements.size() && i < top; ++i) {
    const std::string& e = elements[i];
    std::printf("  %3zu  %.6f %8lld  %5lld  %-6s %s\n", i + 1,
                scan_json_number(e, "keystone", 0),
                (long long)scan_json_number(e, "mass", 0),
                (long long)scan_json_number(e, "scenarios", 0),
                scan_json_string(e, "kind").c_str(),
                scan_json_string(e, "element").c_str());
  }
  if (!rank_only) {
    const std::string blast = scan_json_object(body, "blast");
    const std::string invariants = scan_json_object(body, "invariants");
    if (!blast.empty()) {
      std::cout << "blast radius: "
                << (long long)scan_json_number(blast, "zero", 0)
                << " of " << (long long)scan_json_number(body, "scenarios", 0)
                << " scenarios lost no reach facts\n";
    }
    if (!invariants.empty()) {
      std::cout << "invariants: "
                << (long long)scan_json_number(invariants, "robust", 0)
                << " robust, "
                << (long long)scan_json_number(invariants, "fragile_total", 0)
                << " fragile\n";
    }
  }
  return 0;
}

int usage() {
  std::cerr
      << "usage:\n"
      << "  dna_cli show  <topo> <cfg>\n"
      << "  dna_cli diff  <base-topo> <base-cfg> <target-topo> <target-cfg>"
         " [--monolithic]\n"
      << "  dna_cli paths <topo> <cfg> <src-node> <dst-ip>\n"
      << "  dna_cli whatif (--gen=<spec> | <topo> <cfg>) [--sweep=...]"
         " [--threads=N] [--top=K] [--json] [--monolithic]"
         " [--host-invariants]\n"
      << "  dna_cli serve (--gen=<spec> | <topo> <cfg>)"
         " (--socket=PATH | --tcp=[HOST:]PORT) [--threads=N]"
         " [--host-invariants] [--journal-dir=PATH] [--no-fsync]"
         " [--queue-depth=N] [--keep-versions=N] [--slow-ms=N]"
         " [--http=PORT] [--flight-ms=N] [--flight-cap=S]\n"
      << "  dna_cli shard-serve (--gen=<spec> | <topo> <cfg>)"
         " --tcp=[HOST:]PORT [serve flags...]\n"
      << "  dna_cli route --tcp=[HOST:]PORT"
         " --shards=HOST:PORT[,HOST:PORT...]"
         " [--http=PORT] [--flight-ms=N] [--flight-cap=S]\n"
      << "  dna_cli query (--socket=PATH | --tcp=HOST:PORT) [--version=N]"
         " [--trace] <request> [<request> ...]\n"
      << "  dna_cli stats (--socket=PATH | --tcp=HOST:PORT)"
         " [--json | --prom]\n"
      << "  dna_cli top   (--socket=PATH | --tcp=HOST:PORT)"
         " [--interval=SECS] [--count=N]\n"
      << "  dna_cli dash  (--socket=PATH | --tcp=HOST:PORT)"
         " [--interval=SECS] [--count=N] [--no-clear]\n"
      << "  dna_cli diagnose (--socket=PATH | --tcp=HOST:PORT)"
         " [--queries=N] [--json]\n"
      << "  dna_cli risk  (--socket=PATH | --tcp=HOST:PORT)"
         " [--sweep=TOKEN] [--top=N] [--at=V] [--rank] [--json]"
         " [--diff V1 V2]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 3 && args[0] == "show") {
      return cmd_show(args[1], args[2]);
    }
    if (args.size() >= 5 && args[0] == "diff") {
      const bool monolithic = args.size() == 6 && args[5] == "--monolithic";
      return cmd_diff(args[1], args[2], args[3], args[4], monolithic);
    }
    if (args.size() == 5 && args[0] == "paths") {
      return cmd_paths(args[1], args[2], args[3], args[4]);
    }
    if (!args.empty() && args[0] == "whatif") {
      return cmd_whatif(args);
    }
    if (!args.empty() && args[0] == "serve") {
      return cmd_serve(args, /*shard_mode=*/false);
    }
    if (!args.empty() && args[0] == "shard-serve") {
      return cmd_serve(args, /*shard_mode=*/true);
    }
    if (!args.empty() && args[0] == "route") {
      return cmd_route(args);
    }
    if (!args.empty() && args[0] == "query") {
      return cmd_query(args);
    }
    if (!args.empty() && args[0] == "stats") {
      return cmd_stats(args);
    }
    if (!args.empty() && args[0] == "top") {
      return cmd_top(args);
    }
    if (!args.empty() && args[0] == "dash") {
      return cmd_dash(args);
    }
    if (!args.empty() && args[0] == "diagnose") {
      return cmd_diagnose(args);
    }
    if (!args.empty() && args[0] == "risk") {
      return cmd_risk(args);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
