// The query language of the long-lived service.
//
// Reader queries are single text lines, parsed once at the front door and
// evaluated against one immutable Version on a worker's engine clone:
//
//   version                              current version id + provenance
//   hash                                 deterministic snapshot digest
//   reach <src-node> <dst-ip>            is dst-ip delivered from src?
//   paths <src-node> <dst-ip>            concrete forwarding paths
//   check <invariant...>                 evaluate one invariant, e.g.
//       check reachable r0 r3 172.31.1.0/24
//       check isolated r0 r5 10.0.0.0/8
//       check loopfree [prefix]
//       check blackholefree r0 [prefix]
//       check waypoint r0 r5 fw0 0.0.0.0/0
//   whatif <change...>                   blast radius of a candidate change
//                                        (evaluated, never committed)
//   rank [sweep]                         ranked keystone table over a risk
//                                        sweep (analytics/risk.h) — which
//                                        elements move the most reachability
//   risk [sweep]                         the full risk report: keystones,
//                                        blast-radius histogram, fragile vs
//                                        robust invariants
//   risk diff <v1> <v2> [sweep]          differential risk between two live
//                                        versions: log2 fold-change per
//                                        element, enriched/depleted/stable
//
// The optional [sweep] is one token (default `links`):
//   links | costs:<c> | node:<name> | random:<n>[:<seed>]
// Risk answers are JSON bodies, memoized per (verb, sweep-hash, version) by
// the service's RiskStore; like every query they are pure functions of
// (query, version), so shards and monoliths answer byte-identically.
//
// A query line may be prefixed by modifiers:
//
//   trace:<hex-id>|trace:auto            trace this request: the response
//                                        carries per-leg spans (obs/trace.h)
//                                        on its status line; `auto` lets
//                                        the server pick the id. Must be
//                                        the first token; the router uses
//                                        it to stitch shard spans into one
//                                        deployment-wide trace.
//
// followed by, in any order:
//
//   @<id>                                pin the query to live version <id>
//                                        instead of the head (time-travel
//                                        debugging; the store must still
//                                        hold the version — see version.h)
//   part <i>/<n>                         evaluate as partition i of an
//                                        n-way topology-hash split (see
//                                        shard/partition.h). Scopes
//                                        network-global checks (loopfree)
//                                        to sources owned by partition i;
//                                        the shard router's scatter/gather
//                                        ANDs the per-partition verdicts.
//
// Change mini-language (whatif above, and the session layer's `commit`):
// steps joined by ';', each one of
//
//   fail_link <id> | recover_link <id> | link_cost <id> <cost>
//   acl_block <node> <dst-prefix> | announce <node> <prefix>
//   withdraw <node> <prefix> | static_route <node> <prefix> <next-hop>
#pragma once

#include <cstdint>
#include <string>

#include "core/change.h"
#include "core/engine.h"
#include "core/invariants.h"
#include "service/version.h"
#include "util/rng.h"

namespace dna::service {

enum class QueryKind {
  kVersion,
  kHash,
  kReach,
  kPaths,
  kCheck,
  kWhatIf,
  kRank,
  kRisk,
  kRiskDiff
};

struct Query {
  QueryKind kind = QueryKind::kVersion;
  std::string text;  // the original request line

  std::string src;            // reach / paths
  Ipv4Addr dst;               // reach / paths
  core::Invariant invariant;  // check
  core::ChangePlan plan{""};  // whatif
  /// rank / risk: the canonical sweep token (analytics::parse_sweep's
  /// str()), so equivalent spellings share one memo entry.
  std::string sweep;
  /// risk diff: the two versions compared.
  uint64_t diff_before = 0;
  uint64_t diff_after = 0;

  /// Version pin (`@<id>` modifier); 0 = the head at submission time.
  uint64_t pinned_version = 0;
  /// Partition scope (`part i/n` modifier); count 1 = the whole network.
  uint32_t scope_index = 0;
  uint32_t scope_count = 1;
  /// Tracing (`trace:<id>` modifier); id 0 = let the server pick one.
  bool traced = false;
  uint64_t trace_id = 0;
};

/// The leading `trace:` tag of a request line, split off before command
/// matching: `rest` receives the line with the tag removed (trimmed).
/// Shared by parse_query, the sessions, and the router, so they agree on
/// what counts as a traced request.
struct TraceTag {
  bool traced = false;
  uint64_t id = 0;  // 0 = auto (receiver picks)
};
TraceTag split_trace_tag(const std::string& line, std::string* rest);

/// Parses one request line. Throws dna::Error with a caller-facing message
/// on malformed input.
Query parse_query(const std::string& line);

/// Parses the change mini-language above into an applicable plan.
/// Throws dna::Error on malformed input. The returned plan's description()
/// is the trimmed input text — parse(description()) reproduces the plan,
/// the invariant journal replay rests on.
core::ChangePlan parse_change_plan(const std::string& text);

/// A seeded random change-plan line (1..max_steps steps) valid for `base`:
/// every emitted text parses, applies to `base` without throwing, and
/// round-trips through parse_change_plan unchanged. The workload generator
/// for the journal/replay property tests and the service benches.
std::string random_change_text(const topo::Snapshot& base, Rng& rng,
                               size_t max_steps = 3);

/// A deterministic digest of a snapshot's canonical text form. Two equal
/// snapshots hash equal on every platform — the torn-read detector used by
/// the concurrency tests and the `hash` query.
uint64_t snapshot_digest(const topo::Snapshot& snapshot);

struct QueryResult {
  bool ok = true;
  uint64_t version = 0;  // version the query was evaluated against
  std::string body;      // rendered answer (or error detail when !ok)
  /// Encoded obs::Trace spans for a traced request; empty otherwise.
  /// Rides the response status line, so `body` stays byte-identical to an
  /// untraced evaluation.
  std::string trace;
};

/// Evaluates one parsed query against `version`. `engine` must already be
/// advanced to *version.snapshot (the service's dispatcher guarantees it);
/// it is only mutated by kWhatIf, whose preview rolls itself back.
QueryResult eval_query(const Query& query, const Version& version,
                       core::DnaEngine& engine);

}  // namespace dna::service
