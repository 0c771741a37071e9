#include "service/query.h"

#include <cstdio>
#include <limits>
#include <sstream>

#include "analytics/risk.h"
#include "core/paths.h"
#include "dataplane/properties.h"
#include "scenario/report.h"
#include "service/shard/partition.h"
#include "topo/textio.h"
#include "util/error.h"
#include "util/strings.h"

namespace dna::service {

namespace {

Ipv4Addr parse_addr(const std::string& text) {
  auto addr = Ipv4Addr::parse(text);
  if (!addr) throw Error("bad address: " + text);
  return *addr;
}

Ipv4Prefix parse_prefix(const std::string& text) {
  auto prefix = Ipv4Prefix::parse(text);
  if (!prefix) throw Error("bad prefix: " + text);
  return *prefix;
}

/// Strict non-negative integer parse for link indices and costs. Rejects
/// values that do not fit an int — truncating one would silently commit a
/// different change than the one requested.
int parse_count(const std::string& text) {
  const long long value = parse_int(text);
  if (value < 0 || value > std::numeric_limits<int>::max()) {
    throw Error("bad number: " + text);
  }
  return static_cast<int>(value);
}

core::Invariant parse_invariant(const std::vector<std::string>& tokens) {
  if (tokens.empty()) throw Error("check needs an invariant kind");
  core::Invariant invariant;
  const std::string& kind = tokens[0];
  // Each arm consumes its named operands; a trailing prefix is optional and
  // defaults to all traffic (0.0.0.0/0).
  auto want = [&](size_t required, size_t with_prefix) {
    if (tokens.size() != required && tokens.size() != with_prefix) {
      throw Error("bad check " + kind + " arity");
    }
  };
  if (kind == "reachable" || kind == "isolated") {
    want(3, 4);
    invariant.kind = kind == "reachable" ? core::Invariant::Kind::kReachable
                                         : core::Invariant::Kind::kIsolated;
    invariant.src = tokens[1];
    invariant.dst = tokens[2];
    if (tokens.size() == 4) invariant.traffic = parse_prefix(tokens[3]);
  } else if (kind == "loopfree") {
    want(1, 2);
    invariant.kind = core::Invariant::Kind::kLoopFree;
    if (tokens.size() == 2) invariant.traffic = parse_prefix(tokens[1]);
  } else if (kind == "blackholefree") {
    want(2, 3);
    invariant.kind = core::Invariant::Kind::kBlackholeFree;
    invariant.src = tokens[1];
    if (tokens.size() == 3) invariant.traffic = parse_prefix(tokens[2]);
  } else if (kind == "waypoint") {
    want(4, 5);
    invariant.kind = core::Invariant::Kind::kWaypoint;
    invariant.src = tokens[1];
    invariant.dst = tokens[2];
    invariant.waypoint = tokens[3];
    if (tokens.size() == 5) invariant.traffic = parse_prefix(tokens[4]);
  } else {
    throw Error("unknown invariant kind: " + kind);
  }
  return invariant;
}

}  // namespace

core::ChangePlan parse_change_plan(const std::string& text) {
  core::ChangePlan plan(std::string(trim(text)));
  size_t steps = 0;
  for (const std::string& step_text : split(text, ';')) {
    const std::vector<std::string> tokens = split_ws(step_text);
    if (tokens.empty()) continue;
    const std::string& op = tokens[0];
    auto want = [&](size_t arity) {
      if (tokens.size() != arity + 1) {
        throw Error("bad change step arity: " + std::string(trim(step_text)));
      }
    };
    core::ChangePlan step("");
    if (op == "fail_link") {
      want(1);
      step = core::ChangePlan::link_failure(parse_count(tokens[1]));
    } else if (op == "recover_link") {
      want(1);
      step = core::ChangePlan::link_recovery(parse_count(tokens[1]));
    } else if (op == "link_cost") {
      want(2);
      step = core::ChangePlan::link_cost(parse_count(tokens[1]),
                                         parse_count(tokens[2]));
    } else if (op == "acl_block") {
      want(2);
      step = core::ChangePlan::acl_block(tokens[1], parse_prefix(tokens[2]));
    } else if (op == "announce") {
      want(2);
      step = core::ChangePlan::announce(tokens[1], parse_prefix(tokens[2]));
    } else if (op == "withdraw") {
      want(2);
      step = core::ChangePlan::withdraw(tokens[1], parse_prefix(tokens[2]));
    } else if (op == "static_route") {
      want(3);
      step = core::ChangePlan::static_route(tokens[1], parse_prefix(tokens[2]),
                                            parse_addr(tokens[3]));
    } else {
      throw Error("unknown change step: " + op);
    }
    plan.add([step](topo::Snapshot snapshot) {
      return step.apply(std::move(snapshot));
    });
    ++steps;
  }
  if (steps == 0) throw Error("empty change plan");
  return plan;
}

std::string random_change_text(const topo::Snapshot& base, Rng& rng,
                               size_t max_steps) {
  const size_t num_links = base.topology.num_links();
  const size_t num_nodes = base.topology.num_nodes();
  DNA_CHECK(num_links > 0 && num_nodes > 0 && max_steps > 0);
  auto link = [&] { return std::to_string(rng.below(num_links)); };
  auto node = [&] {
    return base.topology.node_name(
        static_cast<topo::NodeId>(rng.below(num_nodes)));
  };
  // Drawn from a small pool so announce/withdraw pairs and repeated ACLs
  // collide often enough to exercise cancellation and no-op commits.
  auto prefix = [&] {
    return "203.0." + std::to_string(100 + rng.below(8)) + ".0/24";
  };
  std::vector<std::string> steps;
  const size_t count = 1 + rng.below(max_steps);
  for (size_t i = 0; i < count; ++i) {
    switch (rng.below(7)) {
      case 0:
        steps.push_back("fail_link " + link());
        break;
      case 1:
        steps.push_back("recover_link " + link());
        break;
      case 2:
        steps.push_back("link_cost " + link() + " " +
                        std::to_string(1 + rng.below(100)));
        break;
      case 3:
        steps.push_back("acl_block " + node() + " " + prefix());
        break;
      case 4:
        steps.push_back("announce " + node() + " " + prefix());
        break;
      case 5:
        steps.push_back("withdraw " + node() + " " + prefix());
        break;
      default:
        steps.push_back("static_route " + node() + " " + prefix() + " 10." +
                        std::to_string(rng.below(256)) + "." +
                        std::to_string(rng.below(256)) + ".1");
        break;
    }
  }
  return join(steps, "; ");
}

TraceTag split_trace_tag(const std::string& line, std::string* rest) {
  TraceTag tag;
  const std::string_view trimmed = trim(line);
  constexpr std::string_view kPrefix = "trace:";
  if (trimmed.substr(0, kPrefix.size()) == kPrefix) {
    const size_t end = trimmed.find_first_of(" \t");
    const std::string_view id_text =
        trimmed.substr(kPrefix.size(),
                       (end == std::string_view::npos ? trimmed.size() : end) -
                           kPrefix.size());
    tag.traced = true;
    if (!id_text.empty() && id_text != "auto") {
      // Hex trace id; malformed ids fail the whole line loudly rather
      // than silently starting an unrelated trace.
      uint64_t id = 0;
      for (const char c : id_text) {
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (c >= 'a' && c <= 'f') {
          digit = c - 'a' + 10;
        } else if (c >= 'A' && c <= 'F') {
          digit = c - 'A' + 10;
        } else {
          throw Error("bad trace id: " + std::string(id_text));
        }
        id = (id << 4) | static_cast<uint64_t>(digit);
      }
      tag.id = id;
    }
    *rest = std::string(
        trim(end == std::string_view::npos ? "" : trimmed.substr(end)));
  } else {
    *rest = std::string(trimmed);
  }
  return tag;
}

Query parse_query(const std::string& raw_line) {
  std::string line;
  const TraceTag tag = split_trace_tag(raw_line, &line);
  const std::vector<std::string> tokens = split_ws(line);
  Query query;
  query.text = std::string(trim(line));
  query.traced = tag.traced;
  query.trace_id = tag.id;

  // Leading modifiers (any order, each at most meaningful once): `@<id>`
  // pins the version, `part <i>/<n>` scopes the evaluation to one
  // partition of the topology-hash split.
  size_t pos = 0;
  while (pos < tokens.size()) {
    const std::string& token = tokens[pos];
    if (token.size() > 1 && token[0] == '@') {
      const long long id = parse_int(token.substr(1));
      if (id <= 0) throw Error("bad version pin: " + token);
      query.pinned_version = static_cast<uint64_t>(id);
      ++pos;
      continue;
    }
    if (token == "part") {
      if (pos + 1 >= tokens.size()) throw Error("part needs <i>/<n>");
      const std::string& spec = tokens[pos + 1];
      const size_t slash = spec.find('/');
      if (slash == std::string::npos) {
        throw Error("bad partition scope: " + spec);
      }
      const long long index = parse_int(spec.substr(0, slash));
      const long long count = parse_int(spec.substr(slash + 1));
      if (count < 1 || index < 0 || index >= count ||
          count > std::numeric_limits<uint32_t>::max()) {
        throw Error("bad partition scope: " + spec);
      }
      query.scope_index = static_cast<uint32_t>(index);
      query.scope_count = static_cast<uint32_t>(count);
      pos += 2;
      continue;
    }
    break;
  }

  if (pos >= tokens.size()) throw Error("empty query");
  const std::string& verb = tokens[pos];
  const size_t arity = tokens.size() - pos;  // verb + operands
  if (verb == "version" && arity == 1) {
    query.kind = QueryKind::kVersion;
  } else if (verb == "hash" && arity == 1) {
    query.kind = QueryKind::kHash;
  } else if (verb == "reach" && arity == 3) {
    query.kind = QueryKind::kReach;
    query.src = tokens[pos + 1];
    query.dst = parse_addr(tokens[pos + 2]);
  } else if (verb == "paths" && arity == 3) {
    query.kind = QueryKind::kPaths;
    query.src = tokens[pos + 1];
    query.dst = parse_addr(tokens[pos + 2]);
  } else if (verb == "check") {
    query.kind = QueryKind::kCheck;
    query.invariant = parse_invariant(
        std::vector<std::string>(tokens.begin() + static_cast<long>(pos) + 1,
                                 tokens.end()));
  } else if (verb == "whatif") {
    query.kind = QueryKind::kWhatIf;
    const size_t at = line.find("whatif");
    query.plan = parse_change_plan(line.substr(at + 6));
  } else if (verb == "rank" && (arity == 1 || arity == 2)) {
    query.kind = QueryKind::kRank;
    query.sweep =
        analytics::parse_sweep(arity == 2 ? tokens[pos + 1] : "links").str();
  } else if (verb == "risk") {
    if (arity >= 2 && tokens[pos + 1] == "diff") {
      if (arity != 4 && arity != 5) {
        throw Error("risk diff needs <before> <after> [sweep]");
      }
      query.kind = QueryKind::kRiskDiff;
      const long long before = parse_int(tokens[pos + 2]);
      const long long after = parse_int(tokens[pos + 3]);
      if (before <= 0 || after <= 0) {
        throw Error("bad risk diff versions: " + tokens[pos + 2] + " " +
                    tokens[pos + 3]);
      }
      query.diff_before = static_cast<uint64_t>(before);
      query.diff_after = static_cast<uint64_t>(after);
      query.sweep =
          analytics::parse_sweep(arity == 5 ? tokens[pos + 4] : "links").str();
    } else if (arity == 1 || arity == 2) {
      query.kind = QueryKind::kRisk;
      query.sweep =
          analytics::parse_sweep(arity == 2 ? tokens[pos + 1] : "links").str();
    } else {
      throw Error("risk takes [sweep] or diff <before> <after> [sweep]");
    }
  } else {
    throw Error("bad query: " + query.text);
  }
  return query;
}

uint64_t snapshot_digest(const topo::Snapshot& snapshot) {
  // FNV-1a over the canonical text form: stable across platforms and
  // standard-library implementations, unlike std::hash.
  const topo::SnapshotText text = topo::print_snapshot(snapshot);
  uint64_t digest = 1469598103934665603ULL;
  for (const std::string* part : {&text.topology, &text.configs}) {
    for (const char c : *part) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
  }
  return digest;
}

QueryResult eval_query(const Query& query, const Version& version,
                       core::DnaEngine& engine) {
  QueryResult result;
  result.version = version.id;
  std::ostringstream body;
  // True while `engine` may be mid-advance: a failure then cannot be
  // absorbed here — it must reach the dispatcher, which discards the
  // replica. Failures with the flag false leave the engine untouched.
  bool engine_dirty = false;
  try {
    switch (query.kind) {
      case QueryKind::kVersion: {
        body << "version " << version.id << " change \""
             << version.change_description << "\" fib_changes "
             << version.fib_changes << " reach_changes "
             << version.reach_changes;
        break;
      }
      case QueryKind::kHash: {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(
                          snapshot_digest(*version.snapshot)));
        body << "hash " << hex;
        break;
      }
      case QueryKind::kReach: {
        const topo::Snapshot& snapshot = engine.snapshot();
        const topo::NodeId src = snapshot.topology.node_id(query.src);
        const topo::NodeId owner = topo::find_address_owner(snapshot, query.dst);
        if (owner == topo::kNoNode) {
          body << "reachable false (no node owns " << query.dst.str() << ")";
        } else {
          const bool reachable = dp::any_reach(engine.verifier(), src, owner,
                                               Ipv4Prefix(query.dst, 32));
          body << "reachable " << (reachable ? "true" : "false") << " owner "
               << snapshot.topology.node_name(owner);
        }
        break;
      }
      case QueryKind::kPaths: {
        const topo::Snapshot& snapshot = engine.snapshot();
        const topo::NodeId src = snapshot.topology.node_id(query.src);
        const auto paths =
            core::forwarding_paths(engine.verifier(), src, query.dst);
        if (paths.empty()) {
          body << "no forwarding paths";
        } else {
          for (size_t i = 0; i < paths.size(); ++i) {
            if (i) body << "\n";
            body << paths[i].str(snapshot.topology);
          }
        }
        break;
      }
      case QueryKind::kCheck: {
        bool holds;
        if (query.scope_count > 1 &&
            query.invariant.kind == core::Invariant::Kind::kLoopFree) {
          // Partition-scoped loop freedom: vouch only for ingress at nodes
          // this partition owns. The rendered body is identical to the
          // unscoped form, so a scatter/gather merge of all partitions is
          // byte-identical to one monolithic evaluation.
          const shard::PartitionMap partition(query.scope_count);
          holds = dp::loop_free_from(
              engine.verifier(),
              partition.owned_nodes(engine.snapshot().topology,
                                    query.scope_index),
              query.invariant.traffic);
        } else {
          holds = core::eval_invariant(query.invariant, engine.snapshot(),
                                       engine.verifier());
        }
        body << "holds " << (holds ? "true" : "false") << " | "
             << query.invariant.describe();
        break;
      }
      case QueryKind::kRank:
      case QueryKind::kRisk:
      case QueryKind::kRiskDiff: {
        // Risk analytics run sweeps and memoize per (spec-hash, version) —
        // state only DnaService holds (RiskStore, the version store for
        // diff's second snapshot). serve_batch intercepts these kinds
        // before eval_query; reaching this arm means a caller evaluated a
        // risk query against a bare engine.
        result.ok = false;
        result.body = "risk analytics are served by DnaService (RiskStore)";
        return result;
      }
      case QueryKind::kWhatIf: {
        topo::Snapshot target = query.plan.apply(engine.snapshot());
        engine_dirty = true;
        core::NetworkDiff diff =
            engine.preview(std::move(target), core::Mode::kDifferential);
        engine_dirty = false;
        scenario::ScenarioResult scenario = scenario::summarize_diff(diff);
        scenario.name = query.plan.description();
        util::JsonWriter json;
        scenario::append_json(json, scenario);
        body << json.str();
        break;
      }
    }
  } catch (const std::exception& e) {
    if (engine_dirty) throw;
    result.ok = false;
    result.body = e.what();
    return result;
  }
  result.body = body.str();
  return result;
}

}  // namespace dna::service
