// DnaService's risk-analytics path: sweeps on idle replicas, memoized by
// RiskStore (see risk_store.h for the caching story, analytics/risk.h for
// the aggregation). Split from service.cc because it is a whole query
// family, not a dispatch detail.
#include <memory>
#include <utility>
#include <vector>

#include "analytics/differential.h"
#include "analytics/risk.h"
#include "service/service.h"
#include "util/error.h"

namespace dna::service {

namespace {

/// The memo's verb tag: rank and risk render different bodies from the same
/// report, and diff keys on two versions.
char risk_verb(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRank:
      return 'r';
    case QueryKind::kRiskDiff:
      return 'd';
    default:
      return 'k';
  }
}

/// Caps the rendered element/fragile arrays. Large fabrics have thousands
/// of elements and a quadratic host-invariant set; the counters in the body
/// still cover everything, and the cap keeps every answer well under the
/// framed protocol's payload limit.
constexpr size_t kRiskJsonTopK = 128;

}  // namespace

std::shared_ptr<const analytics::RiskReport> DnaService::risk_report_at(
    const analytics::SweepSpec& sweep, uint64_t spec_hash,
    const VersionHandle& version, core::DnaEngine* resident,
    bool* resident_dirty) {
  if (auto cached = risk_store_.report(spec_hash, version->id)) {
    ctr_risk_cache_hits_.add();
    return cached;
  }

  // Cold: run the sweep. The serving replica is already verified at the
  // right version for the common case; a diff's other side gets a scratch
  // engine (never advance a replica sideways off the version stream).
  const uint64_t start_ns = obs::now_ns();
  const analytics::SweepPlan plan =
      analytics::plan_sweep(sweep, *version->snapshot);
  std::unique_ptr<core::DnaEngine> scratch;
  core::DnaEngine* engine = resident;
  if (engine == nullptr) {
    scratch = make_engine(*version->snapshot);
    engine = scratch.get();
  }

  std::vector<scenario::ScenarioResult> results(plan.specs.size());
  for (size_t i = 0; i < plan.specs.size(); ++i) {
    // Same preview discipline as a what-if: a throw mid-preview leaves the
    // engine mid-advance. On the resident replica that must reach the
    // dispatcher (which resets it); a scratch engine just dies with the
    // exception.
    if (resident_dirty != nullptr && engine == resident) {
      *resident_dirty = true;
    }
    core::NetworkDiff diff = engine->preview(
        plan.specs[i].plan.apply(*version->snapshot), core::Mode::kDifferential);
    if (resident_dirty != nullptr && engine == resident) {
      *resident_dirty = false;
    }
    results[i] = scenario::summarize_diff(diff);
    results[i].index = i;
    results[i].name = plan.specs[i].name;
  }

  std::vector<std::string> descriptions;
  descriptions.reserve(invariants_.size());
  for (const core::Invariant& invariant : invariants_) {
    descriptions.push_back(invariant.describe());
  }
  auto report = std::make_shared<analytics::RiskReport>(
      analytics::analyze(plan, results, descriptions));
  report->sweep = sweep.str();
  report->version = version->id;

  ctr_risk_sweeps_.add();
  hist_risk_sweep_.observe(obs::now_ns() - start_ns);
  risk_store_.put_report(spec_hash, version->id, report);
  return report;
}

QueryResult DnaService::eval_risk(const Query& query,
                                  const VersionHandle& version,
                                  core::DnaEngine& engine) {
  QueryResult result;
  result.version = version->id;

  // query.sweep is already the canonical token (parse_query canonicalizes),
  // so equivalent spellings share a spec-hash — and re-parsing cannot fail.
  const analytics::SweepSpec sweep = analytics::parse_sweep(query.sweep);
  const uint64_t spec_hash = sweep.hash();
  const char verb = risk_verb(query.kind);
  const bool is_diff = query.kind == QueryKind::kRiskDiff;
  const uint64_t key_version = is_diff ? query.diff_before : version->id;
  const uint64_t key_version2 = is_diff ? query.diff_after : 0;

  if (auto hit =
          risk_store_.answer(verb, spec_hash, key_version, key_version2)) {
    ctr_risk_cache_hits_.add();
    result.body = std::move(*hit);
    return result;
  }

  // eval_query's dirty protocol: true only while the *serving replica* may
  // be mid-advance. Failures with the flag false (unknown sweep node, a
  // retired diff version, a scratch-engine throw) fail just this query.
  bool engine_dirty = false;
  try {
    std::string body;
    if (is_diff) {
      const auto resolve = [&](uint64_t id) {
        VersionHandle handle = store_.find(id);
        if (!handle) {
          throw Error("version " + std::to_string(id) +
                      " is not live (never published, or already retired)");
        }
        return handle;
      };
      const VersionHandle before = resolve(query.diff_before);
      const VersionHandle after = resolve(query.diff_after);
      const auto resident = [&](const VersionHandle& target) {
        return target->id == version->id ? &engine : nullptr;
      };
      const auto report_before = risk_report_at(
          sweep, spec_hash, before, resident(before), &engine_dirty);
      const auto report_after = risk_report_at(
          sweep, spec_hash, after, resident(after), &engine_dirty);
      body = analytics::diff_risk(*report_before, *report_after)
                 .to_json(kRiskJsonTopK);
    } else {
      const auto report =
          risk_report_at(sweep, spec_hash, version, &engine, &engine_dirty);
      body = query.kind == QueryKind::kRank
                 ? report->to_rank_json(kRiskJsonTopK)
                 : report->to_json(kRiskJsonTopK);
    }
    risk_store_.put_answer(verb, spec_hash, key_version, key_version2, body);
    result.body = std::move(body);
  } catch (const std::exception& e) {
    if (engine_dirty) throw;
    result.ok = false;
    result.body = e.what();
  }
  return result;
}

}  // namespace dna::service
