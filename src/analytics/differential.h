// Differential risk: how the risk surface moved between two versions.
//
// The differential-analysis idiom (log2 fold-change over a pseudocount,
// enriched/depleted/stable categorization) applied to keystone scores: the
// same sweep spec is evaluated on two committed snapshots and each element's
// score is compared as
//
//   log2_fc = log2((keystone_after + 1e-6) / (keystone_before + 1e-6))
//
// with |log2_fc| > 1 (a doubling or halving) the enrichment threshold. An
// element that carried no mass before the change and real mass after it is
// strongly enriched — the cost bump or reroute made it load-bearing; the
// reverse is depleted. The outer join keeps elements that exist on only one
// side (a drained link has no scenarios after its failure commits).
//
// Determinism: fold changes are computed once from exact micro-unit scores,
// rounded to 1e-4 for both ordering and rendering, so the report is a pure
// function of the two input reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/risk.h"
#include "util/json.h"

namespace dna::analytics {

struct ElementDelta {
  std::string element;
  std::string kind;
  uint64_t keystone_before_micro = 0;  // 1e-6 units (see RiskReport)
  uint64_t keystone_after_micro = 0;
  uint64_t mass_before = 0;
  uint64_t mass_after = 0;
  /// log2 fold change in 1e-4 units, rounded to nearest — the sort key and
  /// the rendered value, so ordering and printing cannot disagree.
  int64_t log2_fc_e4 = 0;
  enum class Status { kEnriched, kDepleted, kStable };
  Status status = Status::kStable;

  const char* status_name() const;
};

struct RiskDiff {
  std::string sweep;
  uint64_t version_before = 0;
  uint64_t version_after = 0;
  uint64_t enriched = 0;
  uint64_t depleted = 0;
  uint64_t stable = 0;
  /// Ordered: enriched (largest fold-change first), then depleted (most
  /// negative first), then stable (largest |fold-change| first); ties break
  /// by (kind, element) for a total deterministic order.
  std::vector<ElementDelta> elements;

  /// {"risk_diff": {...}} — the `risk diff` query body. `top_k` caps the
  /// elements array (0 = all); the bucket counters always cover everything.
  std::string to_json(size_t top_k = 0) const;
  void append_json(util::JsonWriter& json, size_t top_k = 0) const;
};

/// Outer-joins the two reports on (kind, element) and classifies every
/// element. The reports should come from the same sweep spec evaluated on
/// two versions' snapshots; sweep/version metadata is copied from them.
RiskDiff diff_risk(const RiskReport& before, const RiskReport& after);

}  // namespace dna::analytics
