#include "analytics/differential.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace dna::analytics {

namespace {

constexpr double kPseudocount = 1e-6;

/// log2 fold change of two micro-unit keystone scores, rounded to 1e-4.
/// The pseudocount keeps zero scores finite (a 0 -> x move shows up as a
/// large, not infinite, enrichment) — the standard differential-analysis
/// guard. One libm call per element; everything downstream is integer.
int64_t fold_change_e4(uint64_t before_micro, uint64_t after_micro) {
  const double before = static_cast<double>(before_micro) * 1e-6 + kPseudocount;
  const double after = static_cast<double>(after_micro) * 1e-6 + kPseudocount;
  return std::llround(std::log2(after / before) * 1e4);
}

int status_order(ElementDelta::Status status) {
  switch (status) {
    case ElementDelta::Status::kEnriched:
      return 0;
    case ElementDelta::Status::kDepleted:
      return 1;
    case ElementDelta::Status::kStable:
      return 2;
  }
  return 2;
}

uint64_t magnitude_of(int64_t fc_e4) {
  return fc_e4 < 0 ? static_cast<uint64_t>(-fc_e4)
                   : static_cast<uint64_t>(fc_e4);
}

}  // namespace

const char* ElementDelta::status_name() const {
  switch (status) {
    case Status::kEnriched:
      return "enriched";
    case Status::kDepleted:
      return "depleted";
    case Status::kStable:
      return "stable";
  }
  return "stable";
}

RiskDiff diff_risk(const RiskReport& before, const RiskReport& after) {
  RiskDiff diff;
  diff.sweep = after.sweep.empty() ? before.sweep : after.sweep;
  diff.version_before = before.version;
  diff.version_after = after.version;

  // Outer join on (kind, element): an element present on one side only
  // joins against a zero score (plus the pseudocount).
  std::map<std::pair<std::string, std::string>,
           std::pair<const ElementRisk*, const ElementRisk*>>
      joined;
  for (const ElementRisk& element : before.elements) {
    joined[{element.kind, element.element}].first = &element;
  }
  for (const ElementRisk& element : after.elements) {
    joined[{element.kind, element.element}].second = &element;
  }

  // A doubling (or halving) of the keystone score is the enrichment
  // threshold — |log2 fc| > 1, in 1e-4 units.
  constexpr int64_t kThresholdE4 = 10000;
  diff.elements.reserve(joined.size());
  for (const auto& [key, sides] : joined) {
    ElementDelta delta;
    delta.kind = key.first;
    delta.element = key.second;
    if (sides.first != nullptr) {
      delta.keystone_before_micro = before.keystone_micro(*sides.first);
      delta.mass_before = sides.first->mass();
    }
    if (sides.second != nullptr) {
      delta.keystone_after_micro = after.keystone_micro(*sides.second);
      delta.mass_after = sides.second->mass();
    }
    delta.log2_fc_e4 =
        fold_change_e4(delta.keystone_before_micro, delta.keystone_after_micro);
    if (delta.log2_fc_e4 > kThresholdE4) {
      delta.status = ElementDelta::Status::kEnriched;
      ++diff.enriched;
    } else if (delta.log2_fc_e4 < -kThresholdE4) {
      delta.status = ElementDelta::Status::kDepleted;
      ++diff.depleted;
    } else {
      delta.status = ElementDelta::Status::kStable;
      ++diff.stable;
    }
    diff.elements.push_back(std::move(delta));
  }

  std::sort(diff.elements.begin(), diff.elements.end(),
            [](const ElementDelta& a, const ElementDelta& b) {
              const int sa = status_order(a.status);
              const int sb = status_order(b.status);
              if (sa != sb) return sa < sb;
              const uint64_t ma = magnitude_of(a.log2_fc_e4);
              const uint64_t mb = magnitude_of(b.log2_fc_e4);
              if (ma != mb) return ma > mb;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.element < b.element;
            });
  return diff;
}

void RiskDiff::append_json(util::JsonWriter& json, size_t top_k) const {
  json.begin_object();
  json.key("sweep").value(sweep);
  json.key("before").value(static_cast<unsigned long long>(version_before));
  json.key("after").value(static_cast<unsigned long long>(version_after));
  json.key("enriched").value(static_cast<unsigned long long>(enriched));
  json.key("depleted").value(static_cast<unsigned long long>(depleted));
  json.key("stable").value(static_cast<unsigned long long>(stable));
  json.key("elements_total")
      .value(static_cast<unsigned long long>(elements.size()));
  json.key("elements").begin_array();
  const size_t rows =
      top_k == 0 ? elements.size() : std::min(top_k, elements.size());
  for (size_t i = 0; i < rows; ++i) {
    const ElementDelta& delta = elements[i];
    json.begin_object();
    json.key("element").value(delta.element);
    json.key("kind").value(delta.kind);
    json.key("status").value(delta.status_name());
    // Exact integer -> double conversions; rendering is deterministic.
    json.key("log2_fc")
        .value(static_cast<double>(delta.log2_fc_e4) * 1e-4);
    json.key("keystone_before")
        .value(static_cast<double>(delta.keystone_before_micro) * 1e-6);
    json.key("keystone_after")
        .value(static_cast<double>(delta.keystone_after_micro) * 1e-6);
    json.key("mass_before")
        .value(static_cast<unsigned long long>(delta.mass_before));
    json.key("mass_after")
        .value(static_cast<unsigned long long>(delta.mass_after));
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

std::string RiskDiff::to_json(size_t top_k) const {
  util::JsonWriter json;
  json.begin_object();
  json.key("risk_diff");
  append_json(json, top_k);
  json.end_object();
  return json.str();
}

}  // namespace dna::analytics
