#include "dataplane/ectrie.h"

#include "util/error.h"

namespace dna::dp {

EcIndex::EcIndex() {
  // One atom covering the whole space.
  starts_.emplace(0u, 0u);
  ranges_.push_back({0u, ~0u});
}

std::pair<EcId, EcId> EcIndex::add_boundary(uint32_t addr) {
  auto it = starts_.lower_bound(addr);
  if (it != starts_.end() && it->first == addr) return {kNoSplit, kNoSplit};
  DNA_CHECK(it != starts_.begin());
  --it;  // atom containing addr
  const EcId parent = it->second;
  const EcId child = static_cast<EcId>(ranges_.size());
  ranges_.push_back({addr, ranges_[parent].hi});
  ranges_[parent].hi = addr - 1;
  starts_.emplace(addr, child);
  return {child, parent};
}

void EcIndex::unsplit(EcId child, EcId parent) {
  DNA_CHECK(child + 1 == ranges_.size() &&
            ranges_[parent].hi + 1 == ranges_[child].lo);
  ranges_[parent].hi = ranges_[child].hi;
  starts_.erase(ranges_[child].lo);
  ranges_.pop_back();
}

std::vector<std::pair<EcId, EcId>> EcIndex::insert_prefix(
    const Ipv4Prefix& prefix) {
  std::vector<std::pair<EcId, EcId>> created;
  auto a = add_boundary(prefix.first().bits());
  if (a.first != kNoSplit) created.push_back(a);
  const uint32_t last = prefix.last().bits();
  if (last != ~0u) {
    auto b = add_boundary(last + 1);
    if (b.first != kNoSplit) created.push_back(b);
  }
  return created;
}

std::vector<EcId> EcIndex::covering(const Ipv4Prefix& prefix) const {
  std::vector<EcId> out;
  const uint32_t lo = prefix.first().bits();
  const uint32_t hi = prefix.last().bits();
  auto it = starts_.upper_bound(lo);
  DNA_CHECK(it != starts_.begin());
  --it;  // first atom overlapping lo
  for (; it != starts_.end() && it->first <= hi; ++it) {
    out.push_back(it->second);
  }
  return out;
}

}  // namespace dna::dp
