#include "dataplane/fib.h"

namespace dna::dp {

void LpmTable::rebuild(const cp::Fib& fib) {
  entries_.clear();
  per_length_.fill(0);
  present_lengths_ = 0;
  for (const cp::FibEntry& entry : fib) add(entry);
}

void LpmTable::replace(const std::vector<cp::FibEntry>& gone,
                       const std::vector<cp::FibEntry>& come) {
  for (const cp::FibEntry& entry : gone) remove(entry.prefix);
  for (const cp::FibEntry& entry : come) add(entry);
}

void LpmTable::add(const cp::FibEntry& entry) {
  const int len = entry.prefix.length();
  if (entries_.insert_or_assign(entry.prefix, entry).second &&
      per_length_[len]++ == 0) {
    present_lengths_ |= uint64_t{1} << len;
  }
}

void LpmTable::remove(const Ipv4Prefix& prefix) {
  const int len = prefix.length();
  if (entries_.erase(prefix) && --per_length_[len] == 0) {
    present_lengths_ &= ~(uint64_t{1} << len);
  }
}

const cp::FibEntry* LpmTable::lookup(Ipv4Addr addr) const {
  for (int len = 32; len >= 0; --len) {
    if (!((present_lengths_ >> len) & 1)) continue;
    auto it = entries_.find(Ipv4Prefix(addr, static_cast<uint8_t>(len)));
    if (it != entries_.end()) return &it->second;
  }
  return nullptr;
}

}  // namespace dna::dp
