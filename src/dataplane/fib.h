// Longest-prefix-match lookup over a node's FIB.
#pragma once

#include <array>
#include <unordered_map>

#include "controlplane/route.h"

namespace dna::dp {

/// Hash-probing LPM: one exact-match table, probed from /32 down to /0.
/// Built once per node and patched from that node's FIB delta.
class LpmTable {
 public:
  LpmTable() = default;
  explicit LpmTable(const cp::Fib& fib) { rebuild(fib); }

  void rebuild(const cp::Fib& fib);

  /// Applies a FIB delta: its removed entries go, then its added ones come
  /// (a changed entry appears in both).
  void patch(const cp::NodeFibDelta& delta) {
    replace(delta.removed, delta.added);
  }
  /// Undoes patch(delta): its added entries go, its removed ones come back.
  void revert(const cp::NodeFibDelta& delta) {
    replace(delta.added, delta.removed);
  }

  /// The longest-prefix entry covering `addr`, or nullptr (drop).
  const cp::FibEntry* lookup(Ipv4Addr addr) const;

  size_t size() const { return entries_.size(); }

 private:
  void add(const cp::FibEntry& entry);
  void remove(const Ipv4Prefix& prefix);
  /// Removes the prefixes of `gone`, then adds `come`.
  void replace(const std::vector<cp::FibEntry>& gone,
               const std::vector<cp::FibEntry>& come);

  std::unordered_map<Ipv4Prefix, cp::FibEntry> entries_;
  std::array<uint32_t, 33> per_length_{};  // entries per prefix length
  uint64_t present_lengths_ = 0;  // bit l set => some entry has length l
};

}  // namespace dna::dp
