// Packet equivalence classes over the destination address space.
//
// Every prefix ever observed (FIB destinations, ACL destination matches)
// contributes its boundary addresses; the atoms are the elementary intervals
// between consecutive boundaries. Within one atom every node's LPM decision
// and every ACL's destination match are constant, so verification runs once
// per atom with a representative address (Veriflow-style).
//
// Under commits, atoms only split (boundaries are never removed when a
// prefix disappears); a finer-than-necessary partition stays correct and
// keeps EC ids stable, which the incremental verifier relies on. A rolled
// back preview undoes its own splits, last first, so the partition and
// every id return to what they were before it.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/ip.h"

namespace dna::dp {

using EcId = uint32_t;

class EcIndex {
 public:
  EcIndex();

  /// Ensures boundaries exist for `prefix`. Returns (child, parent) pairs
  /// for atoms created by splits: the child covers a suffix piece of the
  /// range the parent covered before the split, so the child's pre-change
  /// verification state is exactly the parent's.
  std::vector<std::pair<EcId, EcId>> insert_prefix(const Ipv4Prefix& prefix);

  /// Undoes the split that created `child`, the newest atom, from
  /// `parent`: the child's range merges back into the parent's and its id
  /// is freed.
  void unsplit(EcId child, EcId parent);

  /// Atom ids whose range overlaps `prefix`.
  std::vector<EcId> covering(const Ipv4Prefix& prefix) const;

  /// Representative (first) address of an atom.
  Ipv4Addr representative(EcId ec) const { return Ipv4Addr(ranges_[ec].lo); }

  struct Range {
    uint32_t lo = 0;
    uint32_t hi = 0;  // inclusive
  };
  const Range& range(EcId ec) const { return ranges_[ec]; }

  size_t num_atoms() const { return ranges_.size(); }

 private:
  /// Inserts a boundary at `addr`; returns (child, parent) for a fresh
  /// split, or (kNoSplit, kNoSplit) if the boundary already existed.
  static constexpr EcId kNoSplit = ~EcId{0};
  std::pair<EcId, EcId> add_boundary(uint32_t addr);

  std::map<uint32_t, EcId> starts_;  // atom start address -> id
  std::vector<Range> ranges_;        // by id
};

}  // namespace dna::dp
