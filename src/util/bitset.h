// A dynamic bitset sized at runtime, used for per-EC reachability sets.
//
// std::vector<bool> lacks word-level operations (union, intersection,
// difference, popcount) that the reachability differ needs, so we keep a
// small purpose-built type.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/hash.h"

namespace dna {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}
  DynamicBitset(const DynamicBitset&) = default;
  DynamicBitset& operator=(const DynamicBitset&) = default;
  // A moved-from bitset is empty (size 0), so its bounds checks still hold.
  DynamicBitset(DynamicBitset&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        words_(std::exchange(other.words_, {})) {}
  DynamicBitset& operator=(DynamicBitset&& other) noexcept {
    size_ = std::exchange(other.size_, 0);
    words_ = std::exchange(other.words_, {});
    return *this;
  }

  size_t size() const { return size_; }

  void set(size_t i) {
    DNA_CHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void reset(size_t i) {
    DNA_CHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  bool test(size_t i) const {
    DNA_CHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void clear() {
    for (auto& w : words_) w = 0;
  }

  size_t count() const;

  bool any() const {
    for (auto w : words_)
      if (w) return true;
    return false;
  }

  /// Indices set in *this but not in `other` (sizes must match).
  std::vector<uint32_t> minus(const DynamicBitset& other) const;

  /// Indices of all set bits, ascending.
  std::vector<uint32_t> to_indices() const;

  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);

  bool operator==(const DynamicBitset& other) const = default;

  size_t hash() const {
    size_t h = hash_u64(size_);
    for (auto w : words_) h = hash_combine(h, hash_u64(w));
    return h;
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace dna

template <>
struct std::hash<dna::DynamicBitset> {
  size_t operator()(const dna::DynamicBitset& b) const noexcept {
    return b.hash();
  }
};
