// Datalog tuples: fixed-arity rows of 64-bit values.
//
// Strings are interned to symbols by callers (see util/interner.h) so tuples
// stay flat and hashing is cheap. Tuples up to arity 4 live entirely inline
// (no heap traffic per fact); wider tuples spill to a heap buffer. The
// network relations datalog hosts (edges, reachability pairs) are arity 2-3,
// so the spill path is the exception, not the rule.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "util/hash.h"

namespace dna::datalog {

using Value = int64_t;

/// A tuple of Values with inline storage for arity <= kInlineCapacity.
/// Offers what the evaluator needs of a std::vector<Value>:
/// push_back/reserve/indexing/iteration, lexicographic ordering, equality.
class Tuple {
 public:
  static constexpr size_t kInlineCapacity = 4;

  Tuple() noexcept : size_(0), heap_cap_(0) {}

  Tuple(std::initializer_list<Value> values) : Tuple() {
    assign(values.begin(), values.size());
  }

  /// Implicit bridge from vector-shaped callers (fact builders, test data).
  Tuple(const std::vector<Value>& values) : Tuple() {
    assign(values.data(), values.size());
  }

  Tuple(const Tuple& other) : Tuple() { assign(other.data(), other.size_); }

  Tuple(Tuple&& other) noexcept : size_(other.size_),
                                  heap_cap_(other.heap_cap_) {
    if (heap_cap_ != 0) {
      heap_ = other.heap_;
    } else {
      std::copy(other.inline_, other.inline_ + size_, inline_);
    }
    other.size_ = 0;
    other.heap_cap_ = 0;
  }

  Tuple& operator=(const Tuple& other) {
    if (this != &other) {
      size_ = 0;  // contents are dead; reuse whatever storage we hold
      if (other.size_ > capacity()) grow(other.size_);
      std::copy(other.data(), other.data() + other.size_, data());
      size_ = other.size_;
    }
    return *this;
  }

  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      release();
      size_ = other.size_;
      heap_cap_ = other.heap_cap_;
      if (heap_cap_ != 0) {
        heap_ = other.heap_;
      } else {
        std::copy(other.inline_, other.inline_ + size_, inline_);
      }
      other.size_ = 0;
      other.heap_cap_ = 0;
    }
    return *this;
  }

  ~Tuple() { release(); }

  size_t size() const { return size_; }
  size_t capacity() const {
    return heap_cap_ != 0 ? heap_cap_ : kInlineCapacity;
  }
  bool is_inline() const { return heap_cap_ == 0; }

  Value* data() { return heap_cap_ != 0 ? heap_ : inline_; }
  const Value* data() const { return heap_cap_ != 0 ? heap_ : inline_; }

  Value& operator[](size_t i) { return data()[i]; }
  Value operator[](size_t i) const { return data()[i]; }
  Value back() const { return data()[size_ - 1]; }

  Value* begin() { return data(); }
  Value* end() { return data() + size_; }
  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size_; }

  void clear() { size_ = 0; }

  void reserve(size_t n) {
    if (n > capacity()) grow(n);
  }

  void push_back(Value v) {
    if (size_ == capacity()) grow(size_ + 1);
    data()[size_++] = v;
  }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.data(), b.data(), a.size_ * sizeof(Value)) == 0;
  }

  friend std::strong_ordering operator<=>(const Tuple& a, const Tuple& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  void assign(const Value* src, size_t n) {
    if (n > capacity()) grow(n);
    std::copy(src, src + n, data());
    size_ = static_cast<uint32_t>(n);
  }

  void grow(size_t needed) {
    size_t new_cap = capacity() * 2;
    if (new_cap < needed) new_cap = needed;
    Value* buf = new Value[new_cap];
    std::copy(data(), data() + size_, buf);
    release();
    heap_ = buf;
    heap_cap_ = static_cast<uint32_t>(new_cap);
  }

  void release() {
    if (heap_cap_ != 0) {
      delete[] heap_;
      heap_cap_ = 0;
    }
  }

  uint32_t size_;
  uint32_t heap_cap_;  // 0 => inline storage in use
  union {
    Value inline_[kInlineCapacity];
    Value* heap_;
  };
};

struct TupleHash {
  size_t operator()(const Tuple& tuple) const noexcept {
    size_t h = hash_u64(tuple.size());
    for (Value v : tuple) {
      h = hash_combine(h, hash_u64(static_cast<uint64_t>(v)));
    }
    return h;
  }
};

}  // namespace dna::datalog
