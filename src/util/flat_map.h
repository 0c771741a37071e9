// Open-addressing hash map with robin-hood probing and backward-shift erase.
//
// Built for maps probed on every derivation or route update (datalog fact
// counts and index buckets, the control plane's per-prefix RIB candidates),
// where node-based std::unordered_map spends most of its time in the
// allocator and chasing bucket pointers. Design points:
//
//   - One flat slot array (hash, key, value); capacity is a power of two.
//     A stored hash of zero marks an empty slot, so probing never touches
//     the key on a miss and rehashing never re-invokes the hash functor.
//   - Robin-hood insertion bounds probe-sequence variance; erase shifts the
//     following cluster back one slot instead of leaving tombstones, so a
//     churned map never degrades (long-lived service sessions depend on it).
//   - Heterogeneous "hashed" entry points (`find_hashed`, `try_emplace_hashed`,
//     `erase_hashed`) take a precomputed hash plus an equality predicate and
//     build the key lazily only when an insert actually happens, so a caller
//     can probe by a key it has not materialized. find and try_emplace are
//     these with the key's own hash and equality.
//
// Iterators and entry pointers are invalidated by any insert (rehash or
// robin-hood displacement) and by erase (backward shift). The supported
// pattern is lookup → mutate value → optionally erase, with no interleaved
// map mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/hash.h"

namespace dna::util {

template <class Key, class T, class Hash = std::hash<Key>,
          class KeyEqual = std::equal_to<Key>>
class FlatMap {
 public:
  using key_type = Key;
  using mapped_type = T;
  using value_type = std::pair<Key, T>;
  using size_type = size_t;

 private:
  struct Slot {
    size_t hash = 0;  // 0 = empty
    value_type kv{};
  };

  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    using value_type = FlatMap::value_type;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;
    using difference_type = ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    Iter() = default;
    Iter(SlotPtr slot, SlotPtr end) : slot_(slot), end_(end) { skip_empty(); }
    // const_iterator from iterator.
    template <bool C = Const, class = std::enable_if_t<C>>
    Iter(const Iter<false>& other) : slot_(other.slot_), end_(other.end_) {}

    reference operator*() const { return slot_->kv; }
    pointer operator->() const { return &slot_->kv; }
    Iter& operator++() {
      ++slot_;
      skip_empty();
      return *this;
    }
    Iter operator++(int) {
      Iter copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.slot_ == b.slot_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.slot_ != b.slot_;
    }

   private:
    friend class FlatMap;
    void skip_empty() {
      while (slot_ != end_ && slot_->hash == 0) ++slot_;
    }
    SlotPtr slot_ = nullptr;
    SlotPtr end_ = nullptr;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;

  size_type size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return {slots_.data(), slots_end()}; }
  iterator end() { return {slots_end(), slots_end()}; }
  const_iterator begin() const { return {slots_.data(), slots_end()}; }
  const_iterator end() const { return {slots_end(), slots_end()}; }

  void clear() {
    for (Slot& slot : slots_) {
      if (slot.hash != 0) {
        slot.hash = 0;
        slot.kv = value_type{};
      }
    }
    size_ = 0;
  }

  /// Ensures capacity for `n` entries without rehashing.
  void reserve(size_type n) {
    size_type needed = kMinCapacity;
    while (needed * kMaxLoadNum < n * kMaxLoadDen) needed <<= 1;
    if (needed > slots_.size()) rehash(needed);
  }

  // ---- heterogeneous (precomputed-hash) entry points -----------------------

  /// Finds the entry whose stored hash matches `raw_hash` and whose key
  /// satisfies `eq`. The predicate receives `const Key&`.
  template <class Pred>
  iterator find_hashed(size_t raw_hash, Pred&& eq) {
    if (size_ == 0) return end();
    const size_t h = normalize(raw_hash);
    const size_t mask = slots_.size() - 1;
    size_t idx = h & mask;
    size_t dist = 0;
    for (;;) {
      const Slot& slot = slots_[idx];
      if (slot.hash == 0) return end();
      if (slot.hash == h && eq(slot.kv.first)) return at_slot(idx);
      // Robin-hood invariant: anything probing further than the resident
      // entry's displacement cannot be present.
      if (probe_distance(slot.hash, idx, mask) < dist) return end();
      idx = (idx + 1) & mask;
      ++dist;
    }
  }

  template <class Pred>
  const_iterator find_hashed(size_t raw_hash, Pred&& eq) const {
    return const_cast<FlatMap*>(this)->find_hashed(raw_hash,
                                                   std::forward<Pred>(eq));
  }

  /// Lookup-or-insert with a lazily built key: if no entry matches
  /// (`raw_hash`, `eq`), inserts `{make_key(), T(args...)}`.
  template <class Pred, class MakeKey, class... Args>
  std::pair<iterator, bool> try_emplace_hashed(size_t raw_hash, Pred&& eq,
                                               MakeKey&& make_key,
                                               Args&&... args) {
    if (slots_.empty()) rehash(kMinCapacity);
    const size_t h = normalize(raw_hash);
    {
      const size_t mask = slots_.size() - 1;
      size_t idx = h & mask;
      size_t dist = 0;
      for (;;) {
        const Slot& slot = slots_[idx];
        if (slot.hash == 0 || probe_distance(slot.hash, idx, mask) < dist) {
          break;  // not present; fall through to insert
        }
        if (slot.hash == h && eq(slot.kv.first)) return {at_slot(idx), false};
        idx = (idx + 1) & mask;
        ++dist;
      }
    }
    if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      rehash(slots_.size() * 2);
    }
    const size_t idx =
        insert_fresh(h, value_type(std::forward<MakeKey>(make_key)(),
                                   T(std::forward<Args>(args)...)));
    ++size_;
    return {at_slot(idx), true};
  }

  /// Erases the entry matching (`raw_hash`, `eq`). Returns entries removed.
  template <class Pred>
  size_type erase_hashed(size_t raw_hash, Pred&& eq) {
    iterator it = find_hashed(raw_hash, std::forward<Pred>(eq));
    if (it == end()) return 0;
    erase(it);
    return 1;
  }

  // ---- std::unordered_map-compatible surface -------------------------------

  iterator find(const Key& key) {
    return find_hashed(Hash{}(key),
                       [&](const Key& k) { return KeyEqual{}(k, key); });
  }
  const_iterator find(const Key& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }
  size_type count(const Key& key) const {
    return find(key) == end() ? 0 : 1;
  }
  bool contains(const Key& key) const { return count(key) != 0; }

  template <class... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    return try_emplace_hashed(
        Hash{}(key), [&](const Key& k) { return KeyEqual{}(k, key); },
        [&]() -> const Key& { return key; }, std::forward<Args>(args)...);
  }
  template <class... Args>
  std::pair<iterator, bool> try_emplace(Key&& key, Args&&... args) {
    return try_emplace_hashed(
        Hash{}(key), [&](const Key& k) { return KeyEqual{}(k, key); },
        [&]() -> Key&& { return std::move(key); },
        std::forward<Args>(args)...);
  }
  std::pair<iterator, bool> insert(value_type kv) {
    auto [it, inserted] = try_emplace(std::move(kv.first));
    if (inserted) it->second = std::move(kv.second);
    return {it, inserted};
  }

  T& operator[](const Key& key) { return try_emplace(key).first->second; }

  T& at(const Key& key) {
    iterator it = find(key);
    DNA_CHECK_MSG(it != end(), "FlatMap::at: key not found");
    return it->second;
  }
  const T& at(const Key& key) const { return const_cast<FlatMap*>(this)->at(key); }

  /// Backward-shift erase: no tombstones, probe sequences stay short.
  iterator erase(iterator pos) {
    const size_t mask = slots_.size() - 1;
    size_t idx = static_cast<size_t>(pos.slot_ - slots_.data());
    for (;;) {
      const size_t next = (idx + 1) & mask;
      Slot& next_slot = slots_[next];
      if (next_slot.hash == 0 ||
          probe_distance(next_slot.hash, next, mask) == 0) {
        break;
      }
      slots_[idx] = std::move(next_slot);
      next_slot.hash = 0;
      next_slot.kv = value_type{};
      idx = next;
    }
    slots_[idx].hash = 0;
    slots_[idx].kv = value_type{};
    --size_;
    // The erased position now holds either a shifted-back successor or is
    // empty; re-normalizing makes `erase(it)` usable in iteration loops.
    return at_slot(static_cast<size_t>(pos.slot_ - slots_.data()));
  }

  size_type erase(const Key& key) {
    iterator it = find(key);
    if (it == end()) return 0;
    erase(it);
    return 1;
  }

  /// Order-independent equality (mirrors std::unordered_map::operator==).
  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    if (a.size_ != b.size_) return false;
    for (const value_type& kv : a) {
      auto it = b.find(kv.first);
      if (it == b.end() || !(it->second == kv.second)) return false;
    }
    return true;
  }
  friend bool operator!=(const FlatMap& a, const FlatMap& b) {
    return !(a == b);
  }

 private:
  static constexpr size_type kMinCapacity = 16;
  // Max load factor 7/8: robin-hood probing keeps clusters short enough to
  // run this dense, halving memory versus a 0.5-load table.
  static constexpr size_type kMaxLoadNum = 7;
  static constexpr size_type kMaxLoadDen = 8;

  static size_t normalize(size_t raw) {
    // Remix so weak hashes (e.g. std::hash<int> identity) still spread over
    // the table, and reserve 0 as the empty-slot sentinel.
    size_t h = hash_u64(raw);
    return h == 0 ? 1 : h;
  }

  static size_t probe_distance(size_t hash, size_t idx, size_t mask) {
    return (idx + mask + 1 - (hash & mask)) & mask;
  }

  Slot* slots_end() { return slots_.data() + slots_.size(); }
  const Slot* slots_end() const { return slots_.data() + slots_.size(); }

  iterator at_slot(size_t idx) { return {slots_.data() + idx, slots_end()}; }

  /// Robin-hood insert of a key known to be absent. Returns the slot index
  /// where `kv` itself landed (displaced residents may move further on).
  size_t insert_fresh(size_t h, value_type kv) {
    const size_t mask = slots_.size() - 1;
    size_t idx = h & mask;
    size_t dist = 0;
    size_t landed = SIZE_MAX;
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.hash == 0) {
        slot.hash = h;
        slot.kv = std::move(kv);
        return landed == SIZE_MAX ? idx : landed;
      }
      const size_t resident_dist = probe_distance(slot.hash, idx, mask);
      if (resident_dist < dist) {
        // Rob the rich: park the new entry here, keep shifting the resident.
        std::swap(h, slot.hash);
        std::swap(kv, slot.kv);
        if (landed == SIZE_MAX) landed = idx;
        dist = resident_dist;
      }
      idx = (idx + 1) & mask;
      ++dist;
    }
  }

  void rehash(size_type new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_capacity);
    for (Slot& slot : old) {
      if (slot.hash != 0) insert_fresh(slot.hash, std::move(slot.kv));
    }
  }

  std::vector<Slot> slots_;  // power-of-two size (or empty before first use)
  size_type size_ = 0;
};

}  // namespace dna::util
