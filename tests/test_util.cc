// Unit tests for the foundation utilities.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <utility>

#include "util/bitset.h"
#include "util/flat_map.h"
#include "util/interner.h"
#include "util/ip.h"
#include "util/rng.h"
#include "util/strings.h"

namespace dna {
namespace {

TEST(Ipv4Addr, ParseAndFormatRoundTrip) {
  auto addr = Ipv4Addr::parse("10.1.2.3");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->str(), "10.1.2.3");
  EXPECT_EQ(addr->bits(), 0x0a010203u);
}

TEST(Ipv4Addr, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Addr::parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("256.1.2.3").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.1.2.3x").has_value());
}

TEST(Ipv4Addr, Ordering) {
  EXPECT_LT(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  EXPECT_LT(Ipv4Addr(9, 255, 255, 255), Ipv4Addr(10, 0, 0, 0));
}

TEST(Ipv4Prefix, MasksHostBits) {
  Ipv4Prefix p(Ipv4Addr(10, 1, 2, 3), 24);
  EXPECT_EQ(p.addr(), Ipv4Addr(10, 1, 2, 0));
  EXPECT_EQ(p.str(), "10.1.2.0/24");
  EXPECT_EQ(p.first(), Ipv4Addr(10, 1, 2, 0));
  EXPECT_EQ(p.last(), Ipv4Addr(10, 1, 2, 255));
}

TEST(Ipv4Prefix, ParseRoundTrip) {
  auto p = Ipv4Prefix::parse("192.168.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->str(), "192.168.0.0/16");
  EXPECT_FALSE(Ipv4Prefix::parse("192.168.0.0").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("192.168.0.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("192.168.0.0/x").has_value());
}

TEST(Ipv4Prefix, DefaultRouteCoversEverything) {
  Ipv4Prefix def = Ipv4Prefix::default_route();
  EXPECT_EQ(def.length(), 0);
  EXPECT_TRUE(def.contains(Ipv4Addr(1, 2, 3, 4)));
  EXPECT_TRUE(def.contains(Ipv4Addr(255, 255, 255, 255)));
}

TEST(Ipv4Prefix, Containment) {
  Ipv4Prefix wide(Ipv4Addr(10, 0, 0, 0), 8);
  Ipv4Prefix narrow(Ipv4Addr(10, 1, 0, 0), 16);
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.overlaps(narrow));
  EXPECT_TRUE(narrow.overlaps(wide));
  Ipv4Prefix other(Ipv4Addr(11, 0, 0, 0), 8);
  EXPECT_FALSE(wide.overlaps(other));
}

TEST(Ipv4Prefix, EqualityIgnoresHostBits) {
  Ipv4Prefix a(Ipv4Addr(10, 1, 2, 3), 24);
  Ipv4Prefix b(Ipv4Addr(10, 1, 2, 200), 24);
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::hash<Ipv4Prefix>{}(a), std::hash<Ipv4Prefix>{}(b));
}

TEST(Ipv4Prefix, SlashThirtyTwo) {
  Ipv4Prefix host(Ipv4Addr(172, 16, 0, 5), 32);
  EXPECT_EQ(host.first(), host.last());
  EXPECT_TRUE(host.contains(Ipv4Addr(172, 16, 0, 5)));
  EXPECT_FALSE(host.contains(Ipv4Addr(172, 16, 0, 6)));
}

TEST(Interner, BidirectionalMapping) {
  Interner interner;
  Symbol a = interner.intern("alpha");
  Symbol b = interner.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("alpha"), a);
  EXPECT_EQ(interner.str(a), "alpha");
  EXPECT_EQ(interner.str(b), "beta");
  EXPECT_EQ(interner.find("alpha"), a);
  EXPECT_EQ(interner.find("gamma"), Interner::kNoSymbol);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_ws("  a\t b  "), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\r\n"), "");
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("12345"), 12345);
  EXPECT_EQ(parse_int(""), -1);
  EXPECT_EQ(parse_int("12x"), -1);
  EXPECT_EQ(parse_int("-3"), -1);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen[v]++;
  }
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Bitset, SetResetTestCount) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.count(), 0u);
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(Bitset, MovedFromIsEmpty) {
  // A moved-from bitset keeps no size its storage lacks, so its bounds
  // checks still catch an index into it.
  DynamicBitset a(130);
  a.set(70);
  DynamicBitset b = std::move(a);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_THROW(a.set(70), InternalError);
  EXPECT_TRUE(b.test(70));
  DynamicBitset c(10);
  c = std::move(b);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_THROW((void)b.test(70), InternalError);
  EXPECT_EQ(c.size(), 130u);
  EXPECT_TRUE(c.test(70));
  b = DynamicBitset(5);
  b.set(4);
  EXPECT_EQ(b.count(), 1u);
}

TEST(Bitset, MinusAndIndices) {
  DynamicBitset a(70), b(70);
  a.set(1);
  a.set(65);
  a.set(69);
  b.set(65);
  EXPECT_EQ(a.minus(b), (std::vector<uint32_t>{1, 69}));
  EXPECT_EQ(b.minus(a), (std::vector<uint32_t>{}));
  EXPECT_EQ(a.to_indices(), (std::vector<uint32_t>{1, 65, 69}));
}

TEST(Bitset, UnionIntersection) {
  DynamicBitset a(10), b(10);
  a.set(1);
  b.set(2);
  DynamicBitset u = a;
  u |= b;
  EXPECT_TRUE(u.test(1));
  EXPECT_TRUE(u.test(2));
  u &= b;
  EXPECT_FALSE(u.test(1));
  EXPECT_TRUE(u.test(2));
}

TEST(Bitset, EqualityAndHash) {
  DynamicBitset a(10), b(10);
  a.set(3);
  b.set(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(4);
  EXPECT_NE(a, b);
}

TEST(FlatMap, InsertFindEraseBasics) {
  util::FlatMap<int, std::string> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), m.end());

  m[1] = "one";
  auto [it, inserted] = m.try_emplace(2, "two");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "two");
  auto [it2, inserted2] = m.try_emplace(2, "TWO");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, "two");

  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(1), "one");
  EXPECT_EQ(m.count(3), 0u);
  EXPECT_EQ(m.erase(1), 1u);
  EXPECT_EQ(m.erase(1), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.contains(2));
}

TEST(FlatMap, IterationVisitsEveryEntryOnce) {
  util::FlatMap<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i * 10;
  size_t seen = 0;
  int64_t sum = 0;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(v, k * 10);
    ++seen;
    sum += k;
  }
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sum, 99 * 100 / 2);
}

// All keys collide into the same probe chain: exercises robin-hood
// displacement on insert and backward-shift on erase.
struct ConstantHash {
  size_t operator()(int) const { return 42; }
};

TEST(FlatMap, SurvivesForcedHashCollisions) {
  util::FlatMap<int, int, ConstantHash> m;
  for (int i = 0; i < 12; ++i) m[i] = i;
  EXPECT_EQ(m.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(m.at(i), i);

  // Erase from the middle of the chain; the tail must shift back.
  for (int i = 3; i < 9; ++i) EXPECT_EQ(m.erase(i), 1u);
  EXPECT_EQ(m.size(), 6u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(m.at(i), i);
  for (int i = 9; i < 12; ++i) EXPECT_EQ(m.at(i), i);
  for (int i = 3; i < 9; ++i) EXPECT_EQ(m.find(i), m.end());

  // Reinsert into the holes.
  for (int i = 3; i < 9; ++i) m[i] = 100 + i;
  for (int i = 3; i < 9; ++i) EXPECT_EQ(m.at(i), 100 + i);
  EXPECT_EQ(m.size(), 12u);
}

TEST(FlatMap, HashedProbesMatchPlainOnes) {
  util::FlatMap<int, int> m;
  m[7] = 70;
  const size_t h = std::hash<int>{}(7);
  auto it = m.find_hashed(h, [](int k) { return k == 7; });
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->second, 70);

  auto [it2, inserted] = m.try_emplace_hashed(
      std::hash<int>{}(8), [](int k) { return k == 8; }, [] { return 8; }, 80);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(m.at(8), 80);
  EXPECT_EQ(m.erase_hashed(h, [](int k) { return k == 7; }), 1u);
  EXPECT_EQ(m.find(7), m.end());
}

TEST(FlatMap, EqualityIsOrderIndependent) {
  util::FlatMap<int, int> a, b;
  for (int i = 0; i < 50; ++i) a[i] = i;
  for (int i = 49; i >= 0; --i) b[i] = i;
  EXPECT_EQ(a, b);
  b[50] = 50;
  EXPECT_NE(a, b);
  b.erase(50);
  EXPECT_EQ(a, b);
  b[0] = 999;
  EXPECT_NE(a, b);
}

// Randomized churn against std::unordered_map as the oracle, with a weak
// hash so probe chains overlap constantly.
struct LowBitsHash {
  size_t operator()(int k) const { return static_cast<size_t>(k) & 3; }
};

TEST(FlatMapProperty, ChurnMatchesUnorderedMap) {
  util::FlatMap<int, int, LowBitsHash> flat;
  std::unordered_map<int, int> ref;
  Rng rng(0xF1A7);
  for (int step = 0; step < 20000; ++step) {
    const int key = static_cast<int>(rng.below(200));
    const int op = static_cast<int>(rng.below(3));
    if (op == 0) {
      flat[key] = step;
      ref[key] = step;
    } else if (op == 1) {
      EXPECT_EQ(flat.erase(key), ref.erase(key));
    } else {
      auto fit = flat.find(key);
      auto rit = ref.find(key);
      ASSERT_EQ(fit == flat.end(), rit == ref.end());
      if (rit != ref.end()) EXPECT_EQ(fit->second, rit->second);
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Full sweep at the end: identical contents.
  for (const auto& [k, v] : ref) EXPECT_EQ(flat.at(k), v);
  size_t n = 0;
  for (const auto& kv : flat) {
    EXPECT_EQ(ref.at(kv.first), kv.second);
    ++n;
  }
  EXPECT_EQ(n, ref.size());
}

}  // namespace
}  // namespace dna
