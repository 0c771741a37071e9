// Lock-light telemetry for the serving tier: named counters, gauges, and
// log-bucketed latency histograms behind a Registry.
//
//   obs::Registry registry;
//   obs::Counter& queries = registry.counter("service.queries_total");
//   obs::Histogram& eval =
//       registry.histogram("service.query_eval_seconds");
//   queries.add();
//   eval.observe(elapsed_ns);          // nanoseconds in, seconds out
//   std::cout << registry.str();       // human text
//   std::cout << registry.prometheus_text();  // scrape endpoint payload
//
// Hot-path discipline: a write is one relaxed atomic add on a per-thread
// shard — no mutex, no cache-line ping-pong between writer threads. Reads
// (str(), snapshots, expositions) aggregate the shards; they are exact with
// respect to every write that happened-before the read and O(shards) per
// metric, which only matters on the (cold) exposition path.
//
// Metric handles returned by the Registry are stable for the Registry's
// lifetime: resolve them once (a mutex-guarded name lookup) and cache the
// reference on the hot path.
//
// Naming: dotted lowercase ("service.queries_total"). Histograms that
// observe nanoseconds should end in "_seconds" — expositions convert to
// seconds, matching Prometheus base-unit conventions. Dots become
// underscores and a "dna_" prefix is added in the Prometheus rendering.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.h"

namespace dna::obs {

/// Writer-side sharding degree. A power of two; threads hash onto shards,
/// so concurrent writers usually touch distinct cache lines.
inline constexpr size_t kShards = 16;

/// This thread's shard slot (cached per thread).
inline size_t shard_index() {
  static thread_local const size_t index =
      std::hash<std::thread::id>()(std::this_thread::get_id()) % kShards;
  return index;
}

/// Nanoseconds on the steady clock — the time base every latency metric
/// and trace span shares. On x86-64 with an invariant TSC this is a
/// calibrated rdtsc (a few ns per read); elsewhere it is steady_clock.
uint64_t now_ns();

/// end - start, clamped at zero. Use for durations whose endpoints were
/// read on different threads: the TSC fast path can skew a few ns between
/// cores, and an unsigned wrap would record a ~584-year latency.
inline uint64_t elapsed_ns(uint64_t start_ns, uint64_t end_ns) {
  return end_ns > start_ns ? end_ns - start_ns : 0;
}

/// A monotonically increasing sum.
class Counter {
 public:
  void add(uint64_t n = 1) {
    shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t sum = 0;
    for (const Shard& shard : shards_) {
      sum += shard.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

/// A point-in-time value (set/add/max semantics). Not sharded: gauges are
/// written rarely (peaks, sizes), never per-query in a tight loop.
class Gauge {
 public:
  void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if it is below it (atomic running maximum).
  void set_max(int64_t v) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < v &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A log2-bucketed distribution of non-negative integer observations.
///
/// Bucket b counts values whose bit width is b: 0 lands in bucket 0, and
/// v in [2^(b-1), 2^b) lands in bucket b — so bucket upper bounds run
/// 0, 1, 2, 4, 8, ... 2^63. Geometric buckets keep the array small (64
/// slots) while resolving latencies from nanoseconds to hours with a
/// worst-case quantile error of one octave, which is what a regression
/// gate or a p99 dashboard actually needs.
class Histogram {
 public:
  /// What one observation means; expositions render kNanos as seconds.
  enum class Unit { kNanos, kCount };
  static constexpr size_t kBuckets = 64;

  explicit Histogram(Unit unit = Unit::kNanos) : unit_(unit) {}

  Unit unit() const { return unit_; }

  /// Bucket index for a value (its bit width).
  static size_t bucket_of(uint64_t value) {
    size_t bits = 0;
    while (value != 0) {
      ++bits;
      value >>= 1;
    }
    return bits;
  }
  /// Inclusive upper bound of a bucket: 0 for bucket 0, else 2^b - 1.
  static uint64_t bucket_upper(size_t bucket) {
    if (bucket == 0) return 0;
    if (bucket >= 64) return ~uint64_t{0};
    return (uint64_t{1} << bucket) - 1;
  }

  void observe(uint64_t value) {
    Shard& shard = shards_[shard_index()];
    shard.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = shard.max.load(std::memory_order_relaxed);
    while (seen < value && !shard.max.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  /// An aggregated point-in-time view; also the merge algebra the
  /// per-thread shards (and any cross-process rollup) reduce under —
  /// merge is commutative and associative with identity Snapshot{}.
  struct Snapshot {
    std::array<uint64_t, kBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;

    void merge(const Snapshot& other) {
      for (size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
      count += other.count;
      sum += other.sum;
      if (other.max > max) max = other.max;
    }
    /// Adds one observation (the single-sample snapshot; tests use this to
    /// state merge laws).
    void add(uint64_t value) {
      buckets[bucket_of(value)] += 1;
      count += 1;
      sum += value;
      if (value > max) max = value;
    }
    /// The q-quantile (q in [0,1]) estimated by linear interpolation
    /// within the covering bucket; 0 when empty. Error is bounded by the
    /// bucket's octave.
    double quantile(double q) const;
    /// The three quantiles every exposition reports, computed in one pass
    /// and clamped so p50 <= p95 <= p99 holds even when concurrent shard
    /// merges or interpolation rounding would let them cross.
    struct Quantiles {
      double p50 = 0;
      double p95 = 0;
      double p99 = 0;
    };
    Quantiles quantiles() const;
    double mean() const { return count == 0 ? 0 : double(sum) / double(count); }
  };

  Snapshot snapshot() const {
    Snapshot out;
    for (const Shard& shard : shards_) {
      for (size_t b = 0; b < kBuckets; ++b) {
        const uint64_t n = shard.buckets[b].load(std::memory_order_relaxed);
        out.buckets[b] += n;
        out.count += n;
      }
      out.sum += shard.sum.load(std::memory_order_relaxed);
      const uint64_t m = shard.max.load(std::memory_order_relaxed);
      if (m > out.max) out.max = m;
    }
    return out;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  Unit unit_;
  std::array<Shard, kShards> shards_;
};

/// A named family of metrics with stable handles and three expositions
/// (human text, JSON, Prometheus). One Registry per serving component
/// (DnaService, ShardRouter) keeps in-process deployments — tests run
/// several services side by side — from aliasing each other's counters.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates. The returned reference lives as long as the
  /// Registry; re-requesting a name returns the same object. Requesting an
  /// existing histogram with a different unit keeps the original unit.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       Histogram::Unit unit = Histogram::Unit::kNanos);

  /// Human-readable listing, sorted by name.
  std::string str() const;
  /// Appends a "stats" object mapping each metric name to its value —
  /// histograms become {count,sum,max,mean,p50,p95,p99,buckets:[[le,n]]}
  /// with second-valued fields for kNanos histograms.
  void append_json(util::JsonWriter& json) const;
  /// Prometheus text exposition (version 0.0.4): one HELP/TYPE block per
  /// family, names prefixed "dna_" with dots flattened to underscores.
  std::string prometheus_text() const;

  /// One flat scalar per metric, sorted by name — the shape the flight
  /// recorder (recorder.h) delta-compresses into its ring. Counters and
  /// gauges appear under their own names; a histogram contributes
  /// "<name>.count" (observations so far) and "<name>.sum" (in exposition
  /// units, i.e. seconds for kNanos), which is what windowed rate and mean
  /// computations over two samples need.
  std::vector<std::pair<std::string, double>> sample() const;

 private:
  mutable std::mutex mutex_;  // guards the maps, not the metric values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dna::obs
