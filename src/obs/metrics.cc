#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#if defined(__x86_64__)
#include <cpuid.h>
#include <x86intrin.h>
#endif

namespace dna::obs {

namespace {

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__x86_64__)
// Calibrated TSC clock. now_ns() sits on the query hot path three times
// (submit, dequeue, post-eval), and a clock_gettime round trip costs ~40ns
// here — comparable to all the histogram observes it feeds. On CPUs with an
// invariant TSC (constant rate, never stops; CPUID.80000007H:EDX[8]) a raw
// rdtsc scaled by a once-measured ticks→ns factor gives the same timeline
// for a few ns per read. Anything without the invariance bit falls back to
// steady_clock.
struct TscScale {
  bool usable = false;
  double ns_per_tick = 0.0;
  uint64_t base_ticks = 0;  // rdtsc at calibration end
  uint64_t base_ns = 0;     // steady_clock at the same instant
};

TscScale calibrate_tsc() {
  TscScale scale;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx) == 0 ||
      (edx & (1u << 8)) == 0) {
    return scale;  // No invariant TSC — rate may drift with power states.
  }
  // Measure both clocks over a ~2ms window. One-time cost at first use;
  // 2ms keeps the relative error from the two ~40ns endpoint reads and
  // scheduler jitter under ~0.01%.
  const uint64_t ns0 = steady_now_ns();
  const uint64_t ticks0 = __rdtsc();
  while (steady_now_ns() - ns0 < 2'000'000) {
  }
  const uint64_t ns1 = steady_now_ns();
  const uint64_t ticks1 = __rdtsc();
  if (ticks1 <= ticks0 || ns1 <= ns0) return scale;
  scale.ns_per_tick =
      static_cast<double>(ns1 - ns0) / static_cast<double>(ticks1 - ticks0);
  // Sanity: accept only plausible clock rates (100 MHz .. 100 GHz).
  if (scale.ns_per_tick < 0.01 || scale.ns_per_tick > 10.0) {
    return TscScale{};
  }
  scale.base_ticks = ticks1;
  scale.base_ns = ns1;
  scale.usable = true;
  return scale;
}
#endif  // __x86_64__

}  // namespace

uint64_t now_ns() {
#if defined(__x86_64__)
  // Magic static: the first caller pays the 2ms calibration once.
  static const TscScale scale = calibrate_tsc();
  if (scale.usable) {
    const uint64_t ticks = __rdtsc();
    // Signed delta: a reading from another core can trail base_ticks by a
    // few ticks right after calibration; clamp instead of wrapping.
    const int64_t delta =
        static_cast<int64_t>(ticks) - static_cast<int64_t>(scale.base_ticks);
    if (delta >= 0) {
      return scale.base_ns +
             static_cast<uint64_t>(static_cast<double>(delta) *
                                   scale.ns_per_tick);
    }
    return scale.base_ns;
  }
#endif
  return steady_now_ns();
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // The rank we want, 1-based; q=0 maps to the first observation.
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const uint64_t next = cumulative + buckets[b];
    if (static_cast<double>(next) >= rank) {
      // Linear interpolation inside the covering bucket.
      const double lower =
          b == 0 ? 0 : static_cast<double>(uint64_t{1} << (b - 1));
      const double upper = b == 0 ? 0 : static_cast<double>(bucket_upper(b));
      const double within =
          buckets[b] == 0
              ? 0
              : (rank - static_cast<double>(cumulative)) /
                    static_cast<double>(buckets[b]);
      return lower + (upper - lower) * within;
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

Histogram::Snapshot::Quantiles Histogram::Snapshot::quantiles() const {
  Quantiles q;
  q.p50 = quantile(0.50);
  // Interpolated quantiles are monotone in rank by construction, but clamp
  // anyway: the shards are read without a barrier, so a snapshot taken
  // mid-merge can hold a count/bucket combination no single instant ever
  // had, and the triple the dashboards print must still be ordered.
  q.p95 = std::max(q.p50, quantile(0.95));
  q.p99 = std::max(q.p95, quantile(0.99));
  return q;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, Histogram::Unit unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(unit);
  return *slot;
}

namespace {

/// Scale factor from raw observations to exposition units: kNanos
/// histograms render as seconds.
double unit_scale(Histogram::Unit unit) {
  return unit == Histogram::Unit::kNanos ? 1e-9 : 1.0;
}

/// "service.query_eval_seconds" -> "dna_service_query_eval_seconds".
std::string prometheus_name(const std::string& name) {
  std::string out = "dna_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace

std::string Registry::str() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << name << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out << name << " " << gauge->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->snapshot();
    const double scale = unit_scale(histogram->unit());
    out << name << " count " << snap.count;
    if (snap.count > 0) {
      const Histogram::Snapshot::Quantiles q = snap.quantiles();
      out << " mean " << format_double(snap.mean() * scale) << " p50 "
          << format_double(q.p50 * scale) << " p95 "
          << format_double(q.p95 * scale) << " p99 "
          << format_double(q.p99 * scale) << " max "
          << format_double(static_cast<double>(snap.max) * scale);
    }
    out << "\n";
  }
  return out.str();
}

void Registry::append_json(util::JsonWriter& json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  json.key("stats").begin_object();
  for (const auto& [name, counter] : counters_) {
    json.key(name).value(static_cast<unsigned long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    json.key(name).value(static_cast<long long>(gauge->value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->snapshot();
    const double scale = unit_scale(histogram->unit());
    json.key(name).begin_object();
    json.key("count").value(static_cast<unsigned long long>(snap.count));
    json.key("sum").value(static_cast<double>(snap.sum) * scale);
    json.key("max").value(static_cast<double>(snap.max) * scale);
    json.key("mean").value(snap.mean() * scale);
    const Histogram::Snapshot::Quantiles q = snap.quantiles();
    json.key("p50").value(q.p50 * scale);
    json.key("p95").value(q.p95 * scale);
    json.key("p99").value(q.p99 * scale);
    json.key("buckets").begin_array();
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (snap.buckets[b] == 0) continue;
      json.begin_array();
      json.value(static_cast<double>(Histogram::bucket_upper(b)) * scale);
      json.value(static_cast<unsigned long long>(snap.buckets[b]));
      json.end_array();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
}

std::string Registry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = prometheus_name(name);
    out << "# HELP " << prom << " " << name << "\n";
    out << "# TYPE " << prom << " counter\n";
    out << prom << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = prometheus_name(name);
    out << "# HELP " << prom << " " << name << "\n";
    out << "# TYPE " << prom << " gauge\n";
    out << prom << " " << gauge->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = prometheus_name(name);
    const Histogram::Snapshot snap = histogram->snapshot();
    const double scale = unit_scale(histogram->unit());
    out << "# HELP " << prom << " " << name << "\n";
    out << "# TYPE " << prom << " histogram\n";
    // Cumulative buckets up to the last non-empty one, then +Inf. An
    // empty histogram is just the +Inf bucket with zero observations.
    size_t highest = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (snap.buckets[b] != 0) highest = b;
    }
    uint64_t cumulative = 0;
    for (size_t b = 0; b <= highest && snap.count > 0; ++b) {
      cumulative += snap.buckets[b];
      out << prom << "_bucket{le=\""
          << format_double(static_cast<double>(Histogram::bucket_upper(b)) *
                           scale)
          << "\"} " << cumulative << "\n";
    }
    out << prom << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
    out << prom << "_sum " << format_double(static_cast<double>(snap.sum) *
                                            scale)
        << "\n";
    out << prom << "_count " << snap.count << "\n";
  }
  return out.str();
}

std::vector<std::pair<std::string, double>> Registry::sample() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters_.size() + gauges_.size() + 2 * histograms_.size());
  // The maps are std::map, so each family is already name-sorted; families
  // are emitted in a fixed order and the final sort merges them. Sorted
  // output lets the recorder diff consecutive samples with one linear walk.
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, static_cast<double>(gauge->value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->snapshot();
    const double scale = unit_scale(histogram->unit());
    out.emplace_back(name + ".count", static_cast<double>(snap.count));
    out.emplace_back(name + ".sum", static_cast<double>(snap.sum) * scale);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dna::obs
