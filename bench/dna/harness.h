// Shared pieces of bench_dna: run options, the result a workload fills in,
// order statistics, fixed-footprint latency recording, process accounting
// and the span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dna::bench_dna {

/// Seconds one run measures when --seconds is absent. BENCHMARK.json's
/// run_seconds records the same number.
inline constexpr double kRunSeconds = 15;
/// A run is split into windows (rounds, for the what-if workloads), and
/// each timing metric is taken from the run's best window. The machine this
/// benchmark was written on slows down by 35-60% for periods of 0.25 s to
/// tens of seconds; slow periods only ever add time, so the best window is
/// the one they disturbed least.
inline constexpr int kWindows = 10;
/// Set-up builds per run, spread out in time; setup_s is their median.
inline constexpr int kSetupBuilds = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kRunSeconds;
  std::string trace_dir;  // non-empty: traced run, spans written here
  std::string tmp_dir = ".bench_build/tmp";  // journals of serve-mixed
  size_t threads = 1;  // nproc: clients, sweep threads, service workers
};

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- order statistics -------------------------------------------------------

/// Nearest-rank percentile, p in (0, 100]: the smallest value with at least
/// p% of the values at or below it. 0 for an empty input.
double percentile(std::vector<double> values, double p);
/// The middle value, or the mean of the two middle values; 0 when empty.
double median(std::vector<double> values);
/// The best window of a run: the lowest latency or the highest rate; 0
/// when empty.
double lowest(const std::vector<double>& values);
double highest(const std::vector<double>& values);

/// Per-call latencies in a small footprint fixed at construction, so a
/// faster system does not grow the process (and heap_mb) by recording more
/// calls. Log-linear buckets: exact below 512 ns, then 256 buckets per
/// octave (at most 0.4% wide) up to 2^40 ns. Not thread-safe; give each
/// thread its own and merge.
class LatencyHist {
 public:
  LatencyHist();

  void add(uint64_t ns);
  void merge(const LatencyHist& other);
  void clear();
  uint64_t count() const { return count_; }
  double mean_us() const;
  /// Nearest-rank percentile in microseconds, interpolated linearly inside
  /// the bucket that holds the rank.
  double percentile_us(double p) const;

 private:
  static constexpr size_t kExact = 512;
  static constexpr size_t kPerOctave = 256;
  static constexpr size_t kOctaves = 31;  // 2^9 .. 2^40 ns
  static constexpr size_t kBuckets = kExact + kOctaves * kPerOctave;
  static size_t bucket_of(uint64_t ns);
  /// [lower, lower + width) of a bucket, in ns.
  static std::pair<double, double> bucket_range(size_t bucket);

  std::vector<uint32_t> buckets_;
  uint64_t count_ = 0;
  long double sum_ns_ = 0;
};

// ---- the result of one run --------------------------------------------------

/// Per-layer metrics every run reports in its traced JSON, with their units.
/// A workload that does not pass through a layer reports 0 for it.
/// BENCHMARK.json's per_layer list names exactly these (run.py checks).
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

class Result {
 public:
  explicit Result(std::string workload) : workload_(std::move(workload)) {}

  /// An end-to-end metric: printed always, in the JSON of untraced runs.
  void e2e(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric (must be listed in layer_metrics()).
  void layer(const std::string& name, double value);
  /// A printed-only line: sample counts, span self times, context.
  void info(const std::string& name, double value, const std::string& unit);

  /// Samples live_heap_mb(); heap_mb is the largest sample.
  void sample_heap();

  void attempted(uint64_t n) { attempted_ += n; }
  void failed(uint64_t n) { failed_ += n; }
  /// An oracle mismatch: the run is wrong. Thread-safe; the first few
  /// reasons are printed to stderr.
  void wrong(const std::string& what);
  bool correct() const;

  /// Prints `workload metric value unit` lines, then the one-line JSON
  /// result: end-to-end metrics (with heap_mb) when untraced, per-layer
  /// when traced.
  void print(bool traced) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Entry> e2e_;
  std::vector<Entry> layers_;
  std::vector<Entry> info_;
  double heap_mb_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  mutable std::mutex wrong_mutex_;
  uint64_t wrong_ = 0;
};

// ---- process accounting -----------------------------------------------------

struct ProcSample {
  uint64_t wall_ns = 0;
  double cpu_s = 0;               // user + system, all threads
  uint64_t ctx_switches = 0;      // voluntary + involuntary
};
ProcSample proc_sample();
/// Records proc.cpu_util (CPU time over wall time x threads) and
/// proc.ctx_switches_per_op between two samples.
void record_proc(Result& result, const ProcSample& begin, const ProcSample& end,
                 size_t threads, uint64_t ops);

/// The program's live heap in MiB: bytes allocated and not yet freed, as
/// glibc's mallinfo2 counts them. Unlike RSS this does not depend on how
/// freed memory happens to sit in the allocator's per-thread arenas. It
/// locks every arena, so call it only while the system is idle.
double live_heap_mb();

// ---- tracing ----------------------------------------------------------------

/// The calls the bench makes into a layer; one span each.
enum class SpanName : uint8_t {
  kSetup,      // one build of the workload's system
  kWhatIf,     // one interactive what-if (parent of apply + preview)
  kApply,      // ChangePlan::apply
  kPreview,    // DnaEngine::preview
  kSweep,      // ScenarioRunner::run
  kQuery,      // DnaService::query
  kCommit,     // DnaService::commit_text
  kRequest,    // ServiceClient::request against the router front door
  kOracle,     // untimed correctness checks
};
const char* span_name(SpanName name);

struct Span {
  SpanName name = SpanName::kSetup;
  int32_t parent = -1;  // index in the same lane; -1 for a root
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// One thread's preallocated span buffer. When full, further spans are
/// counted as dropped and not recorded.
class Lane {
 public:
  explicit Lane(size_t capacity) { spans_.reserve(capacity); }
  int32_t open(SpanName name, int32_t parent, uint64_t request);
  void close(int32_t index) { spans_[static_cast<size_t>(index)].end_ns = now_ns(); }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Opens a span on construction and closes it on destruction; a null lane
/// (the untraced run) records nothing.
class SpanScope {
 public:
  SpanScope(Lane* lane, SpanName name, int32_t parent = -1,
            uint64_t request = 0)
      : lane_(lane), index_(lane ? lane->open(name, parent, request) : -1) {}
  ~SpanScope() {
    if (index_ >= 0) lane_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int32_t id() const { return index_; }

 private:
  Lane* lane_;
  int32_t index_;
};

/// A span's self time: its duration minus the union of its direct children's
/// intervals, each clipped to the span.
uint64_t self_time_ns(const Span& span,
                      std::vector<std::pair<uint64_t, uint64_t>> children);

/// Self time of every span in a lane, by index.
std::vector<uint64_t> lane_self_times(const std::vector<Span>& spans);

/// Span buffers for a traced run: one lane per bench thread, preallocated.
class Tracer {
 public:
  Tracer(size_t lanes, size_t capacity_per_lane);
  Lane* lane(size_t index) { return &lanes_.at(index); }
  size_t num_lanes() const { return lanes_.size(); }
  /// Writes DIR/<workload>.spans.jsonl and records each span name's count,
  /// total and self time as info lines.
  void finish(const std::string& dir, const std::string& workload,
              Result& result) const;

 private:
  std::vector<Lane> lanes_;
};

}  // namespace dna::bench_dna
