#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "util/error.h"
#include "util/json.h"

namespace dna::bench_dna {

// ---- order statistics -------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double lowest(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

double highest(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::max_element(values.begin(), values.end());
}

LatencyHist::LatencyHist() : buckets_(kBuckets, 0) {}

size_t LatencyHist::bucket_of(uint64_t ns) {
  if (ns < kExact) return static_cast<size_t>(ns);
  // ns >> shift lands in [256, 512): 256 linear sub-buckets per octave.
  const size_t shift = static_cast<size_t>(std::bit_width(ns)) - 9;
  if (shift > kOctaves) return kBuckets - 1;
  return kExact + (shift - 1) * kPerOctave + static_cast<size_t>((ns >> shift) - 256);
}

std::pair<double, double> LatencyHist::bucket_range(size_t bucket) {
  if (bucket < kExact) return {static_cast<double>(bucket), 1.0};
  const size_t shift = (bucket - kExact) / kPerOctave + 1;
  const double width = std::ldexp(1.0, static_cast<int>(shift));
  const double sub = static_cast<double>(256 + (bucket - kExact) % kPerOctave);
  return {sub * width, width};
}

void LatencyHist::add(uint64_t ns) {
  ++count_;
  sum_ns_ += static_cast<long double>(ns);
  ++buckets_[bucket_of(ns)];
}

void LatencyHist::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ns_ = 0;
}

void LatencyHist::merge(const LatencyHist& other) {
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double LatencyHist::mean_us() const {
  return count_ == 0 ? 0 : static_cast<double>(sum_ns_ / count_) * 1e-3;
}

double LatencyHist::percentile_us(double p) const {
  if (count_ == 0) return 0;
  const double exact_rank = std::ceil(p / 100.0 * static_cast<double>(count_));
  const uint64_t rank = std::min<uint64_t>(
      count_, static_cast<uint64_t>(std::max(1.0, exact_rank)));
  uint64_t below = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t here = buckets_[b];
    if (below + here >= rank) {
      const auto [lower, width] = bucket_range(b);
      const double within =
          (static_cast<double>(rank - below) - 0.5) / static_cast<double>(here);
      return (lower + within * width) * 1e-3;
    }
    below += here;
  }
  return 0;  // unreachable: rank <= count_
}

// ---- the result of one run --------------------------------------------------

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"change.apply_us", "us"},
      {"core.preview_ms", "ms"},
      {"core.forward_ms", "ms"},
      {"core.rewind_ms", "ms"},
      {"core.invariants_ms", "ms"},
      {"core.affected_ec_share", "ratio"},
      {"core.fallback_share", "ratio"},
      {"cp.config_diff_ms", "ms"},
      {"cp.ospf_ms", "ms"},
      {"cp.fib_ms", "ms"},
      {"cp.fib_changes", "count"},
      {"dp.ec_index_ms", "ms"},
      {"dp.verify_ms", "ms"},
      {"dp.affected_ecs", "count"},
      {"scenario.clone_ms", "ms"},
      {"scenario.eval_ms", "ms"},
      {"scenario.busy_share", "ratio"},
      {"service.queue_us", "us"},
      {"service.fanout_us", "us"},
      {"service.eval_us", "us"},
      {"service.batch_mean", "count"},
      {"service.worker_busy_share", "ratio"},
      {"service.catchup_ms", "ms"},
      {"service.catchups_per_commit", "count"},
      {"service.commit_ms", "ms"},
      {"service.journal_append_us", "us"},
      {"writer.commit_ms_p50", "ms"},
      {"writer.commit_ms_p90", "ms"},
      {"gen.commit_late_ms", "ms"},
      {"router.request_us", "us"},
      {"router.shard_rtt_us", "us"},
      {"router.self_us", "us"},
      {"router.frontdoor_us", "us"},
      {"router.failovers", "count"},
      {"router.shard_errors", "count"},
      {"shard.queue_us", "us"},
      {"shard.eval_us", "us"},
      {"proc.cpu_util", "ratio"},
      {"proc.ctx_switches_per_op", "count"},
  };
  return metrics;
}

void Result::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Result::layer(const std::string& name, double value) {
  for (const LayerMetric& metric : layer_metrics()) {
    if (name == metric.name) {
      layers_.push_back({name, value, metric.unit});
      return;
    }
  }
  DNA_CHECK_MSG(false, "unlisted per-layer metric " + name);
}

void Result::info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Result::sample_heap() { heap_mb_ = std::max(heap_mb_, live_heap_mb()); }

void Result::wrong(const std::string& what) {
  std::lock_guard<std::mutex> lock(wrong_mutex_);
  if (++wrong_ <= 5) {
    std::fprintf(stderr, "ORACLE FAILED [%s]: %s\n", workload_.c_str(),
                 what.c_str());
  }
}

bool Result::correct() const {
  std::lock_guard<std::mutex> lock(wrong_mutex_);
  return wrong_ == 0;
}

void Result::print(bool traced) const {
  // Every listed per-layer metric appears; layers this workload does not
  // pass through read 0.
  std::vector<Entry> e2e = e2e_;
  e2e.push_back({"heap_mb", heap_mb_, "MiB"});
  std::vector<Entry> layers;
  for (const LayerMetric& metric : layer_metrics()) {
    double value = 0;
    for (const Entry& entry : layers_) {
      if (entry.name == metric.name) value = entry.value;
    }
    layers.push_back({metric.name, value, metric.unit});
  }
  auto print_lines = [this](const std::vector<Entry>& entries) {
    for (const Entry& entry : entries) {
      std::printf("%s %s %.6g %s\n", workload_.c_str(), entry.name.c_str(),
                  entry.value, entry.unit.c_str());
    }
  };
  print_lines(e2e);
  if (traced) print_lines(layers);
  print_lines(info_);
  const double error_rate =
      attempted_ == 0 ? 0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("%s error_rate %.6g failed/attempted\n", workload_.c_str(),
              error_rate);

  util::JsonWriter json;
  json.begin_object();
  json.key("correct").value(correct());
  json.key("attempted").value(static_cast<unsigned long long>(attempted_));
  json.key("failed").value(static_cast<unsigned long long>(failed_));
  json.key("metrics").begin_object();
  for (const Entry& entry : traced ? layers : e2e) {
    json.key(entry.name).begin_object();
    json.key("value").value(entry.value);
    json.key("unit").value(entry.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

// ---- process accounting -----------------------------------------------------

ProcSample proc_sample() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcSample sample;
  sample.wall_ns = now_ns();
  sample.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                 static_cast<double>(usage.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                            usage.ru_stime.tv_usec);
  sample.ctx_switches =
      static_cast<uint64_t>(usage.ru_nvcsw) + static_cast<uint64_t>(usage.ru_nivcsw);
  return sample;
}

void record_proc(Result& result, const ProcSample& begin, const ProcSample& end,
                 size_t threads, uint64_t ops) {
  const double wall_s = static_cast<double>(end.wall_ns - begin.wall_ns) * 1e-9;
  if (wall_s > 0 && threads > 0) {
    result.layer("proc.cpu_util",
                 (end.cpu_s - begin.cpu_s) / (wall_s * static_cast<double>(threads)));
  }
  if (ops > 0) {
    result.layer("proc.ctx_switches_per_op",
                 static_cast<double>(end.ctx_switches - begin.ctx_switches) /
                     static_cast<double>(ops));
  }
}

double live_heap_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// ---- tracing ----------------------------------------------------------------

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kSetup: return "bench.setup";
    case SpanName::kWhatIf: return "bench.whatif";
    case SpanName::kApply: return "change.apply";
    case SpanName::kPreview: return "core.preview";
    case SpanName::kSweep: return "scenario.run";
    case SpanName::kQuery: return "service.query";
    case SpanName::kCommit: return "service.commit_text";
    case SpanName::kRequest: return "client.request";
    case SpanName::kOracle: return "bench.oracle";
  }
  return "?";
}

int32_t Lane::open(SpanName name, int32_t parent, uint64_t request) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

uint64_t self_time_ns(const Span& span,
                      std::vector<std::pair<uint64_t, uint64_t>> children) {
  const uint64_t duration =
      span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t reach = span.start_ns;  // end of the union so far
  for (auto [start, end] : children) {
    start = std::max(start, reach);
    end = std::min(end, span.end_ns);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return duration - std::min(covered, duration);
}

std::vector<uint64_t> lane_self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = self_time_ns(spans[i], std::move(children[i]));
  }
  return self;
}

Tracer::Tracer(size_t lanes, size_t capacity_per_lane) {
  lanes_.reserve(lanes);
  for (size_t i = 0; i < lanes; ++i) lanes_.emplace_back(capacity_per_lane);
}

void Tracer::finish(const std::string& dir, const std::string& workload,
                    Result& result) const {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + workload + ".spans.jsonl";
  std::ofstream out(path);
  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  uint64_t dropped = 0;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const std::vector<Span>& spans = lanes_[l].spans();
    const std::vector<uint64_t> self = lane_self_times(spans);
    dropped += lanes_[l].dropped();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      util::JsonWriter json;
      json.begin_object();
      json.key("lane").value(static_cast<unsigned long long>(l));
      json.key("id").value(static_cast<unsigned long long>(i));
      json.key("parent").value(static_cast<long long>(span.parent));
      json.key("request").value(static_cast<unsigned long long>(span.request));
      json.key("name").value(span_name(span.name));
      json.key("start_ns").value(static_cast<unsigned long long>(span.start_ns));
      json.key("end_ns").value(static_cast<unsigned long long>(span.end_ns));
      json.key("self_ns").value(static_cast<unsigned long long>(self[i]));
      json.end_object();
      out << json.str() << '\n';
      Totals& totals = by_name[span_name(span.name)];
      ++totals.count;
      totals.total_ns += span.end_ns - span.start_ns;
      totals.self_ns += self[i];
    }
  }
  if (!out) result.wrong("could not write " + path);
  for (const auto& [name, totals] : by_name) {
    result.info("span." + name + ".count", static_cast<double>(totals.count),
                "count");
    result.info("span." + name + ".total_ms",
                static_cast<double>(totals.total_ns) * 1e-6, "ms");
    result.info("span." + name + ".self_ms",
                static_cast<double>(totals.self_ns) * 1e-6, "ms");
  }
  result.info("span.dropped", static_cast<double>(dropped), "count");
}

}  // namespace dna::bench_dna
