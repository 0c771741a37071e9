// bench_dna --selftest: known-answer checks of the harness's own arithmetic
// and of the serving oracle.
#include <cmath>
#include <cstdio>

#include "service/service.h"
#include "topo/generators.h"
#include "workloads.h"

namespace dna::bench_dna {

namespace {

struct Checker {
  int failures = 0;

  void expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
  }
  void near(double got, double want, double tolerance, const std::string& what) {
    expect(std::fabs(got - want) <= tolerance,
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
  }
};

void check_order_statistics(Checker& check) {
  const std::vector<double> ten = {7, 3, 10, 1, 5, 9, 2, 8, 6, 4};
  check.near(percentile(ten, 50), 5, 0, "p50 of 1..10");
  check.near(percentile(ten, 90), 9, 0, "p90 of 1..10");
  check.near(percentile(ten, 99), 10, 0, "p99 of 1..10");
  check.near(percentile(ten, 10), 1, 0, "p10 of 1..10");
  check.near(percentile({3, 1, 2}, 50), 2, 0, "p50 of 3 values");
  check.near(percentile({}, 50), 0, 0, "percentile of nothing");
  // Window medians: odd and even window counts.
  check.near(median({5, 1, 3}), 3, 0, "median of 3 windows");
  check.near(median({4, 1, 3, 2}), 2.5, 0, "median of 4 windows");
  check.near(median({12.5, 11.0, 30.0, 12.0, 11.5}), 12.0, 0,
             "median of 5 windows with an outlier");
  check.near(lowest({12.5, 11.0, 30.0}), 11.0, 0, "lowest window");
  check.near(highest({12.5, 11.0, 30.0}), 30.0, 0, "highest window");
  check.near(lowest({}), 0, 0, "lowest of no windows");

  LatencyHist hist;
  std::vector<double> exact;
  for (uint64_t i = 1; i <= 1000; ++i) {
    hist.add(i * 100);  // 0.1 µs .. 100 µs
    exact.push_back(static_cast<double>(i * 100) * 1e-3);
  }
  // Buckets are at most 0.4% wide; the mean is exact.
  for (const double p : {50.0, 90.0, 99.0}) {
    const double want = percentile(exact, p);
    check.near(hist.percentile_us(p), want, want * 0.004,
               "bucketed p" + std::to_string(p));
  }
  check.near(hist.mean_us(), 50.05, 1e-9, "bucketed mean");
  hist.add(5'000'000);
  check.near(hist.percentile_us(100), 5000, 5000 * 0.004, "5 ms maximum");
  LatencyHist small;
  small.add(300);  // exact below 512 ns
  check.near(small.percentile_us(50), 0.3005, 1e-9, "sub-512 ns value");
}

Span span(uint64_t start, uint64_t end, int32_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void check_self_time(Checker& check) {
  // Overlapping children count once; a child running past its parent is
  // clipped to the parent.
  check.near(static_cast<double>(self_time_ns(
                 span(0, 100, -1), {{10, 30}, {20, 50}, {60, 70}, {90, 120}})),
             40, 0, "self time with overlapping children");
  check.near(static_cast<double>(self_time_ns(span(0, 100, -1), {})), 100, 0,
             "self time without children");
  // Nested: a grandchild is its parent's child, not the root's.
  const std::vector<Span> lane = {
      span(0, 100, -1),  // 0: root
      span(10, 60, 0),   // 1: child of the root
      span(20, 30, 1),   // 2: grandchild
      span(50, 80, 0),   // 3: child overlapping span 1
  };
  const std::vector<uint64_t> self = lane_self_times(lane);
  check.near(static_cast<double>(self[0]), 30, 0, "root self time");
  check.near(static_cast<double>(self[1]), 40, 0, "child self time");
  check.near(static_cast<double>(self[2]), 10, 0, "grandchild self time");
  check.near(static_cast<double>(self[3]), 30, 0, "overlapping child self time");
}

void check_oracle(Checker& check, bool corrupt_reference) {
  const topo::Snapshot base = topo::make_fattree(4);
  std::vector<std::string> queries = mix_queries(base);
  queries.erase(queries.begin() + 8, queries.end() - 1);  // a few + loopfree
  std::vector<std::string> reference = reference_answers(base, queries);
  std::vector<std::string> corrupted = reference;
  corrupted[0] += " (corrupted)";
  if (corrupt_reference) reference = corrupted;

  service::ServiceOptions options;
  options.num_threads = 1;
  service::DnaService service(base, {}, options);
  for (size_t i = 0; i < queries.size(); ++i) {
    const service::QueryResult answer = service.query(queries[i]);
    const std::string why = answer_mismatch(answer, reference[i]);
    check.expect(why.empty(), "served '" + queries[i] + "' " + why);
    if (i == 0) {
      check.expect(!answer_mismatch(answer, corrupted[0]).empty(),
                   "the oracle accepted a corrupted reference");
    }
  }
  service::QueryResult failed;
  failed.ok = false;
  failed.body = reference[0];
  check.expect(!answer_mismatch(failed, reference[0]).empty(),
               "the oracle accepted a failed query");
}

}  // namespace

bool run_selftest(bool corrupt_reference) {
  Checker check;
  check_order_statistics(check);
  check_self_time(check);
  check_oracle(check, corrupt_reference);
  std::printf("selftest: %s\n", check.failures == 0 ? "ok" : "FAILED");
  return check.failures == 0;
}

}  // namespace dna::bench_dna
