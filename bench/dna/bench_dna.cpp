// bench_dna: one benchmark for what-if cost and query serving on a fattree:6
// network, five workloads, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. README.md defines every metric.
//
//   bench_dna --workload=NAME [--seed=N] [--seconds=S] [--trace=DIR]
//             [--tmp=DIR]
//   bench_dna --selftest [--corrupt-reference]
//
// A run prints `workload metric value unit` lines and, last, one JSON
// object: {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics, or the per-layer ones when traced. It exits 1 when an oracle
// fails and 2 on bad usage or a build unfit for timing. run.py builds this
// binary and runs every workload.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "util/json.h"
#include "workloads.h"

namespace {

using namespace dna::bench_dna;

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

/// Spans kept per bench thread in a traced run; later spans are counted as
/// dropped.
constexpr size_t kSpansPerLane = 16384;

struct Workload {
  const char* name;
  void (*run)(const Options&, Result&, Tracer*);
};

constexpr Workload kWorkloads[] = {
    {"whatif-wide", run_whatif_wide},   {"whatif-narrow", run_whatif_narrow},
    {"serve-read", run_serve_read},     {"serve-mixed", run_serve_mixed},
    {"serve-routed", run_serve_routed},
};

size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The run's context, one line before the results.
void print_context(const Options& options) {
  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  dna::util::JsonWriter json;
  json.begin_object();
  json.key("workload").value(options.workload);
  json.key("seed").value(static_cast<unsigned long long>(options.seed));
  json.key("seconds").value(options.seconds);
  json.key("traced").value(!options.trace_dir.empty());
  json.key("nproc").value(static_cast<unsigned long long>(options.threads));
  json.key("loadavg_1m").value(load[0]);
  json.key("compiler").value(compiler());
  json.end_object();
  std::printf("context %s\n", json.str().c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_dna: %s\n"
               "usage: bench_dna --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace=DIR] [--tmp=DIR]\n"
               "       bench_dna --selftest [--corrupt-reference]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.threads = nproc();
  bool selftest = false;
  bool corrupt_reference = false;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      std::string value;
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg.resize(eq);
      } else if (arg != "--selftest" && arg != "--corrupt-reference") {
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        value = argv[++i];
      }
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds > 0)) return usage("--seconds must be positive");
      } else if (arg == "--trace") {
        options.trace_dir = value;
      } else if (arg == "--tmp") {
        options.tmp_dir = value;
      } else if (arg == "--selftest") {
        selftest = true;
      } else if (arg == "--corrupt-reference") {
        corrupt_reference = true;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }

  if (selftest) {
    try {
      return run_selftest(corrupt_reference) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "selftest FAILED: %s\n", e.what());
      return 1;
    }
  }
  if (!kTimingBuild) {
    std::fprintf(stderr,
                 "bench_dna: refusing to time an unoptimised or sanitized "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (options.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  print_context(options);
  const bool traced = !options.trace_dir.empty();
  std::unique_ptr<Tracer> tracer;
  if (traced) {
    // Lane 0: the measuring thread; 1..nproc: clients; nproc + 1: writer.
    tracer = std::make_unique<Tracer>(options.threads + 2, kSpansPerLane);
  }
  Result result(options.workload);
  try {
    workload->run(options, result, tracer.get());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_dna: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  if (tracer) tracer->finish(options.trace_dir, options.workload, result);
  result.print(traced);
  return result.correct() ? 0 : 1;
}
