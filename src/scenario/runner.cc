#include "scenario/runner.h"

#include <algorithm>
#include <exception>
#include <memory>

#include "obs/metrics.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace dna::scenario {

namespace {

double seconds_since(uint64_t start_ns) {
  return static_cast<double>(obs::now_ns() - start_ns) * 1e-9;
}

ScenarioResult summarize(core::NetworkDiff diff, const ScenarioSpec& spec,
                         const RunnerOptions& options, size_t index) {
  ScenarioResult result = summarize_diff(diff);
  result.index = index;
  result.name = spec.name;
  result.seconds = diff.seconds_total;
  if (options.keep_diffs) result.diff = std::move(diff);
  return result;
}

}  // namespace

ScenarioRunner::ScenarioRunner(topo::Snapshot base,
                               std::vector<core::Invariant> invariants)
    : base_(std::move(base)), invariants_(std::move(invariants)) {
  base_.validate();
}

ScenarioReport ScenarioRunner::run(const std::vector<ScenarioSpec>& specs,
                                   const RunnerOptions& options) const {
  Stopwatch stopwatch;
  util::ThreadPool pool(options.num_threads);

  ScenarioReport report;
  report.threads = pool.num_workers();
  report.results.resize(specs.size());

  // One engine per worker, built lazily on the worker's first scenario so
  // the (expensive) base verifications themselves run in parallel. The
  // per-worker timing slots are written lock-free — each worker owns its
  // own index.
  std::vector<std::unique_ptr<core::DnaEngine>> engines(pool.num_workers());
  std::vector<WorkerTiming> timings(pool.num_workers());
  for (size_t w = 0; w < timings.size(); ++w) timings[w].worker = w;

  // Work items are multi-scenario *chunks*, not single scenarios. With one
  // pool task per scenario, a modest sweep on a wide pool touches every
  // worker for a scenario or two each — and every touched worker pays a
  // full engine clone (a base verification), which then dominates the
  // batch and flattens scaling (the ~1.0x rows in the scenario baseline).
  // Sizing chunks so each one carries enough evaluations to amortize its
  // worker's clone caps how many clones a sweep can possibly pay, while
  // two chunks per worker still leave slack for stealing to balance the
  // tail — the same chunk math the service's batch fan-out uses.
  constexpr size_t kMinChunkScenarios = 4;
  const size_t max_chunks =
      std::max<size_t>(1, std::min(specs.size(), pool.num_workers() * 2));
  const size_t chunk_len = std::max(
      kMinChunkScenarios, (specs.size() + max_chunks - 1) / max_chunks);
  const size_t num_chunks = (specs.size() + chunk_len - 1) / chunk_len;

  pool.parallel_for(num_chunks, [&](size_t worker, size_t chunk) {
    std::unique_ptr<core::DnaEngine>& engine = engines[worker];
    WorkerTiming& timing = timings[worker];
    const size_t begin = chunk * chunk_len;
    const size_t end = std::min(specs.size(), begin + chunk_len);
    for (size_t index = begin; index < end; ++index) {
      // A failed preview may leave the engine mid-advance: drop it so the
      // worker rebuilds a clean clone for its next scenario. A plan that
      // throws on apply never reached it.
      bool previewing = false;
      try {
        const uint64_t apply_start = obs::now_ns();
        topo::Snapshot target = specs[index].plan.apply(base_);
        timing.eval_seconds += seconds_since(apply_start);
        if (!engine) {
          const uint64_t clone_start = obs::now_ns();
          engine = std::make_unique<core::DnaEngine>(base_);
          for (const core::Invariant& invariant : invariants_) {
            engine->add_invariant(invariant);
          }
          timing.clone_seconds += seconds_since(clone_start);
          ++timing.clones;
        }
        // preview() rolls the engine back to base, so the next scenario it
        // takes starts from the state a fresh engine would hold.
        const uint64_t preview_start = obs::now_ns();
        previewing = true;
        core::NetworkDiff diff =
            engine->preview(std::move(target), options.mode);
        previewing = false;
        report.results[index] =
            summarize(std::move(diff), specs[index], options, index);
        timing.eval_seconds += seconds_since(preview_start);
        ++timing.scenarios;
      } catch (const std::exception& e) {
        if (previewing) engine.reset();
        ScenarioResult& failed = report.results[index];
        failed = ScenarioResult{};
        failed.index = index;
        failed.name = specs[index].name;
        failed.ok = false;
        failed.error = e.what();
      } catch (...) {
        // A non-std exception from a user-supplied plan functor must also
        // fail only its own scenario — letting it escape would reach the
        // pool and abort the whole batch from wait_idle().
        if (previewing) engine.reset();
        ScenarioResult& failed = report.results[index];
        failed = ScenarioResult{};
        failed.index = index;
        failed.name = specs[index].name;
        failed.ok = false;
        failed.error = "scenario evaluation failed";
      }
      report.results[index].worker = worker;
    }
  });

  rank(report);
  report.seconds_total = stopwatch.elapsed_seconds();
  report.worker_timings = std::move(timings);
  return report;
}

}  // namespace dna::scenario
