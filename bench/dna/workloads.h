// The five bench_dna workloads and the pieces of them the selftest reuses.
//
// Every workload runs on the same fixture: a fattree:6 network (45 switches,
// 108 links, 175 ECs) with loop-freedom plus every host-reachability
// invariant, the set `dna_cli --host-invariants` registers.
#pragma once

#include <string>
#include <vector>

#include "core/invariants.h"
#include "harness.h"
#include "service/query.h"
#include "topo/snapshot.h"

namespace dna::bench_dna {

topo::Snapshot fixture_network();
std::vector<core::Invariant> fixture_invariants(const topo::Snapshot& base);

/// `tracer` is null for the untraced run.
void run_whatif_wide(const Options& options, Result& result, Tracer* tracer);
void run_whatif_narrow(const Options& options, Result& result, Tracer* tracer);
void run_serve_read(const Options& options, Result& result, Tracer* tracer);
void run_serve_mixed(const Options& options, Result& result, Tracer* tracer);
void run_serve_routed(const Options& options, Result& result, Tracer* tracer);

// ---- the serving oracle -----------------------------------------------------

/// The distinct queries of the serving mix: `reach`, `check reachable` and
/// `paths` for every ordered pair of host-network owners, plus
/// `check loopfree`.
std::vector<std::string> mix_queries(const topo::Snapshot& base);

/// Every query's answer body on a fresh engine verified at `state` — the
/// reference a served answer must equal.
std::vector<std::string> reference_answers(const topo::Snapshot& state,
                                           const std::vector<std::string>& queries);

/// Empty when `served` is a successful answer equal to `expected`;
/// otherwise why it is not.
std::string answer_mismatch(const service::QueryResult& served,
                            const std::string& expected);

/// Checks the harness itself (percentiles, window medians, span self time,
/// the answer oracle) in well under a second. With `corrupt_reference`, the
/// oracle's reference is corrupted before the check that expects it to
/// pass, so the selftest must fail. Returns true when every check passed.
bool run_selftest(bool corrupt_reference);

}  // namespace dna::bench_dna
