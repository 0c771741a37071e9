// ACL audit: quantify the blast radius of a firewall rule before deploying
// it. ACL edits never touch the control plane, so the differential engine
// re-verifies only the handful of equivalence classes the rule covers —
// this example prints that ratio for progressively broader rules.
#include <iostream>

#include "core/change.h"
#include "core/engine.h"
#include "core/report.h"
#include "topo/generators.h"
#include "util/timer.h"

using namespace dna;

int main() {
  topo::Snapshot base = topo::make_fattree(6);
  core::DnaEngine engine(base);
  std::cout << "fat-tree k=6: " << base.topology.num_nodes() << " switches, "
            << engine.verifier().num_ecs() << " equivalence classes\n\n";

  struct Candidate {
    const char* where;
    const char* what;
  };
  // k=6 fat-tree: edges sw0..sw17 (sw<i> hosts 172.31.<i>.0/24),
  // aggregation sw18..sw35, cores sw36..sw44.
  const Candidate candidates[] = {
      {"sw5", "172.31.5.0/24"},   // fence a host net at its own edge switch
      {"sw22", "172.31.4.0/26"},  // partial block at one pod-1 agg (ECMP
                                  // keeps delivery; blackholes appear)
      {"sw0", "172.31.0.0/16"},   // broad rule at a non-transit edge: no
                                  // traffic crosses sw0, so nothing breaks
      {"sw4", "172.31.0.0/16"},   // broad rule at a transit destination
  };

  for (const Candidate& candidate : candidates) {
    Ipv4Prefix dst = Ipv4Prefix::parse(candidate.what).value();
    core::ChangePlan plan = core::ChangePlan::acl_block(candidate.where, dst);
    std::cout << ">>> proposing: " << plan.description() << "\n";
    Stopwatch sw;
    // A preview rolls the engine back to base before the next candidate.
    core::NetworkDiff diff =
        engine.preview(plan.apply(base), core::Mode::kDifferential);
    std::cout << "    " << core::summarize(diff) << "\n"
              << "    control plane untouched: "
              << (diff.fib_delta.empty() ? "yes" : "no") << "\n"
              << "    re-verified " << diff.affected_ecs << " / "
              << diff.total_ecs << " ECs in " << sw.elapsed_ms() << " ms\n";
    size_t flows_lost = diff.reach_delta.lost.size();
    std::cout << "    flows lost: " << flows_lost << "\n\n";
  }
  return 0;
}
