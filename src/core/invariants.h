// Operator intent: named invariants evaluated against a verified data plane.
//
// Invariants reference nodes by name so they survive snapshot replacement.
// The DNA engine keeps the registered set's verdicts, re-evaluates those a
// change can affect, and reports the flips — "this change broke X" / "this
// change fixed Y".
#pragma once

#include <string>
#include <vector>

#include "dataplane/properties.h"
#include "topo/snapshot.h"

namespace dna::core {

struct Invariant {
  enum class Kind {
    kReachable,      // src reaches dst for all atoms of `traffic`
    kIsolated,       // src never reaches dst within `traffic`
    kLoopFree,       // no loops anywhere within `traffic`
    kBlackholeFree,  // src hits no blackhole within `traffic`
    kWaypoint,       // src->dst traffic always crosses `waypoint`
  };

  Kind kind = Kind::kReachable;
  std::string src;
  std::string dst;
  std::string waypoint;
  Ipv4Prefix traffic;

  std::string describe() const;
};

/// Evaluates one invariant; unknown node names make it fail (holds=false).
bool eval_invariant(const Invariant& invariant,
                    const topo::Snapshot& snapshot,
                    const dp::Verifier& verifier);

}  // namespace dna::core
