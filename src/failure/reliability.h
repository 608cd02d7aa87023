// Monte Carlo reliability analysis: MTTDL and P(data loss by t) for concrete
// placements (paper §III's reliability-preserving claim, quantified).
//
// Each trial runs an independent event-driven simulation of node and rack
// lifetimes (exponential fail/repair, the Markov model of the Facebook
// warehouse studies) over a fixed placement and records the first instant a
// stripe becomes unrecoverable: a replicated block with every copy down, or
// an encoded stripe with more than m = n - k blocks down.  Repairs here are
// component recoveries (the failed machine coming back); block-level repair
// bandwidth can be folded in by shrinking node_mttr to the rebuild time.
//
// Because trials only inspect stripes touching the component that just
// failed, 10^3 trials over 10^2 stripes run in milliseconds — fast enough
// for RR-vs-EAR comparisons inside a bench.
#pragma once

#include <cstdint>
#include <vector>

#include "cfs/minicfs.h"
#include "common/units.h"
#include "placement/policy.h"
#include "topology/topology.h"

namespace ear::failure {

// One stripe's exposure: per block, the nodes holding a copy.  A block is
// dead when every holder is down; the stripe is lost when more than
// max_lost_blocks blocks are dead simultaneously (0 for replicated data,
// n - k for an encoded stripe).
struct StripePlacement {
  std::vector<std::vector<NodeId>> blocks;
  int max_lost_blocks = 0;
};

struct ReliabilityConfig {
  Seconds node_mttf = 1000;
  Seconds node_mttr = 10;
  Seconds rack_mttf = 0;  // per rack; 0 disables rack failures
  Seconds rack_mttr = 30;
  Seconds horizon = 10000;  // observation window per trial
  int trials = 1000;
  uint64_t seed = 1;
};

struct ReliabilityResult {
  int trials = 0;
  int losses = 0;          // trials that lost data within the horizon
  double p_loss = 0;       // losses / trials
  double p_no_loss = 1;
  // Total-time-on-test estimator: sum(min(loss time, horizon)) / losses.
  // Infinity when no trial lost data.
  double mttdl = 0;
  double mean_time_to_loss = 0;  // over lossy trials only; 0 if none
};

ReliabilityResult estimate_reliability(
    const Topology& topo, const std::vector<StripePlacement>& stripes,
    const ReliabilityConfig& config);

// ---- placement extraction -------------------------------------------------

// Pre-encoding exposure of sealed stripes (as handed out by
// BlockPlacement::sealed): each block guarded by its r replicas, stripe lost
// if any block loses all of them.
std::vector<StripePlacement> replicated_placements(
    const std::vector<StripeInfo>& stripes);

// Post-encoding exposure: plan_encoding() per sealed stripe (single copies
// of k data + m parity blocks, m losses tolerable).  Planning advances the
// policy's RNG.
std::vector<StripePlacement> encoded_placements(
    PlacementPolicy& policy, const std::vector<StripeInfo>& stripes);

// Exposure of a live cluster as-is (mixed encoded/unencoded), from a
// NameNode snapshot.
std::vector<StripePlacement> placements_from_snapshot(
    const cfs::NamespaceSnapshot& snap, int k);

}  // namespace ear::failure
