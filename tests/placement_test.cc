#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "placement/ear.h"
#include "placement/monitor.h"
#include "placement/policy.h"
#include "placement/random_replication.h"
#include "placement/replica_layout.h"

namespace ear {
namespace {

PlacementConfig default_config(int n = 14, int k = 10, int r = 3, int c = 1) {
  PlacementConfig cfg;
  cfg.code = CodeParams{n, k};
  cfg.replication = r;
  cfg.c = c;
  return cfg;
}

// Places blocks 0..count-1 from remote clients and returns the stripes they
// sealed, in seal order.
std::vector<StripeInfo> place(PlacementPolicy& policy, BlockId count) {
  std::vector<StripeInfo> sealed;
  for (BlockId b = 0; b < count; ++b) {
    BlockPlacement p = policy.place_block(b, std::nullopt);
    if (p.sealed) sealed.push_back(std::move(*p.sealed));
  }
  return sealed;
}

// ---------------------------------------------------------------- layouts

TEST(ReplicaLayout, HdfsDefaultShape) {
  const Topology topo(8, 4);
  const auto cfg = default_config();
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId first = random_node(topo, rng);
    const auto replicas = draw_secondary_replicas(topo, cfg, first, rng);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], first);
    // All distinct nodes.
    std::set<NodeId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 3u);
    // Replicas 2 and 3 share a rack that differs from the first replica's.
    EXPECT_EQ(topo.rack_of(replicas[1]), topo.rack_of(replicas[2]));
    EXPECT_NE(topo.rack_of(replicas[0]), topo.rack_of(replicas[1]));
  }
}

TEST(ReplicaLayout, OneReplicaPerRackShape) {
  const Topology topo(10, 3);
  auto cfg = default_config();
  cfg.replication = 5;
  cfg.one_replica_per_rack = true;
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    const auto replicas =
        draw_secondary_replicas(topo, cfg, random_node(topo, rng), rng);
    ASSERT_EQ(replicas.size(), 5u);
    std::set<RackId> racks;
    for (const NodeId n : replicas) racks.insert(topo.rack_of(n));
    EXPECT_EQ(racks.size(), 5u);
  }
}

TEST(ReplicaLayout, TwoWayReplicationForSingleNodeRacks) {
  // Paper testbed mode: r = 2, racks of one node.
  const Topology topo(12, 1);
  auto cfg = default_config(10, 8, /*r=*/2);
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const auto replicas =
        draw_secondary_replicas(topo, cfg, random_node(topo, rng), rng);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_NE(topo.rack_of(replicas[0]), topo.rack_of(replicas[1]));
  }
}

// ---------------------------------------------------------------- RR

TEST(RandomReplication, StripesSealAfterKBlocks) {
  const Topology topo(20, 20);
  RandomReplication rr(topo, default_config(14, 10), 44);
  const auto sealed = place(rr, 25);
  ASSERT_EQ(sealed.size(), 2u);  // 25 blocks -> 2 sealed stripes of 10
  for (const StripeInfo& s : sealed) {
    EXPECT_EQ(s.blocks.size(), 10u);
    EXPECT_EQ(s.core_rack, kInvalidRack);
  }
}

TEST(RandomReplication, WriterHoldsFirstReplica) {
  const Topology topo(6, 5);
  RandomReplication rr(topo, default_config(8, 6), 45);
  const auto p = rr.place_block(0, NodeId{17});
  EXPECT_EQ(p.replicas[0], 17);
}

TEST(RandomReplication, EncodingPlanKeepsOneReplicaPerBlock) {
  const Topology topo(20, 20);
  const auto cfg = default_config(14, 10);
  RandomReplication rr(topo, cfg, 46);
  const auto sealed = place(rr, 10);
  ASSERT_EQ(sealed.size(), 1u);

  const EncodePlan plan = rr.plan_encoding(sealed[0]);
  ASSERT_EQ(plan.kept.size(), 10u);
  ASSERT_EQ(plan.parity.size(), 4u);
  const StripeInfo& s = sealed[0];
  for (int i = 0; i < 10; ++i) {
    const auto& reps = s.replicas[static_cast<size_t>(i)];
    EXPECT_TRUE(std::find(reps.begin(), reps.end(),
                          plan.kept[static_cast<size_t>(i)]) != reps.end())
        << "kept replica must be one of the block's replicas";
  }
  // deletions + kept must cover every replica exactly once.
  EXPECT_EQ(plan.deletions.size(), 10u * 2u);
  // All n blocks on distinct nodes (node-level fault tolerance).
  std::set<NodeId> nodes(plan.kept.begin(), plan.kept.end());
  nodes.insert(plan.parity.begin(), plan.parity.end());
  EXPECT_EQ(nodes.size(), 14u);
}

TEST(RandomReplication, CrossRackDownloadsMatchExpectation) {
  // §II-B: expected cross-rack downloads ~ k(1 - 2/R).  With R = 20, k = 10
  // that is 9.0.
  const Topology topo(20, 20);
  RandomReplication rr(topo, default_config(14, 10), 47);
  const auto sealed = place(rr, 10 * 400);
  double total = 0;
  int stripes = 0;
  for (const StripeInfo& s : sealed) {
    total += rr.plan_encoding(s).cross_rack_downloads;
    ++stripes;
  }
  const double avg = total / stripes;
  EXPECT_NEAR(avg, 9.0, 0.35);
}

// ---------------------------------------------------------------- EAR

TEST(EncodingAwareReplication, AllBlocksHaveFirstReplicaInCoreRack) {
  const Topology topo(20, 20);
  EncodingAwareReplication ear(topo, default_config(14, 10), 48);
  const auto sealed = place(ear, 200);
  for (const StripeInfo& s : sealed) {
    ASSERT_NE(s.core_rack, kInvalidRack);
    for (const auto& replicas : s.replicas) {
      EXPECT_EQ(topo.rack_of(replicas[0]), s.core_rack);
    }
  }
}

TEST(EncodingAwareReplication, ZeroCrossRackDownloads) {
  const Topology topo(20, 20);
  EncodingAwareReplication ear(topo, default_config(14, 10), 49);
  const auto sealed = place(ear, 300);
  ASSERT_FALSE(sealed.empty());
  for (const StripeInfo& s : sealed) {
    const EncodePlan plan = ear.plan_encoding(s);
    EXPECT_EQ(plan.cross_rack_downloads, 0);
    EXPECT_EQ(topo.rack_of(plan.encoder), s.core_rack);
  }
}

TEST(EncodingAwareReplication, PostEncodeLayoutSatisfiesRackFaultTolerance) {
  const Topology topo(20, 20);
  const auto cfg = default_config(14, 10, 3, /*c=*/1);
  EncodingAwareReplication ear(topo, cfg, 50);
  PlacementMonitor monitor(topo, cfg.code);
  const auto sealed = place(ear, 400);
  ASSERT_FALSE(sealed.empty());
  for (const StripeInfo& s : sealed) {
    const EncodePlan plan = ear.plan_encoding(s);
    StripeLayout layout;
    layout.nodes = plan.kept;
    layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                        plan.parity.end());
    const auto report = monitor.analyze(layout);
    EXPECT_EQ(report.max_blocks_per_node, 1);
    EXPECT_LE(report.max_blocks_per_rack, cfg.c);
    // c = 1 => tolerate n - k = 4 rack failures without relocation.
    EXPECT_GE(report.tolerable_rack_failures, 4);
    EXPECT_TRUE(monitor.plan_relocations(layout, cfg.c).empty());
  }
}

TEST(EncodingAwareReplication, KeptReplicaIsAnActualReplica) {
  const Topology topo(16, 8);
  EncodingAwareReplication ear(topo, default_config(12, 8), 51);
  const auto sealed = place(ear, 200);
  for (const StripeInfo& s : sealed) {
    const EncodePlan plan = ear.plan_encoding(s);
    for (size_t i = 0; i < plan.kept.size(); ++i) {
      const auto& reps = s.replicas[i];
      EXPECT_TRUE(std::find(reps.begin(), reps.end(), plan.kept[i]) !=
                  reps.end());
    }
  }
}

TEST(EncodingAwareReplication, LargerCAllowsMoreBlocksPerRack) {
  const Topology topo(8, 10);
  const auto cfg = default_config(14, 10, 3, /*c=*/2);
  EncodingAwareReplication ear(topo, cfg, 52);
  PlacementMonitor monitor(topo, cfg.code);
  const auto sealed = place(ear, 300);
  ASSERT_FALSE(sealed.empty());
  for (const StripeInfo& s : sealed) {
    const EncodePlan plan = ear.plan_encoding(s);
    StripeLayout layout;
    layout.nodes = plan.kept;
    layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                        plan.parity.end());
    const auto report = monitor.analyze(layout);
    EXPECT_LE(report.max_blocks_per_rack, 2);
    // c = 2 => tolerate floor(4/2) = 2 rack failures.
    EXPECT_GE(report.tolerable_rack_failures, 2);
  }
}

TEST(EncodingAwareReplication, TargetRacksConfineEncodedStripe) {
  // Figure 6: (6,3) code, c = 3, R' = 2 target racks out of 6.
  const Topology topo(6, 6);
  auto cfg = default_config(6, 3, 3, /*c=*/3);
  cfg.target_racks = 2;
  EncodingAwareReplication ear(topo, cfg, 53);
  const auto sealed = place(ear, 60);
  ASSERT_FALSE(sealed.empty());
  for (const StripeInfo& s : sealed) {
    const auto& targets = s.target_racks;
    ASSERT_EQ(targets.size(), 2u);
    const EncodePlan plan = ear.plan_encoding(s);
    std::set<RackId> target_set(targets.begin(), targets.end());
    for (const NodeId n : plan.kept) {
      EXPECT_TRUE(target_set.count(topo.rack_of(n)))
          << "kept block outside target racks";
    }
    for (const NodeId n : plan.parity) {
      EXPECT_TRUE(target_set.count(topo.rack_of(n)))
          << "parity block outside target racks";
    }
  }
}

TEST(EncodingAwareReplication, IterationCountsAreModest) {
  // Theorem 1: with R = 20 racks and c = 1, E_i <= 1.9 for k = 10.  The
  // *average* over all blocks is well below that.
  const Topology topo(20, 20);
  EncodingAwareReplication ear(topo, default_config(14, 10), 54);
  place(ear, 2000);
  const double avg =
      static_cast<double>(ear.total_layout_iterations()) /
      static_cast<double>(ear.total_blocks_placed());
  EXPECT_LT(avg, 1.6);
  EXPECT_GE(avg, 1.0);
}

TEST(EncodingAwareReplication, DistinctCoreRacksProgressIndependently) {
  const Topology topo(5, 8);
  EncodingAwareReplication ear(topo, default_config(5, 4, 3, 1), 55);
  // Alternate writers between racks 0 and 1: two stripes fill in parallel.
  for (BlockId b = 0; b < 6; ++b) {
    const NodeId writer = (b % 2 == 0) ? NodeId{0} : NodeId{8};
    EXPECT_FALSE(ear.place_block(b, writer).sealed);  // 3 blocks each, k = 4
  }
  const auto first = ear.place_block(6, NodeId{0});
  const auto second = ear.place_block(7, NodeId{8});
  ASSERT_TRUE(first.sealed && second.sealed);
  EXPECT_NE(first.sealed->id, second.sealed->id);
  EXPECT_EQ(first.position, 3);
  EXPECT_EQ(first.sealed->blocks, (std::vector<BlockId>{0, 2, 4, 6}));
  EXPECT_EQ(second.sealed->blocks, (std::vector<BlockId>{1, 3, 5, 7}));
}

TEST(EncodingAwareReplication, RejectsInfeasibleConfig) {
  const Topology topo(4, 4);
  // n = 14 blocks cannot fit in 4 racks with c = 1.
  EXPECT_THROW(
      EncodingAwareReplication(topo, default_config(14, 10, 3, 1), 56),
      std::invalid_argument);
  // c = 0 invalid.
  EXPECT_THROW(EncodingAwareReplication(topo, default_config(5, 4, 3, 0), 57),
               std::invalid_argument);
  // target_racks > rack count.
  auto cfg = default_config(5, 4, 3, 2);
  cfg.target_racks = 9;
  EXPECT_THROW(EncodingAwareReplication(topo, cfg, 58), std::invalid_argument);
}

TEST(PlacementPolicy, PlanEncodingRejectsStripesItCannotPlan) {
  const Topology topo(6, 4);
  const auto cfg = default_config(5, 4, 3, 1);
  EncodingAwareReplication ear(topo, cfg, 64);
  RandomReplication rr(topo, cfg, 64);
  StripeInfo partial = place(ear, 40).front();
  partial.blocks.pop_back();
  partial.replicas.pop_back();
  EXPECT_THROW(ear.plan_encoding(partial), std::invalid_argument);
  EXPECT_THROW(rr.plan_encoding(partial), std::invalid_argument);
  // k blocks whose replicas all sit in the core rack admit no c = 1
  // matching: EAR must refuse rather than index a missing kept replica.
  StripeInfo crowded = place(ear, 40).front();
  for (auto& replicas : crowded.replicas) replicas = {0, 1, 2};
  EXPECT_THROW(ear.plan_encoding(crowded), std::runtime_error);
}

TEST(EarStripeMaxFlow, MatchesHandComputedExample) {
  // Figure 4: 4 racks x 2 nodes, 3 blocks, c = 1.
  const Topology topo(4, 2);
  // Block replicas as in the paper's figure: each block has replicas on
  // nodes spanning the core rack (rack 0) plus another rack.
  std::vector<std::vector<NodeId>> replicas{
      {0, 2, 3},  // block 1: rack0, rack1, rack1
      {1, 2, 4},  // block 2: rack0, rack1, rack2
      {0, 6, 7},  // block 3: rack0, rack3, rack3
  };
  std::vector<NodeId> matching;
  const int flow = ear_stripe_max_flow(topo, 1, replicas, {}, &matching);
  EXPECT_EQ(flow, 3);
  ASSERT_EQ(matching.size(), 3u);
  // Valid matching: distinct nodes, distinct racks (c = 1).
  std::set<NodeId> nodes(matching.begin(), matching.end());
  EXPECT_EQ(nodes.size(), 3u);
  std::set<RackId> racks;
  for (const NodeId n : matching) racks.insert(topo.rack_of(n));
  EXPECT_EQ(racks.size(), 3u);
}

TEST(EarStripeMaxFlow, DetectsInfeasibleLayout) {
  // Both blocks only have replicas in rack 0; with c = 1 at most one can be
  // kept.
  const Topology topo(3, 4);
  std::vector<std::vector<NodeId>> replicas{{0, 1, 2}, {1, 2, 3}};
  EXPECT_EQ(ear_stripe_max_flow(topo, 1, replicas, {}), 1);
  EXPECT_EQ(ear_stripe_max_flow(topo, 2, replicas, {}), 2);
}

TEST(EarStripeMaxFlow, NodeCapacityLimitsMatching) {
  // Two blocks share the single replica node: only one can keep it.
  const Topology topo(2, 2);
  std::vector<std::vector<NodeId>> replicas{{0}, {0}};
  EXPECT_EQ(ear_stripe_max_flow(topo, 2, replicas, {}), 1);
}

TEST(EarStripeMaxFlow, EligibleRacksRestrictMatching) {
  const Topology topo(3, 2);
  std::vector<std::vector<NodeId>> replicas{{0, 2}, {1, 4}};
  // Only rack 0 eligible: both blocks must match inside rack 0, c = 1 allows
  // one.
  EXPECT_EQ(ear_stripe_max_flow(topo, 1, replicas, {0}), 1);
  // Racks 0 and 1: block 0 -> rack 1 (node 2), block 1 -> rack 0 (node 1).
  EXPECT_EQ(ear_stripe_max_flow(topo, 1, replicas, {0, 1}), 2);
}

// ---------------------------------------------------------------- monitor

TEST(PlacementMonitor, AnalyzeCountsWorstCaseFailures) {
  const Topology topo(5, 4);
  PlacementMonitor monitor(topo, CodeParams{5, 4});
  // Layout: two blocks in rack 0, one each in racks 1, 2, 3.
  StripeLayout layout;
  layout.nodes = {0, 1, 4, 8, 12};
  const auto report = monitor.analyze(layout);
  EXPECT_EQ(report.max_blocks_per_node, 1);
  EXPECT_EQ(report.max_blocks_per_rack, 2);
  // m = 1: losing rack 0 loses 2 blocks > m -> zero rack failures tolerable.
  EXPECT_EQ(report.tolerable_rack_failures, 0);
  EXPECT_EQ(report.tolerable_node_failures, 1);
}

TEST(PlacementMonitor, PerfectSpreadToleratesMFailures) {
  const Topology topo(6, 4);
  PlacementMonitor monitor(topo, CodeParams{6, 4});
  StripeLayout layout;
  layout.nodes = {0, 4, 8, 12, 16, 20};  // one per rack
  const auto report = monitor.analyze(layout);
  EXPECT_EQ(report.tolerable_rack_failures, 2);
  EXPECT_EQ(report.tolerable_node_failures, 2);
}

TEST(PlacementMonitor, RelocationPlanRestoresCompliance) {
  const Topology topo(6, 4);
  PlacementMonitor monitor(topo, CodeParams{6, 4});
  StripeLayout layout;
  layout.nodes = {0, 1, 2, 3, 4, 8};  // four blocks in rack 0
  auto moves = monitor.plan_relocations(layout, 1);
  EXPECT_EQ(moves.size(), 3u);
  for (const auto& mv : moves) {
    layout.nodes[static_cast<size_t>(mv.block_index)] = mv.to;
  }
  const auto report = monitor.analyze(layout);
  EXPECT_EQ(report.max_blocks_per_rack, 1);
  EXPECT_TRUE(monitor.plan_relocations(layout, 1).empty());
}

TEST(PlacementMonitor, DoubledNodeTriggersRelocation) {
  const Topology topo(6, 4);
  PlacementMonitor monitor(topo, CodeParams{4, 3});
  StripeLayout layout;
  layout.nodes = {0, 0, 4, 8};  // block doubled on node 0
  const auto report = monitor.analyze(layout);
  EXPECT_EQ(report.max_blocks_per_node, 2);
  const auto moves = monitor.plan_relocations(layout, 1);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from, 0);
}

TEST(PlacementMonitor, RandomReplicationOftenViolatesButEarNever) {
  const Topology topo(10, 10);
  const auto cfg = default_config(10, 8, 3, 1);
  RandomReplication rr(topo, cfg, 59);
  EncodingAwareReplication ear(topo, cfg, 60);
  PlacementMonitor monitor(topo, cfg.code);

  int rr_violations = 0, ear_violations = 0, stripes = 0;
  const auto rr_sealed = place(rr, 8 * 100);
  const auto ear_sealed = place(ear, 8 * 100);
  for (const StripeInfo& s : rr_sealed) {
    const auto plan = rr.plan_encoding(s);
    StripeLayout layout;
    layout.nodes = plan.kept;
    layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                        plan.parity.end());
    if (!monitor.plan_relocations(layout, 1).empty()) ++rr_violations;
    ++stripes;
  }
  for (const StripeInfo& s : ear_sealed) {
    const auto plan = ear.plan_encoding(s);
    StripeLayout layout;
    layout.nodes = plan.kept;
    layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                        plan.parity.end());
    if (!monitor.plan_relocations(layout, 1).empty()) ++ear_violations;
  }
  EXPECT_EQ(ear_violations, 0);
  EXPECT_GT(rr_violations, 0) << "RR should violate n-racks-for-n-blocks "
                                 "sometimes in a 10-rack cluster, over "
                              << stripes << " stripes";
}


TEST(EncodingAwareReplication, TargetRacksConfineAllReplicas) {
  // SIII-D: "all data and parity blocks of every stripe must be placed in
  // the target racks" - including the pre-encoding secondary replicas.
  const Topology topo(20, 20);
  auto cfg = default_config(14, 10, 3, /*c=*/4);
  cfg.target_racks = 4;
  EncodingAwareReplication ear(topo, cfg, 61);
  const auto sealed = place(ear, 200);
  ASSERT_FALSE(sealed.empty());
  for (const StripeInfo& s : sealed) {
    const auto& targets = s.target_racks;
    const std::set<RackId> target_set(targets.begin(), targets.end());
    for (const auto& replicas : s.replicas) {
      for (const NodeId n : replicas) {
        EXPECT_TRUE(target_set.count(topo.rack_of(n)))
            << "replica outside the stripe's target racks";
      }
    }
  }
}

TEST(EncodingAwareReplication, LargeCPutsParityInCoreRack) {
  // SIII-D locality: with c > 1 most parity blocks can live in the core
  // rack, making their uploads intra-rack.
  const Topology topo(20, 20);
  auto cfg = default_config(14, 10, 3, /*c=*/4);
  cfg.target_racks = 4;
  EncodingAwareReplication ear(topo, cfg, 62);
  const auto sealed = place(ear, 10 * 60);
  double cross = 0;
  int stripes = 0;
  for (const StripeInfo& s : sealed) {
    cross += ear.plan_encoding(s).cross_rack_parity_uploads;
    ++stripes;
  }
  ASSERT_GT(stripes, 0);
  // With c = 1 every parity upload crosses racks (4 per stripe); with c = 4
  // most land in the core rack.
  EXPECT_LT(cross / stripes, 2.5);
}

TEST(EncodingAwareReplication, PostPassKeepsLayoutValid) {
  // The core-eviction post-pass must not break the placement invariants.
  const Topology topo(20, 20);
  auto cfg = default_config(14, 10, 3, /*c=*/2);
  cfg.target_racks = 7;
  EncodingAwareReplication ear(topo, cfg, 63);
  PlacementMonitor monitor(topo, cfg.code);
  const auto sealed = place(ear, 10 * 40);
  for (const StripeInfo& s : sealed) {
    const EncodePlan plan = ear.plan_encoding(s);
    // Kept replicas are actual replicas.
    for (size_t i = 0; i < plan.kept.size(); ++i) {
      const auto& reps = s.replicas[i];
      EXPECT_TRUE(std::find(reps.begin(), reps.end(), plan.kept[i]) !=
                  reps.end());
    }
    StripeLayout layout;
    layout.nodes = plan.kept;
    layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                        plan.parity.end());
    const auto report = monitor.analyze(layout);
    EXPECT_EQ(report.max_blocks_per_node, 1);
    EXPECT_LE(report.max_blocks_per_rack, 2);
    EXPECT_GE(report.tolerable_rack_failures, 2);
    // Deletions + kept cover every replica exactly once.
    EXPECT_EQ(plan.deletions.size(), 10u * 3u - 10u);
  }
}

}  // namespace
}  // namespace ear
