// Executable documentation: the paper's own worked examples, run literally
// against this implementation.
#include <gtest/gtest.h>

#include <set>

#include "analysis/availability.h"
#include "placement/ear.h"
#include "placement/monitor.h"
#include "placement/random_replication.h"

namespace ear {
namespace {

// §II-B / Figure 2: a CFS with 30 nodes evenly grouped into five racks
// (six nodes per rack), four blocks written with 3-way replication, then
// encoded with (5,4) erasure coding.
TEST(PaperExample, Figure2MotivatingScenario) {
  const Topology topo(5, 6);
  PlacementConfig cfg;
  cfg.code = CodeParams{5, 4};
  cfg.replication = 3;
  cfg.c = 1;

  // Under EAR the stripe encodes with zero cross-rack downloads and
  // tolerates a single rack failure with no relocation (Figure 2(b)).
  EncodingAwareReplication ear_policy(topo, cfg, 123);
  std::optional<StripeInfo> stripe;
  for (BlockId next = 0; !stripe; ++next) {
    stripe = ear_policy.place_block(next, std::nullopt).sealed;
  }
  const EncodePlan plan = ear_policy.plan_encoding(*stripe);
  EXPECT_EQ(plan.cross_rack_downloads, 0);

  StripeLayout layout;
  layout.nodes = plan.kept;
  layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                      plan.parity.end());
  const PlacementMonitor monitor(topo, cfg.code);
  const auto report = monitor.analyze(layout);
  EXPECT_GE(report.tolerable_rack_failures, 1);
  // Five blocks in five racks: each rack holds exactly one.
  EXPECT_EQ(report.max_blocks_per_rack, 1);

  // Under RR, §II-B argues cross-rack downloads are almost inevitable:
  // the expected count is k - 2k/R = 4 - 8/5 = 2.4.
  RandomReplication rr(topo, cfg, 124);
  double cross = 0;
  int stripes = 0;
  for (BlockId b = 0; stripes < 500; ++b) {
    const auto sealed = rr.place_block(b, std::nullopt).sealed;
    if (sealed) {
      cross += rr.plan_encoding(*sealed).cross_rack_downloads;
      ++stripes;
    }
  }
  EXPECT_NEAR(cross / stripes, 2.4, 0.25);
}

// §III-A: the preliminary design's availability violation example — three
// data blocks, (4,3) coding, single-rack fault tolerance required.  If the
// second and third replicas of all three blocks land in the same rack, no
// deletion choice can avoid two blocks sharing a rack.
TEST(PaperExample, SectionIIIAViolationMechanism) {
  const Topology topo(4, 6);
  // Layout forced to the bad case: first replicas in rack 0 (core), all
  // secondaries in rack 1.
  std::vector<std::vector<NodeId>> replicas{
      {0, 6, 7},   // block 1: core rack 0, secondaries rack 1
      {1, 8, 9},   // block 2
      {2, 10, 11}  // block 3
  };
  // c = 1: a full matching would need 3 distinct racks among {0, 1}.
  EXPECT_LT(ear_stripe_max_flow(topo, 1, replicas, {}), 3);
  // EAR's re-draw loop exists precisely to reject this layout; with c = 2
  // it becomes acceptable (two blocks may share rack 1).
  EXPECT_EQ(ear_stripe_max_flow(topo, 2, replicas, {}), 3);
}

// §III-A / Figure 3 anchor and §III-C / Theorem 1 remark, quoted verbatim
// in the paper's text.
TEST(PaperExample, QuotedNumbersHold) {
  EXPECT_NEAR(analysis::preliminary_violation_probability(16, 12), 0.97,
              0.015);
  EXPECT_NEAR(analysis::theorem1_iteration_bound(20, 10, 1), 1.9, 1e-12);
}

// §III-D / Figure 6: (6,3) code over R = 6 racks, c = 3, R' = 2 target
// racks — after encoding, all six blocks live in the two target racks.
TEST(PaperExample, Figure6TargetRacks) {
  const Topology topo(6, 6);
  PlacementConfig cfg;
  cfg.code = CodeParams{6, 3};
  cfg.replication = 3;
  cfg.c = 3;
  cfg.target_racks = 2;
  EncodingAwareReplication ear_policy(topo, cfg, 125);
  std::optional<StripeInfo> stripe;
  for (BlockId next = 0; !stripe; ++next) {
    stripe = ear_policy.place_block(next, std::nullopt).sealed;
  }
  const EncodePlan plan = ear_policy.plan_encoding(*stripe);
  const auto& targets = stripe->target_racks;
  const std::set<RackId> target_set(targets.begin(), targets.end());
  ASSERT_EQ(target_set.size(), 2u);
  std::set<RackId> used;
  for (const NodeId node : plan.kept) used.insert(topo.rack_of(node));
  for (const NodeId node : plan.parity) used.insert(topo.rack_of(node));
  for (const RackId r : used) EXPECT_TRUE(target_set.count(r));
  // c = 3, n - k = 3: single-rack fault tolerance.
  StripeLayout layout;
  layout.nodes = plan.kept;
  layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                      plan.parity.end());
  const PlacementMonitor monitor(topo, cfg.code);
  EXPECT_GE(monitor.analyze(layout).tolerable_rack_failures, 1);
}

}  // namespace
}  // namespace ear
