// Parameterized property sweep: EAR's invariants must hold across the whole
// configuration grid, not just the defaults.  For every combination of
// (racks, k, n-k, replication, c) this suite places several stripes and
// checks:
//   1. every block's first replica sits in its stripe's core rack;
//   2. the encoder is in the core rack and needs zero cross-rack downloads;
//   3. the kept-replica matching uses real replicas, distinct nodes, and at
//      most c blocks per rack;
//   4. the full post-encode layout tolerates floor((n-k)/c) rack failures
//      with no relocation;
//   5. RR under the same configuration yields the documented cross-rack
//      download count on average.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "placement/ear.h"
#include "placement/monitor.h"
#include "placement/random_replication.h"

namespace ear {
namespace {

using Params = std::tuple<int /*racks*/, int /*k*/, int /*m*/, int /*r*/,
                          int /*c*/>;

class EarPropertySweep : public ::testing::TestWithParam<Params> {};

TEST_P(EarPropertySweep, InvariantsHold) {
  const auto [racks, k, m, r, c] = GetParam();
  const int n = k + m;
  const int nodes_per_rack = 8;
  if (racks * c < n) GTEST_SKIP() << "infeasible grid combo";
  if (r - 1 > nodes_per_rack) GTEST_SKIP();

  const Topology topo(racks, nodes_per_rack);
  PlacementConfig cfg;
  cfg.code = CodeParams{n, k};
  cfg.replication = r;
  cfg.c = c;
  EncodingAwareReplication ear_policy(
      topo, cfg, static_cast<uint64_t>(racks * 1000 + k * 10 + c));
  const PlacementMonitor monitor(topo, cfg.code);

  std::vector<StripeInfo> sealed;
  for (BlockId next = 0; sealed.size() < 5; ++next) {
    ASSERT_LT(next, 10000) << "placement failed to seal stripes";
    BlockPlacement p = ear_policy.place_block(next, std::nullopt);
    if (p.sealed) sealed.push_back(std::move(*p.sealed));
  }

  for (const StripeInfo& s : sealed) {

    // (1) first replica in core rack; replica sets well-formed.
    for (const auto& replicas : s.replicas) {
      ASSERT_EQ(static_cast<int>(replicas.size()), r);
      EXPECT_EQ(topo.rack_of(replicas[0]), s.core_rack);
      const std::set<NodeId> unique(replicas.begin(), replicas.end());
      EXPECT_EQ(unique.size(), replicas.size());
    }

    const EncodePlan plan = ear_policy.plan_encoding(s);

    // (2) encoder locality.
    EXPECT_EQ(topo.rack_of(plan.encoder), s.core_rack);
    EXPECT_EQ(plan.cross_rack_downloads, 0);

    // (3) matching validity.
    std::set<NodeId> nodes;
    std::vector<int> rack_load(static_cast<size_t>(racks), 0);
    for (int i = 0; i < k; ++i) {
      const NodeId kept = plan.kept[static_cast<size_t>(i)];
      const auto& reps = s.replicas[static_cast<size_t>(i)];
      EXPECT_TRUE(std::find(reps.begin(), reps.end(), kept) != reps.end());
      EXPECT_TRUE(nodes.insert(kept).second) << "node reused";
      ++rack_load[static_cast<size_t>(topo.rack_of(kept))];
    }
    for (const NodeId p : plan.parity) {
      EXPECT_TRUE(nodes.insert(p).second) << "parity node reused";
      ++rack_load[static_cast<size_t>(topo.rack_of(p))];
    }
    for (const int load : rack_load) EXPECT_LE(load, c);

    // (4) fault tolerance without relocation.
    StripeLayout layout;
    layout.nodes = plan.kept;
    layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                        plan.parity.end());
    const auto report = monitor.analyze(layout);
    EXPECT_GE(report.tolerable_rack_failures, m / c);
    EXPECT_TRUE(monitor.plan_relocations(layout, c).empty());

    // Deletions cover exactly the replicas not kept.
    EXPECT_EQ(plan.deletions.size(),
              static_cast<size_t>(k) * static_cast<size_t>(r - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EarPropertySweep,
    ::testing::Combine(::testing::Values(8, 14, 20),   // racks
                       ::testing::Values(4, 6, 10),    // k
                       ::testing::Values(2, 4),        // m = n - k
                       ::testing::Values(2, 3),        // replication
                       ::testing::Values(1, 2)));      // c

class RrPropertySweep : public ::testing::TestWithParam<Params> {};

TEST_P(RrPropertySweep, CrossRackDownloadsTrackTheFormula) {
  const auto [racks, k, m, r, c] = GetParam();
  (void)c;
  const Topology topo(racks, 8);
  PlacementConfig cfg;
  cfg.code = CodeParams{k + m, k};
  cfg.replication = r;
  RandomReplication rr(topo, cfg,
                       static_cast<uint64_t>(racks * 77 + k));

  BlockId next = 0;
  double cross = 0;
  int stripes = 0;
  while (stripes < 150) {
    const auto sealed = rr.place_block(next++, std::nullopt).sealed;
    if (sealed) {
      cross += rr.plan_encoding(*sealed).cross_rack_downloads;
      ++stripes;
    }
  }
  // §II-B: expected cross-rack downloads = k (1 - racks_with_replica / R).
  // With r replicas in min(r, 2) racks the per-block hit rate is ~2/R for
  // r >= 3 and ~2/R for r = 2 as well (two racks hold replicas).
  const double expected = k * (1.0 - 2.0 / racks);
  EXPECT_NEAR(cross / stripes, expected, expected * 0.2 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RrPropertySweep,
    ::testing::Combine(::testing::Values(10, 20), ::testing::Values(6, 10),
                       ::testing::Values(4), ::testing::Values(2, 3),
                       ::testing::Values(1)));

}  // namespace
}  // namespace ear
