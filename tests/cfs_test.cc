#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "cfs/minicfs.h"
#include "cfs/raidnode.h"
#include "common/rng.h"

namespace ear::cfs {
namespace {

CfsConfig small_config(bool use_ear, int n = 8, int k = 6, int racks = 10,
                       int nodes_per_rack = 4) {
  CfsConfig cfg;
  cfg.racks = racks;
  cfg.nodes_per_rack = nodes_per_rack;
  cfg.placement.code = CodeParams{n, k};
  cfg.placement.replication = 3;
  cfg.placement.c = 1;
  cfg.use_ear = use_ear;
  cfg.block_size = 64_KB;
  cfg.seed = 11;
  return cfg;
}

std::unique_ptr<MiniCfs> make_cfs(const CfsConfig& cfg) {
  Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<MiniCfs>(cfg,
                                   std::make_unique<InstantTransport>(topo));
}

std::vector<uint8_t> random_block(const CfsConfig& cfg, Rng& rng) {
  std::vector<uint8_t> data(static_cast<size_t>(cfg.block_size));
  for (auto& b : data) b = static_cast<uint8_t>(rng.uniform(256));
  return data;
}

TEST(MiniCfs, WriteReadRoundTrip) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(1);
  const auto data = random_block(cfg, rng);
  const BlockId id = cfs->write_block(data);
  EXPECT_EQ(cfs->read_block(id, 0), data);
  EXPECT_EQ(cfs->block_locations(id).size(), 3u);
}

TEST(MiniCfs, RejectsWrongSizeWrite) {
  auto cfs = make_cfs(small_config(true));
  std::vector<uint8_t> tiny(10);
  EXPECT_THROW(cfs->write_block(tiny), std::invalid_argument);
}

TEST(MiniCfs, ReplicasLandOnDistinctNodes) {
  const auto cfg = small_config(false);
  auto cfs = make_cfs(cfg);
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    const BlockId id = cfs->write_block(random_block(cfg, rng));
    const auto locs = cfs->block_locations(id);
    const std::set<NodeId> unique(locs.begin(), locs.end());
    EXPECT_EQ(unique.size(), locs.size());
  }
}

TEST(MiniCfs, EncodeProducesDecodableStripe) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(3);
  std::map<BlockId, std::vector<uint8_t>> originals;
  while (cfs->sealed_stripes().empty()) {
    auto data = random_block(cfg, rng);
    const BlockId id = cfs->write_block(data);
    originals[id] = std::move(data);
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  EXPECT_TRUE(cfs->is_encoded(stripe));

  const StripeMeta meta = cfs->stripe_meta(stripe);
  EXPECT_EQ(meta.data_blocks.size(), 6u);
  EXPECT_EQ(meta.parity_blocks.size(), 2u);

  // Every data block is now singly-replicated and still readable.
  for (size_t i = 0; i < meta.data_blocks.size(); ++i) {
    const auto locs = cfs->block_locations(meta.data_blocks[i]);
    ASSERT_EQ(locs.size(), 1u);
    EXPECT_EQ(cfs->read_block(meta.data_blocks[i], 0),
              originals.at(meta.data_blocks[i]));
  }
}

TEST(MiniCfs, EncodedStripeSpansDistinctNodesAndRacks) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(4);
  while (cfs->sealed_stripes().empty()) {
    cfs->write_block(random_block(cfg, rng));
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  const StripeMeta meta = cfs->stripe_meta(stripe);

  std::set<NodeId> nodes;
  std::set<RackId> racks;
  for (const BlockId b : meta.data_blocks) {
    const auto locs = cfs->block_locations(b);
    nodes.insert(locs[0]);
    racks.insert(cfs->topology().rack_of(locs[0]));
  }
  for (const BlockId b : meta.parity_blocks) {
    const auto locs = cfs->block_locations(b);
    nodes.insert(locs[0]);
    racks.insert(cfs->topology().rack_of(locs[0]));
  }
  EXPECT_EQ(nodes.size(), 8u) << "n distinct nodes";
  EXPECT_EQ(racks.size(), 8u) << "c = 1: n distinct racks";
}

TEST(MiniCfs, EarEncodingHasZeroCrossRackDownloads) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(5);
  while (cfs->sealed_stripes().size() < 5) {
    cfs->write_block(random_block(cfg, rng));
  }
  for (const StripeId s : cfs->sealed_stripes()) cfs->encode_stripe(s);
  EXPECT_EQ(cfs->encode_cross_rack_downloads(), 0);
}

TEST(MiniCfs, RrEncodingHasCrossRackDownloads) {
  const auto cfg = small_config(false);
  auto cfs = make_cfs(cfg);
  Rng rng(6);
  while (cfs->sealed_stripes().size() < 5) {
    cfs->write_block(random_block(cfg, rng));
  }
  for (const StripeId s : cfs->sealed_stripes()) cfs->encode_stripe(s);
  EXPECT_GT(cfs->encode_cross_rack_downloads(), 0);
}

TEST(MiniCfs, DegradedReadAfterNodeFailure) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(7);
  std::map<BlockId, std::vector<uint8_t>> originals;
  while (cfs->sealed_stripes().empty()) {
    auto data = random_block(cfg, rng);
    const BlockId id = cfs->write_block(data);
    originals[id] = std::move(data);
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  const StripeMeta meta = cfs->stripe_meta(stripe);

  // Kill the node holding data block 0; its only copy is gone.
  const BlockId victim = meta.data_blocks[0];
  cfs->kill_node(cfs->block_locations(victim)[0]);
  const NodeId reader = [&] {
    for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
      if (cfs->node_alive(n)) return n;
    }
    return kInvalidNode;
  }();
  EXPECT_EQ(cfs->read_block(victim, reader), originals.at(victim));
}

TEST(MiniCfs, DegradedReadAfterRackFailure) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(8);
  std::map<BlockId, std::vector<uint8_t>> originals;
  while (cfs->sealed_stripes().empty()) {
    auto data = random_block(cfg, rng);
    const BlockId id = cfs->write_block(data);
    originals[id] = std::move(data);
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  const StripeMeta meta = cfs->stripe_meta(stripe);

  // c = 1: killing any whole rack removes at most one block of the stripe.
  const BlockId victim = meta.data_blocks[2];
  const RackId dead_rack =
      cfs->topology().rack_of(cfs->block_locations(victim)[0]);
  cfs->kill_rack(dead_rack);
  NodeId reader = kInvalidNode;
  for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
    if (cfs->node_alive(n)) {
      reader = n;
      break;
    }
  }
  EXPECT_EQ(cfs->read_block(victim, reader), originals.at(victim));
}

TEST(MiniCfs, UnrecoverableWhenTooManyFailures) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(9);
  while (cfs->sealed_stripes().empty()) {
    cfs->write_block(random_block(cfg, rng));
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  const StripeMeta meta = cfs->stripe_meta(stripe);

  // Kill the nodes of 3 blocks (> n - k = 2): the stripe must be lost.
  std::set<NodeId> victims;
  for (int i = 0; i < 3; ++i) {
    victims.insert(cfs->block_locations(meta.data_blocks[static_cast<size_t>(i)])[0]);
  }
  for (const NodeId v : victims) cfs->kill_node(v);
  NodeId reader = kInvalidNode;
  for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
    if (cfs->node_alive(n)) {
      reader = n;
      break;
    }
  }
  EXPECT_THROW(cfs->read_block(meta.data_blocks[0], reader),
               std::runtime_error);
}

TEST(MiniCfs, RepairRestoresRedundancy) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(10);
  std::map<BlockId, std::vector<uint8_t>> originals;
  while (cfs->sealed_stripes().empty()) {
    auto data = random_block(cfg, rng);
    const BlockId id = cfs->write_block(data);
    originals[id] = std::move(data);
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  const StripeMeta meta = cfs->stripe_meta(stripe);

  const BlockId victim = meta.data_blocks[1];
  const NodeId dead = cfs->block_locations(victim)[0];
  cfs->kill_node(dead);

  // Repair to a live node in a rack that holds no other stripe block.
  std::set<RackId> used;
  for (const BlockId b : meta.data_blocks) {
    used.insert(cfs->topology().rack_of(cfs->block_locations(b)[0]));
  }
  for (const BlockId b : meta.parity_blocks) {
    used.insert(cfs->topology().rack_of(cfs->block_locations(b)[0]));
  }
  NodeId target = kInvalidNode;
  for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
    if (cfs->node_alive(n) && !used.count(cfs->topology().rack_of(n))) {
      target = n;
      break;
    }
  }
  ASSERT_NE(target, kInvalidNode);
  cfs->repair_block(victim, target);

  const auto locs = cfs->block_locations(victim);
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0], target);
  // After reviving nothing, the block reads fine from the repaired copy.
  EXPECT_EQ(cfs->read_block(victim, target), originals.at(victim));
}

TEST(MiniCfs, ParityBlocksAreDegradedReadable) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(12);
  while (cfs->sealed_stripes().empty()) {
    cfs->write_block(random_block(cfg, rng));
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  const StripeMeta meta = cfs->stripe_meta(stripe);

  const BlockId parity = meta.parity_blocks[0];
  const auto before = cfs->read_block(parity, 0);
  cfs->kill_node(cfs->block_locations(parity)[0]);
  NodeId reader = kInvalidNode;
  for (NodeId n = 0; n < cfs->topology().node_count(); ++n) {
    if (cfs->node_alive(n)) {
      reader = n;
      break;
    }
  }
  EXPECT_EQ(cfs->read_block(parity, reader), before);
}

TEST(MiniCfs, EncodeStripeTwiceThrows) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(13);
  while (cfs->sealed_stripes().empty()) {
    cfs->write_block(random_block(cfg, rng));
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  EXPECT_THROW(cfs->encode_stripe(stripe), std::runtime_error);
}

TEST(RaidNode, ParallelJobEncodesEverything) {
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(14);
  while (cfs->sealed_stripes().size() < 8) {
    cfs->write_block(random_block(cfg, rng));
  }
  auto stripes = cfs->sealed_stripes();
  stripes.resize(8);
  RaidNode raid(*cfs, /*map_slots=*/4);
  const EncodeReport report = raid.encode_stripes(stripes);
  EXPECT_EQ(report.completion_times.size(), 8u);
  EXPECT_EQ(report.cross_rack_downloads, 0);
  for (const StripeId s : stripes) EXPECT_TRUE(cfs->is_encoded(s));
  EXPECT_GT(report.throughput_mbps, 0.0);
}

TEST(RaidNode, ScatteredEncodersCauseCrossRackDownloadsUnderEar) {
  // Ablation for the paper's §IV-B JobTracker modifications: when the map
  // task does NOT run in the core rack, even EAR-placed stripes need
  // cross-rack downloads.
  const auto cfg = small_config(true);
  auto cfs = make_cfs(cfg);
  Rng rng(15);
  while (cfs->sealed_stripes().size() < 8) {
    cfs->write_block(random_block(cfg, rng));
  }
  auto stripes = cfs->sealed_stripes();
  stripes.resize(8);
  RaidNode raid(*cfs, 4);
  const EncodeReport report =
      raid.encode_stripes(stripes, /*scatter_encoders=*/true);
  EXPECT_GT(report.cross_rack_downloads, 0);
}

TEST(MiniCfs, TestbedModeTwoWayReplicationOnSingleNodeRacks) {
  // The paper's 12-machine testbed: 12 racks x 1 node, r = 2, (10,8).
  CfsConfig cfg;
  cfg.racks = 12;
  cfg.nodes_per_rack = 1;
  cfg.placement.code = CodeParams{10, 8};
  cfg.placement.replication = 2;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = 64_KB;
  cfg.seed = 16;
  auto cfs = make_cfs(cfg);
  Rng rng(17);
  std::map<BlockId, std::vector<uint8_t>> originals;
  while (cfs->sealed_stripes().empty()) {
    auto data = random_block(cfg, rng);
    const BlockId id = cfs->write_block(data);
    originals[id] = std::move(data);
  }
  const StripeId stripe = cfs->sealed_stripes()[0];
  cfs->encode_stripe(stripe);
  EXPECT_EQ(cfs->encode_cross_rack_downloads(), 0);
  const StripeMeta meta = cfs->stripe_meta(stripe);
  for (size_t i = 0; i < meta.data_blocks.size(); ++i) {
    EXPECT_EQ(cfs->read_block(meta.data_blocks[i], 0),
              originals.at(meta.data_blocks[i]));
  }
}

// Encoding plans from every copy the cluster holds now, not only the
// placement-time replica sets.  Each case starts from one stripe written
// from node 0, so the cluster holds no other block; by default RS(6,4) on
// 8 racks x 3 nodes at r = 3.
struct OneStripe {
  explicit OneStripe(bool use_ear)
      : OneStripe(small_config(use_ear, /*n=*/6, /*k=*/4, /*racks=*/8,
                               /*nodes_per_rack=*/3)) {}

  explicit OneStripe(const CfsConfig& config) : cfg(config) {
    cfs = make_cfs(cfg);
    Rng rng(23);
    while (cfs->sealed_stripes().empty()) {
      auto data = random_block(cfg, rng);
      const BlockId id = cfs->write_block(data, NodeId{0});
      originals[id] = std::move(data);
    }
    stripe = cfs->sealed_stripes()[0];
  }

  int64_t stored_copies() const {
    int64_t total = 0;
    for (NodeId n = 0; n < cfg.racks * cfg.nodes_per_rack; ++n) {
      total += cfs->blocks_stored_on(n);
    }
    return total;
  }

  void expect_encoded_and_intact() {
    cfs->revive_all();
    ASSERT_TRUE(cfs->is_encoded(stripe));
    const StripeMeta meta = cfs->stripe_meta(stripe);
    for (const BlockId b : meta.data_blocks) {
      EXPECT_EQ(cfs->block_locations(b).size(), 1u) << "block " << b;
      EXPECT_EQ(cfs->read_block(b, 0), originals.at(b)) << "block " << b;
    }
    // Exactly one copy of each of the n blocks is left in any store.
    EXPECT_EQ(stored_copies(), cfg.placement.code.n);
  }

  CfsConfig cfg;
  std::unique_ptr<MiniCfs> cfs;
  std::map<BlockId, std::vector<uint8_t>> originals;
  StripeId stripe = kInvalidStripe;
};

TEST(MiniCfs, EncodeDeletesReplicasReMadeBeforeEncoding) {
  for (const bool use_ear : {true, false}) {
    SCOPED_TRACE(use_ear ? "EAR" : "RR");
    OneStripe s(use_ear);
    ASSERT_EQ(s.originals.size(), 4u);
    const BlockId b0 = s.cfs->stripe_meta(s.stripe).data_blocks[0];
    s.cfs->kill_node(s.cfs->block_locations(b0).back());
    EXPECT_GT(s.cfs->restore_redundancy().re_replicated, 0);
    s.cfs->revive_all();  // the dead node comes back holding a stale copy
    s.cfs->encode_stripe(s.stripe);
    s.expect_encoded_and_intact();
  }
}

TEST(MiniCfs, EncodeReadsAReMadeCopyWhenPlacedReplicasAreDead) {
  for (const bool use_ear : {true, false}) {
    SCOPED_TRACE(use_ear ? "EAR" : "RR");
    OneStripe s(use_ear);
    const BlockId b0 = s.cfs->stripe_meta(s.stripe).data_blocks[0];
    const std::vector<NodeId> placed = s.cfs->block_locations(b0);
    s.cfs->kill_node(placed.back());
    s.cfs->restore_redundancy();
    for (const NodeId n : placed) s.cfs->kill_node(n);
    // Every placement-time replica of b0 is down; the re-made copy is not.
    const std::vector<NodeId> now = s.cfs->block_locations(b0);
    ASSERT_TRUE(std::any_of(now.begin(), now.end(), [&](NodeId n) {
      return s.cfs->node_alive(n);
    }));
    s.cfs->encode_stripe(s.stripe);
    s.expect_encoded_and_intact();
  }
}

// The core rack holds every first replica; losing it and repairing leaves
// each block's copies in its one other rack plus a re-made one.  The
// revived rack's copies are unlisted but still stored, and EAR's kept-
// replica matching needs them as candidates to spread 10 blocks over 10
// racks.
TEST(MiniCfs, EncodeAfterCoreRackLossAndRepairUsesRevivedCopies) {
  CfsConfig cfg = small_config(/*use_ear=*/true, /*n=*/14, /*k=*/10,
                               /*racks=*/16, /*nodes_per_rack=*/4);
  cfg.placement.one_replica_per_rack = false;
  OneStripe s(cfg);
  ASSERT_EQ(s.originals.size(), 10u);
  s.cfs->kill_rack(0);
  EXPECT_GT(s.cfs->restore_redundancy().re_replicated, 0);
  s.cfs->revive_all();
  s.cfs->encode_stripe(s.stripe);
  s.expect_encoded_and_intact();
}

}  // namespace
}  // namespace ear::cfs
