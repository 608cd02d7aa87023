#include "placement/random_replication.h"

#include <algorithm>
#include <cassert>

#include "placement/replica_layout.h"

namespace ear {

RandomReplication::RandomReplication(const Topology& topo,
                                     const PlacementConfig& config,
                                     uint64_t seed)
    : PlacementPolicy(topo, config, seed) {
  assert(topo.rack_count() >= 2);
  assert(config.replication >= 1);
}

BlockPlacement RandomReplication::place_block(BlockId block,
                                              std::optional<NodeId> writer) {
  // HDFS: first replica on the writing node when it is a DataNode, otherwise
  // a random node of a random rack.
  const NodeId first = writer.value_or(random_node(*topo_, rng_));

  BlockPlacement placement;
  placement.block = block;
  placement.replicas = draw_secondary_replicas(*topo_, config_, first, rng_);
  placement.iterations = 1;

  // Stripe assembly: arrival order, k blocks per stripe.
  auto it = open_.find(kInvalidRack);
  if (it == open_.end()) {
    StripeInfo info;
    info.id = next_stripe_id_++;
    it = open_.emplace(kInvalidRack, std::move(info)).first;
  }
  it->second.blocks.push_back(block);
  it->second.replicas.push_back(placement.replicas);
  finish_placement(kInvalidRack, placement);
  return placement;
}

EncodePlan RandomReplication::plan_encoding(const StripeInfo& s) {
  require_sealed(s);
  const int k = config_.code.k;
  const int m = config_.code.m();

  EncodePlan plan;
  plan.stripe = s.id;
  // §II-A: "The CFS randomly selects a node to perform the encoding
  // operation for a stripe."
  plan.encoder = random_node(*topo_, rng_);
  plan.cross_rack_downloads =
      count_cross_rack_downloads(*topo_, plan.encoder, s.replicas);

  // Keep one replica per data block.  HDFS-RAID retains the first replica it
  // finds; we keep a uniformly random one, which matches the independence
  // assumption of the paper's analysis (§II-B).  Nothing aligns these picks,
  // so the post-encode layout may violate rack-level fault tolerance —
  // that is RR's availability problem, detected later by PlacementMonitor.
  std::vector<bool> node_used(static_cast<size_t>(topo_->node_count()), false);
  plan.kept.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const auto& replicas = s.replicas[static_cast<size_t>(i)];
    // Prefer a replica on a node not already keeping another block of this
    // stripe (node-level fault tolerance), falling back to any replica.
    std::vector<NodeId> candidates;
    for (const NodeId n : replicas) {
      if (!node_used[static_cast<size_t>(n)]) candidates.push_back(n);
    }
    const NodeId kept = candidates.empty()
                            ? replicas[rng_.index(replicas.size())]
                            : candidates[rng_.index(candidates.size())];
    node_used[static_cast<size_t>(kept)] = true;
    plan.kept.push_back(kept);
    for (const NodeId n : replicas) {
      if (n != kept) plan.deletions.emplace_back(i, n);
    }
  }

  // Parity blocks are written through the normal HDFS write path with
  // replication 1: random distinct nodes not already holding stripe blocks.
  plan.parity.reserve(static_cast<size_t>(m));
  const RackId encoder_rack = topo_->rack_of(plan.encoder);
  for (int j = 0; j < m; ++j) {
    NodeId n;
    do {
      n = random_node(*topo_, rng_);
    } while (node_used[static_cast<size_t>(n)]);
    node_used[static_cast<size_t>(n)] = true;
    plan.parity.push_back(n);
    if (topo_->rack_of(n) != encoder_rack) ++plan.cross_rack_parity_uploads;
  }
  return plan;
}

std::unique_ptr<PlacementPolicy> make_random_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed) {
  return std::make_unique<RandomReplication>(topo, config, seed);
}

}  // namespace ear
