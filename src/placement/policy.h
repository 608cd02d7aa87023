// Replica placement policy interface (paper §II-A / §III).
//
// A policy is driven block-by-block: the CFS calls place_block() for every
// new block written, and the policy both chooses the replica nodes and
// assembles blocks into stripes of k for later encoding.  The policy holds
// only the stripes still being assembled: the block that completes a stripe
// carries the finished StripeInfo out in BlockPlacement::sealed, and from
// then on the caller owns it.  plan_encoding() later decides, from that
// StripeInfo, the encoder node, the surviving replica of each data block,
// and the parity block locations.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "placement/types.h"
#include "topology/topology.h"

namespace ear {

// Everything a policy must carry across a NameNode restart (see
// cfs/checkpoint.h): the stripes still being assembled, the id the next
// stripe gets, and the position of its RNG.
struct PolicyState {
  std::vector<StripeInfo> open;  // ascending core rack
  StripeId next_stripe_id = 0;
  std::array<uint64_t, 4> rng{};
};

class PlacementPolicy {
 public:
  PlacementPolicy(const Topology& topo, const PlacementConfig& config,
                  uint64_t seed)
      : topo_(&topo), config_(config), rng_(seed) {}
  virtual ~PlacementPolicy() = default;
  PlacementPolicy(const PlacementPolicy&) = delete;
  PlacementPolicy& operator=(const PlacementPolicy&) = delete;

  virtual std::string name() const = 0;
  const PlacementConfig& config() const { return config_; }
  const Topology& topology() const { return *topo_; }

  // Places the replicas of a new block and assigns it to a stripe under
  // assembly.  `writer` is the node issuing the write (HDFS places the first
  // replica locally when possible); nullopt means a remote client.
  virtual BlockPlacement place_block(
      BlockId block, std::optional<NodeId> writer = std::nullopt) = 0;

  // Builds the full encoding plan for a sealed stripe.  For EAR the plan is
  // relocation-free by construction; for RR the caller may need
  // PlacementMonitor + BlockMover afterwards.  Draws from the policy's RNG.
  virtual EncodePlan plan_encoding(const StripeInfo& stripe) = 0;

  PolicyState state() const;
  // Replaces the assembly state with a checkpointed one.
  void restore(PolicyState state);

 protected:
  // Counts how many data blocks the encoder must fetch from outside its own
  // rack, given one replica set per block.
  static int count_cross_rack_downloads(
      const Topology& topo, NodeId encoder,
      const std::vector<std::vector<NodeId>>& replicas);

  // Throws std::invalid_argument unless `stripe` holds k blocks, each with
  // a replica set: plan_encoding indexes all k.
  void require_sealed(const StripeInfo& stripe) const;

  // Finishes a placement whose block was just appended to open_[key]: sets
  // its position and, when the block completes the stripe, moves the stripe
  // into placement.sealed and forgets it.
  void finish_placement(RackId key, BlockPlacement& placement);

  const Topology* topo_;
  PlacementConfig config_;
  Rng rng_;
  // Stripes under assembly, keyed by core rack (kInvalidRack for RR's single
  // arrival-order stripe).
  std::map<RackId, StripeInfo> open_;
  StripeId next_stripe_id_ = 0;
};

// Factory helpers.
std::unique_ptr<PlacementPolicy> make_random_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed);
std::unique_ptr<PlacementPolicy> make_encoding_aware_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed);

}  // namespace ear
