#include "placement/policy.h"

#include <stdexcept>

namespace ear {

int PlacementPolicy::count_cross_rack_downloads(
    const Topology& topo, NodeId encoder,
    const std::vector<std::vector<NodeId>>& replicas) {
  const RackId encoder_rack = topo.rack_of(encoder);
  int cross = 0;
  for (const auto& nodes : replicas) {
    bool local = false;
    for (const NodeId n : nodes) {
      if (topo.rack_of(n) == encoder_rack) {
        local = true;
        break;
      }
    }
    if (!local) ++cross;
  }
  return cross;
}

PolicyState PlacementPolicy::state() const {
  PolicyState state;
  for (const auto& [key, stripe] : open_) state.open.push_back(stripe);
  state.next_stripe_id = next_stripe_id_;
  state.rng = rng_.state();
  return state;
}

void PlacementPolicy::restore(PolicyState state) {
  open_.clear();
  for (StripeInfo& stripe : state.open) {
    const RackId key = stripe.core_rack;
    open_.emplace(key, std::move(stripe));
  }
  next_stripe_id_ = state.next_stripe_id;
  rng_.set_state(state.rng);
}

void PlacementPolicy::require_sealed(const StripeInfo& stripe) const {
  if (!stripe.sealed(config_.code.k) ||
      stripe.replicas.size() != stripe.blocks.size()) {
    throw std::invalid_argument("plan_encoding: stripe " +
                                std::to_string(stripe.id) +
                                " is not a sealed stripe of k blocks");
  }
}

void PlacementPolicy::finish_placement(RackId key, BlockPlacement& placement) {
  const auto it = open_.find(key);
  placement.stripe = it->second.id;
  placement.position = static_cast<int>(it->second.blocks.size()) - 1;
  if (it->second.sealed(config_.code.k)) {
    placement.sealed = std::move(it->second);
    open_.erase(it);
  }
}

}  // namespace ear
