#include "mapred/encoding_job.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace ear::mapred {

EncodingJob::EncodingJob(sim::Engine& engine, sim::Network& network,
                         PlacementPolicy& policy,
                         const EncodingJobConfig& config)
    : engine_(&engine), network_(&network), policy_(&policy), config_(config),
      rng_(config.seed) {
  free_slots_.assign(static_cast<size_t>(policy.topology().node_count()),
                     config.map_slots_per_node);
}

void EncodingJob::submit(const std::vector<StripeInfo>& stripes) {
  started_ = engine_->now();
  report_.stripes = static_cast<int>(stripes.size());
  for (const StripeInfo& stripe : stripes) {
    pending_.push_back(Task{stripe, policy_->plan_encoding(stripe)});
  }
  try_dispatch();
}

NodeId EncodingJob::choose_node(const Task& task) {
  const Topology& topo = policy_->topology();
  const StripeInfo& stripe = task.stripe;

  const auto free_in_rack = [&](RackId rack) -> NodeId {
    for (const NodeId n : topo.nodes_in_rack(rack)) {
      if (free_slots_[static_cast<size_t>(n)] > 0) return n;
    }
    return kInvalidNode;
  };

  switch (config_.locality) {
    case EncodingLocality::kStrict: {
      // The encoding-job flag: core rack or nothing (§IV-B, third
      // modification).  RR stripes have no core rack; fall back to the
      // preferred (plan) node's rack.
      const RackId rack = stripe.core_rack != kInvalidRack
                              ? stripe.core_rack
                              : topo.rack_of(task.plan.encoder);
      if (task.plan.encoder != kInvalidNode &&
          free_slots_[static_cast<size_t>(task.plan.encoder)] > 0 &&
          topo.rack_of(task.plan.encoder) == rack) {
        return task.plan.encoder;
      }
      return free_in_rack(rack);
    }
    case EncodingLocality::kPreferred: {
      // Best-effort: preferred node, its rack, then any free slot.
      if (free_slots_[static_cast<size_t>(task.plan.encoder)] > 0) {
        return task.plan.encoder;
      }
      const NodeId rack_local =
          free_in_rack(topo.rack_of(task.plan.encoder));
      if (rack_local != kInvalidNode) return rack_local;
      [[fallthrough]];
    }
    case EncodingLocality::kNone: {
      const int nodes = topo.node_count();
      const int start =
          static_cast<int>(rng_.uniform(static_cast<uint64_t>(nodes)));
      for (int off = 0; off < nodes; ++off) {
        const NodeId n = (start + off) % nodes;
        if (free_slots_[static_cast<size_t>(n)] > 0) return n;
      }
      return kInvalidNode;
    }
  }
  return kInvalidNode;
}

void EncodingJob::try_dispatch() {
  // Scan the queue; strict tasks whose core rack is busy are skipped (they
  // keep waiting) while later tasks may still dispatch.
  for (auto it = pending_.begin(); it != pending_.end();) {
    const NodeId node = choose_node(*it);
    if (node == kInvalidNode) {
      ++it;
      continue;
    }
    Task task = std::move(*it);
    it = pending_.erase(it);
    --free_slots_[static_cast<size_t>(node)];
    ++running_;
    run_task(std::move(task), node);
  }
}

void EncodingJob::run_task(Task task, NodeId node) {
  const Topology& topo = policy_->topology();
  const StripeInfo& stripe = task.stripe;
  if (stripe.core_rack != kInvalidRack &&
      topo.rack_of(node) == stripe.core_rack) {
    ++report_.tasks_in_core_rack;
  } else {
    ++report_.tasks_elsewhere;
  }

  // Phase 1: download one replica of each data block to `node`.
  auto state = std::make_shared<int>(0);
  auto plan = std::make_shared<EncodePlan>(std::move(task.plan));
  const RackId node_rack = topo.rack_of(node);

  auto finish_task = [this, node] {
    ++free_slots_[static_cast<size_t>(node)];
    --running_;
    if (pending_.empty() && running_ == 0) {
      report_.duration = engine_->now() - started_;
    }
    try_dispatch();
  };

  auto start_uploads = [this, node, plan, state, finish_task] {
    *state = 0;
    for (const NodeId dst : plan->parity) {
      if (dst == node) continue;
      ++*state;
      network_->start_transfer(node, dst, config_.block_size,
                               [state, finish_task] {
                                 if (--*state == 0) finish_task();
                               });
    }
    if (*state == 0) engine_->schedule_in(0.0, finish_task);
  };

  for (const auto& replicas : stripe.replicas) {
    NodeId src = kInvalidNode;
    for (const NodeId r : replicas) {
      if (r == node) {
        src = r;
        break;
      }
    }
    if (src == kInvalidNode) {
      for (const NodeId r : replicas) {
        if (topo.rack_of(r) == node_rack) {
          src = r;
          break;
        }
      }
    }
    if (src == kInvalidNode) {
      src = replicas[rng_.index(replicas.size())];
      ++report_.cross_rack_downloads;
    }
    ++*state;
    auto on_done = [state, start_uploads] {
      if (--*state == 0) start_uploads();
    };
    if (src == node) {
      network_->start_disk_read(node, config_.block_size, std::move(on_done));
    } else {
      network_->start_transfer(src, node, config_.block_size,
                               std::move(on_done));
    }
  }
  assert(*state > 0);
}

}  // namespace ear::mapred
