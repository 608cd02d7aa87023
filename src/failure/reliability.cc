#include "failure/reliability.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <tuple>

#include "common/rng.h"

namespace ear::failure {

namespace {

struct Ev {
  Seconds t = 0;
  uint64_t seq = 0;  // tie-break so heap order is deterministic
  bool rack = false;
  bool fail = true;
  int id = 0;
};

struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const {
    return std::tie(a.t, a.seq) > std::tie(b.t, b.seq);
  }
};

}  // namespace

ReliabilityResult estimate_reliability(
    const Topology& topo, const std::vector<StripePlacement>& stripes,
    const ReliabilityConfig& config) {
  const int nodes = topo.node_count();
  const int racks = topo.rack_count();

  // Index: component -> stripes it can affect, so each event touches only
  // the relevant stripes.
  std::vector<std::vector<int>> node_stripes(static_cast<size_t>(nodes));
  std::vector<std::vector<int>> rack_stripes(static_cast<size_t>(racks));
  for (size_t si = 0; si < stripes.size(); ++si) {
    std::vector<bool> node_seen(static_cast<size_t>(nodes), false);
    std::vector<bool> rack_seen(static_cast<size_t>(racks), false);
    for (const auto& holders : stripes[si].blocks) {
      for (const NodeId n : holders) {
        if (!node_seen[static_cast<size_t>(n)]) {
          node_seen[static_cast<size_t>(n)] = true;
          node_stripes[static_cast<size_t>(n)].push_back(
              static_cast<int>(si));
        }
        const RackId r = topo.rack_of(n);
        if (!rack_seen[static_cast<size_t>(r)]) {
          rack_seen[static_cast<size_t>(r)] = true;
          rack_stripes[static_cast<size_t>(r)].push_back(
              static_cast<int>(si));
        }
      }
    }
  }

  // Blocks with no holders at all are dead from t = 0.
  bool lost_at_start = false;
  for (const auto& sp : stripes) {
    int dead = 0;
    for (const auto& holders : sp.blocks) {
      if (holders.empty()) ++dead;
    }
    if (dead > sp.max_lost_blocks) {
      lost_at_start = true;
      break;
    }
  }

  ReliabilityResult result;
  result.trials = config.trials;
  if (lost_at_start) {
    result.losses = config.trials;
    result.p_loss = 1;
    result.p_no_loss = 0;
    result.mttdl = 0;
    return result;
  }

  std::vector<bool> node_down(static_cast<size_t>(nodes));
  std::vector<bool> rack_down(static_cast<size_t>(racks));
  const auto block_dead = [&](const std::vector<NodeId>& holders) {
    for (const NodeId n : holders) {
      if (!node_down[static_cast<size_t>(n)] &&
          !rack_down[static_cast<size_t>(topo.rack_of(n))]) {
        return false;
      }
    }
    return true;
  };
  const auto stripe_lost = [&](int si) {
    const StripePlacement& sp = stripes[static_cast<size_t>(si)];
    int dead = 0;
    for (const auto& holders : sp.blocks) {
      if (block_dead(holders) && ++dead > sp.max_lost_blocks) return true;
    }
    return false;
  };

  Rng master(config.seed);
  double total_time = 0;
  double loss_time_sum = 0;

  for (int trial = 0; trial < config.trials; ++trial) {
    Rng rng = master.fork();
    std::fill(node_down.begin(), node_down.end(), false);
    std::fill(rack_down.begin(), rack_down.end(), false);

    std::priority_queue<Ev, std::vector<Ev>, EvLater> heap;
    uint64_t seq = 0;
    if (config.node_mttf > 0) {
      for (NodeId n = 0; n < nodes; ++n) {
        heap.push({rng.exponential(config.node_mttf), seq++, false, true, n});
      }
    }
    if (config.rack_mttf > 0) {
      for (RackId r = 0; r < racks; ++r) {
        heap.push({rng.exponential(config.rack_mttf), seq++, true, true, r});
      }
    }

    Seconds loss_at = -1;
    while (!heap.empty()) {
      const Ev ev = heap.top();
      heap.pop();
      if (ev.t >= config.horizon) break;
      auto& down = ev.rack ? rack_down : node_down;
      if (ev.fail) {
        down[static_cast<size_t>(ev.id)] = true;
        const Seconds mttr =
            ev.rack ? config.rack_mttr : config.node_mttr;
        heap.push({ev.t + rng.exponential(mttr), seq++, ev.rack, false,
                   ev.id});
        const auto& affected = ev.rack
                                   ? rack_stripes[static_cast<size_t>(ev.id)]
                                   : node_stripes[static_cast<size_t>(ev.id)];
        bool lost = false;
        for (const int si : affected) {
          if (stripe_lost(si)) {
            lost = true;
            break;
          }
        }
        if (lost) {
          loss_at = ev.t;
          break;
        }
      } else {
        down[static_cast<size_t>(ev.id)] = false;
        const Seconds mttf =
            ev.rack ? config.rack_mttf : config.node_mttf;
        heap.push({ev.t + rng.exponential(mttf), seq++, ev.rack, true,
                   ev.id});
      }
    }

    if (loss_at >= 0) {
      ++result.losses;
      total_time += loss_at;
      loss_time_sum += loss_at;
    } else {
      total_time += config.horizon;
    }
  }

  result.p_loss =
      static_cast<double>(result.losses) / static_cast<double>(result.trials);
  result.p_no_loss = 1.0 - result.p_loss;
  result.mttdl = result.losses > 0
                     ? total_time / static_cast<double>(result.losses)
                     : std::numeric_limits<double>::infinity();
  result.mean_time_to_loss =
      result.losses > 0 ? loss_time_sum / static_cast<double>(result.losses)
                        : 0;
  return result;
}

// ------------------------------------------------------ placement builders

std::vector<StripePlacement> replicated_placements(
    const std::vector<StripeInfo>& stripes) {
  std::vector<StripePlacement> out;
  for (const StripeInfo& info : stripes) {
    StripePlacement sp;
    sp.blocks = info.replicas;
    sp.max_lost_blocks = 0;
    out.push_back(std::move(sp));
  }
  return out;
}

std::vector<StripePlacement> encoded_placements(
    PlacementPolicy& policy, const std::vector<StripeInfo>& stripes) {
  std::vector<StripePlacement> out;
  for (const StripeInfo& stripe : stripes) {
    const EncodePlan plan = policy.plan_encoding(stripe);
    StripePlacement sp;
    for (const NodeId n : plan.kept) sp.blocks.push_back({n});
    for (const NodeId n : plan.parity) sp.blocks.push_back({n});
    sp.max_lost_blocks = static_cast<int>(plan.parity.size());
    out.push_back(std::move(sp));
  }
  return out;
}

std::vector<StripePlacement> placements_from_snapshot(
    const cfs::NamespaceSnapshot& snap, int k) {
  std::vector<StripePlacement> out;
  std::set<BlockId> covered;
  for (const auto& [id, meta] : snap.stripes) {
    if (!meta.encoded) continue;
    StripePlacement sp;
    std::vector<BlockId> members = meta.data_blocks;
    members.insert(members.end(), meta.parity_blocks.begin(),
                   meta.parity_blocks.end());
    for (const BlockId b : members) {
      covered.insert(b);
      const auto it = snap.blocks.find(b);
      sp.blocks.push_back(it == snap.blocks.end()
                              ? std::vector<NodeId>{}
                              : it->second.locations);
    }
    sp.max_lost_blocks = static_cast<int>(members.size()) - k;
    out.push_back(std::move(sp));
  }
  // Remaining (unencoded) blocks: replication is the only shield.
  for (const auto& [block, status] : snap.blocks) {
    if (covered.count(block)) continue;
    StripePlacement sp;
    sp.blocks.push_back(status.locations);
    sp.max_lost_blocks = 0;
    out.push_back(std::move(sp));
  }
  return out;
}

}  // namespace ear::failure
