// Redundancy restoration after failures — MiniCfs::restore_redundancy and
// the block-status introspection it relies on — and the cluster images
// checkpoints are built from (export_image, validate, from_image).
#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "cfs/minicfs.h"
#include "qos/qos.h"

namespace ear::cfs {

std::vector<BlockId> MiniCfs::all_blocks() const { return ns_.all_blocks(); }

bool MiniCfs::is_block_encoded(BlockId block) const {
  const auto pos = ns_.find_block_stripe(block);
  if (!pos) return false;
  return ns_.stripe_encoded(pos->first);
}

NamespaceSnapshot MiniCfs::namespace_snapshot() const {
  return ns_.snapshot();
}

NodeId MiniCfs::pick_repair_target(const std::vector<NodeId>& exclude,
                                   const std::set<RackId>& avoid_racks) const {
  std::vector<NodeId> preferred, fallback;
  for (NodeId n = 0; n < topo_.node_count(); ++n) {
    if (!node_alive_[static_cast<size_t>(n)]) continue;
    if (std::find(exclude.begin(), exclude.end(), n) != exclude.end()) {
      continue;
    }
    (avoid_racks.count(topo_.rack_of(n)) ? fallback : preferred).push_back(n);
  }
  const std::vector<NodeId>& pool = preferred.empty() ? fallback : preferred;
  if (pool.empty()) return kInvalidNode;
  std::lock_guard<std::mutex> lock(rng_mu_);
  return pool[rng_.index(pool.size())];
}

std::set<RackId> MiniCfs::live_stripe_racks(BlockId block) const {
  std::set<RackId> racks;
  const auto pos = ns_.find_block_stripe(block);
  if (!pos) return racks;
  const auto meta = ns_.find_stripe(pos->first);
  if (!meta) return racks;
  std::vector<BlockId> siblings = meta->data_blocks;
  siblings.insert(siblings.end(), meta->parity_blocks.begin(),
                  meta->parity_blocks.end());
  for (const BlockId sibling : siblings) {
    if (sibling == kInvalidBlock) continue;  // stripe still assembling
    const auto locs = ns_.find_locations(sibling);
    if (!locs) continue;
    for (const NodeId n : *locs) {
      if (node_alive_[static_cast<size_t>(n)]) {
        racks.insert(topo_.rack_of(n));
      }
    }
  }
  return racks;
}

void MiniCfs::replicate_block(BlockId block, NodeId dst) {
  qos::OpScope op(qos::TrafficClass::kRepair);
  TransferScope in_flight(*this);
  std::vector<NodeId> locs = block_locations(block);
  std::vector<NodeId> live;
  for (const NodeId n : locs) {
    if (n != dst && node_alive_[static_cast<size_t>(n)]) live.push_back(n);
  }
  if (live.empty()) {
    throw std::runtime_error("no live replica to copy block " +
                             std::to_string(block));
  }
  const NodeId src = pick_source(live, dst, /*count=*/false);
  transport_->transfer(src, dst, config_.block_size);
  store(dst, block, fetch(src, block));
  // Recovery rewrite: servable locations change, so cached copies are
  // dropped and re-validated on next read (same rule as repair_block).
  cache_invalidate(block);
  ns_.update_locations(block, [this, dst](std::vector<NodeId>& registered) {
    registered.erase(
        std::remove_if(registered.begin(), registered.end(),
                       [this](NodeId n) {
                         return !node_alive_[static_cast<size_t>(n)];
                       }),
        registered.end());
    if (std::find(registered.begin(), registered.end(), dst) ==
        registered.end()) {
      registered.push_back(dst);
    }
  });
}

MiniCfs::RecoveryReport MiniCfs::restore_redundancy() {
  RecoveryReport report;
  // One NameNode lock per pass, not one per block: repairs then re-verify
  // per block through repair_block/replicate_block, which lock as needed.
  const NamespaceSnapshot snap = namespace_snapshot();

  for (const auto& [block, status] : snap.blocks) {
    std::vector<NodeId> live;
    for (const NodeId n : status.locations) {
      if (node_alive_[static_cast<size_t>(n)]) live.push_back(n);
    }
    const int target = status.encoded ? 1 : config_.placement.replication;
    if (static_cast<int>(live.size()) >= target) {
      // Still prune dead locations so later reads don't retry them.
      if (live.size() != status.locations.size()) {
        ns_.set_locations(block, live);
      }
      continue;
    }

    if (live.empty()) {
      if (!status.encoded) {
        ++report.unrecoverable;
        continue;
      }
      // Rebuild via erasure decoding onto a fresh live node picked uniformly
      // at random, preferring a rack holding no other block of the stripe.
      std::set<RackId> used_racks;
      const StripeMeta& meta = snap.stripes.at(status.stripe);
      std::vector<BlockId> siblings = meta.data_blocks;
      siblings.insert(siblings.end(), meta.parity_blocks.begin(),
                      meta.parity_blocks.end());
      for (const BlockId sibling : siblings) {
        const auto it = snap.blocks.find(sibling);
        if (it == snap.blocks.end()) continue;
        for (const NodeId n : it->second.locations) {
          if (node_alive_[static_cast<size_t>(n)]) {
            used_racks.insert(topo_.rack_of(n));
          }
        }
      }
      const NodeId target_node = pick_repair_target({}, used_racks);
      if (target_node == kInvalidNode) {
        ++report.unrecoverable;
        continue;
      }
      try {
        repair_block(block, target_node);
        ++report.repaired;
      } catch (const std::runtime_error&) {
        ++report.unrecoverable;
      }
      continue;
    }

    // Under-replicated: copy from a live replica onto fresh nodes picked
    // uniformly at random, preferring racks not already holding a copy.
    while (static_cast<int>(live.size()) < target) {
      std::set<RackId> used;
      for (const NodeId n : live) used.insert(topo_.rack_of(n));
      const NodeId dst = pick_repair_target(live, used);
      if (dst == kInvalidNode) break;  // cluster too degraded to reach r
      replicate_block(block, dst);
      live.push_back(dst);
      ++report.re_replicated;
    }
    ns_.set_locations(block, live);
  }
  return report;
}

// ---------------------------------------------------------------- images

ClusterImage MiniCfs::export_image() const {
  ClusterImage image;
  image.config = config_;
  image.next_block_id = next_block_id_.load(std::memory_order_relaxed);
  image.next_inline_stripe_id =
      next_inline_stripe_id_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    image.rng = rng_.state();
  }
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    image.policy = policy_->state();
  }
  ns_.export_maps(&image.locations, &image.stripes, &image.block_positions);
  image.node_blocks.resize(datanodes_.size());
  for (size_t i = 0; i < datanodes_.size(); ++i) {
    image.node_blocks[i] = datanodes_[i]->export_blocks();
  }
  return image;
}

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error("invalid cluster image: " + what);
}

// Upper bound on racks, nodes per rack and namespace shards: far above any
// configured cluster, low enough that a corrupt count cannot make the
// constructor allocate without bound.
constexpr int64_t kMaxDimension = 1 << 16;

}  // namespace

void ClusterImage::validate() const {
  const CfsConfig& c = config;
  const int n = c.placement.code.n;
  const int k = c.placement.code.k;
  if (c.racks < 1 || c.racks > kMaxDimension || c.nodes_per_rack < 1 ||
      c.nodes_per_rack > kMaxDimension) {
    reject("topology " + std::to_string(c.racks) + " x " +
           std::to_string(c.nodes_per_rack));
  }
  const int64_t node_count =
      static_cast<int64_t>(c.racks) * static_cast<int64_t>(c.nodes_per_rack);
  if (static_cast<int64_t>(node_blocks.size()) != node_count) {
    reject("topology mismatch: " + std::to_string(node_blocks.size()) +
           " node stores for " + std::to_string(node_count) + " nodes");
  }
  // GF(2^8) codes address at most 255 stripe positions.
  if (k < 1 || n <= k || n > 255) {
    reject("code (" + std::to_string(n) + ", " + std::to_string(k) + ")");
  }
  if (c.placement.replication < 1 || c.placement.replication > node_count ||
      c.placement.c < 1 || c.placement.target_racks < 0 ||
      c.placement.target_racks > c.racks) {
    reject("placement config");
  }
  if (c.block_size < 1 || c.store_segment_bytes < 1 ||
      c.namespace_shards < 1 || c.namespace_shards > kMaxDimension) {
    reject("block size, segment size or namespace shards");
  }

  const auto check_node = [&](NodeId node) {
    if (node < 0 || node >= node_count) {
      reject("node id " + std::to_string(node));
    }
  };
  const auto check_block = [&](BlockId block) {
    if (block < 0 || block >= next_block_id) {
      reject("block id " + std::to_string(block) + " (next block id " +
             std::to_string(next_block_id) + ")");
    }
  };
  const auto check_rack = [&](RackId rack) {
    if (rack < 0 || rack >= c.racks) reject("rack id " + std::to_string(rack));
  };
  // Policy stripes count up from 0, write-path (inline) stripes down from -1;
  // either counter must lie beyond every stripe it has handed out.
  const auto check_stripe_id = [&](StripeId id) {
    if (id >= 0 ? id >= policy.next_stripe_id : id <= next_inline_stripe_id) {
      reject("stripe id " + std::to_string(id) + " collides with the id "
             "counters");
    }
  };
  const auto check_stripe_info = [&](const StripeInfo& info) {
    check_stripe_id(info.id);
    if (info.id < 0 || info.replicas.size() != info.blocks.size()) {
      reject("stripe " + std::to_string(info.id) + " placement");
    }
    if (c.use_ear) {
      check_rack(info.core_rack);
    } else if (info.core_rack != kInvalidRack) {
      reject("RR stripe " + std::to_string(info.id) + " has a core rack");
    }
    for (const RackId r : info.target_racks) check_rack(r);
    for (const BlockId b : info.blocks) check_block(b);
    for (const auto& replicas : info.replicas) {
      if (replicas.empty()) {
        reject("stripe " + std::to_string(info.id) + " block without replicas");
      }
      for (const NodeId node : replicas) check_node(node);
    }
  };

  for (const auto& [block, nodes] : locations) {
    check_block(block);
    for (const NodeId node : nodes) check_node(node);
  }
  for (const auto& [id, meta] : stripes) {
    if (meta.id != id) reject("stripe key " + std::to_string(id));
    check_stripe_id(id);
    const std::string name = "stripe " + std::to_string(id);
    const bool complete = meta.sealed() || meta.encoded;
    if (static_cast<int>(meta.data_blocks.size()) > k ||
        (complete && static_cast<int>(meta.data_blocks.size()) != k)) {
      reject(name + " has " + std::to_string(meta.data_blocks.size()) +
             " data blocks (k = " + std::to_string(k) + ")");
    }
    for (const BlockId b : meta.data_blocks) {
      if (b != kInvalidBlock || complete) check_block(b);
    }
    const int parity = meta.encoded ? n - k : 0;
    if (static_cast<int>(meta.parity_blocks.size()) != parity) {
      reject(name + " has " + std::to_string(meta.parity_blocks.size()) +
             " parity blocks");
    }
    for (const BlockId b : meta.parity_blocks) check_block(b);
    if (meta.seal_seq < -1 || (meta.encoded && meta.placement) ||
        (meta.sealed() && !meta.encoded && !meta.placement)) {
      reject(name + " seal state");
    }
    if (meta.placement) {
      check_stripe_info(*meta.placement);
      if (meta.placement->id != id || !meta.placement->sealed(k)) {
        reject(name + " placement is not a sealed stripe of k blocks");
      }
    }
  }
  for (const auto& [block, pos] : block_positions) {
    check_block(block);
    if (pos.second < 0 || pos.second >= n) {
      reject("block " + std::to_string(block) + " position " +
             std::to_string(pos.second));
    }
    if (stripes.count(pos.first) == 0) {
      reject("block " + std::to_string(block) + " in unknown stripe " +
             std::to_string(pos.first));
    }
  }
  RackId previous_key = kInvalidRack - 1;
  for (const StripeInfo& open : policy.open) {
    check_stripe_info(open);
    if (static_cast<int>(open.blocks.size()) >= k) {
      reject("open stripe " + std::to_string(open.id) + " holds " +
             std::to_string(open.blocks.size()) + " blocks (k = " +
             std::to_string(k) + ")");
    }
    if (open.core_rack <= previous_key) {
      reject("open stripes out of core-rack order");
    }
    previous_key = open.core_rack;
  }
  for (const auto& store : node_blocks) {
    for (const auto& [block, bytes] : store) {
      check_block(block);
      if (static_cast<Bytes>(bytes.size()) != c.block_size) {
        reject("block " + std::to_string(block) + " holds " +
               std::to_string(bytes.size()) + " bytes");
      }
    }
  }
}

std::unique_ptr<MiniCfs> MiniCfs::from_image(
    ClusterImage image, std::unique_ptr<Transport> transport) {
  image.validate();
  std::unique_ptr<MiniCfs> cfs;
  try {
    cfs = std::make_unique<MiniCfs>(image.config, std::move(transport));
  } catch (const std::invalid_argument& e) {
    // A configuration the constructor refuses is a bad image, not a
    // programming error.
    throw std::runtime_error(std::string("invalid cluster image: ") +
                             e.what());
  }
  cfs->next_block_id_.store(image.next_block_id, std::memory_order_relaxed);
  cfs->next_inline_stripe_id_.store(image.next_inline_stripe_id,
                                    std::memory_order_relaxed);
  cfs->rng_.set_state(image.rng);
  cfs->policy_->restore(std::move(image.policy));
  cfs->ns_.import_maps(std::move(image.locations), std::move(image.stripes),
                       std::move(image.block_positions));
  for (size_t i = 0; i < image.node_blocks.size(); ++i) {
    for (auto& [block, bytes] : image.node_blocks[i]) {
      cfs->datanodes_[i]->put(block, std::move(bytes));
    }
  }
  return cfs;
}

}  // namespace ear::cfs
