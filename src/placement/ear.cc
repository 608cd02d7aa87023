#include "placement/ear.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "flow/maxflow.h"
#include "placement/replica_layout.h"

namespace ear {

namespace {

// After this many uniform re-draws we switch to directed draws that force
// the secondary rack to each eligible rack in turn (still guaranteeing
// termination for feasible configs).  Theorem 1 bounds the expected number
// of uniform draws by (R-1)/(R-1-(i-1)/c), so 256 is far beyond the tail.
constexpr int kUniformRetries = 256;

}  // namespace

int ear_stripe_max_flow(const Topology& topo, int c,
                        const std::vector<std::vector<NodeId>>& replicas,
                        const std::vector<RackId>& eligible_racks,
                        std::vector<NodeId>* matching) {
  const int block_count = static_cast<int>(replicas.size());
  if (block_count == 0) {
    if (matching) matching->clear();
    return 0;
  }

  std::vector<bool> rack_eligible(static_cast<size_t>(topo.rack_count()),
                                  eligible_racks.empty());
  for (const RackId r : eligible_racks) {
    rack_eligible[static_cast<size_t>(r)] = true;
  }

  // Dense vertex numbering: S, blocks, then replica nodes and racks on
  // demand.
  std::unordered_map<NodeId, int> node_vertex;
  std::unordered_map<RackId, int> rack_vertex;
  int vertex_count = 1 + block_count;  // S + blocks
  for (const auto& nodes : replicas) {
    for (const NodeId n : nodes) {
      if (!rack_eligible[static_cast<size_t>(topo.rack_of(n))]) continue;
      if (node_vertex.emplace(n, 0).second) ++vertex_count;
      if (rack_vertex.emplace(topo.rack_of(n), 0).second) ++vertex_count;
    }
  }
  const int s = 0;
  const int t = vertex_count;
  ++vertex_count;

  int next = 1 + block_count;
  for (auto& [node, v] : node_vertex) v = next++;
  for (auto& [rack, v] : rack_vertex) v = next++;

  flow::MaxFlow mf(vertex_count);
  // block -> node edge ids, for matching extraction.
  std::vector<std::vector<std::pair<int, NodeId>>> block_edges(
      static_cast<size_t>(block_count));

  for (int b = 0; b < block_count; ++b) {
    mf.add_edge(s, 1 + b, 1);
    for (const NodeId n : replicas[static_cast<size_t>(b)]) {
      const auto it = node_vertex.find(n);
      if (it == node_vertex.end()) continue;  // ineligible rack
      const int edge = mf.add_edge(1 + b, it->second, 1);
      block_edges[static_cast<size_t>(b)].emplace_back(edge, n);
    }
  }
  for (const auto& [node, v] : node_vertex) {
    mf.add_edge(v, rack_vertex.at(topo.rack_of(node)), 1);
  }
  for (const auto& [rack, v] : rack_vertex) {
    (void)rack;
    mf.add_edge(v, t, c);
  }

  const auto max_flow = static_cast<int>(mf.solve(s, t));

  if (matching && max_flow == block_count) {
    matching->assign(static_cast<size_t>(block_count), kInvalidNode);
    for (int b = 0; b < block_count; ++b) {
      for (const auto& [edge, node] : block_edges[static_cast<size_t>(b)]) {
        if (mf.edge_flow(edge) > 0) {
          (*matching)[static_cast<size_t>(b)] = node;
          break;
        }
      }
      assert((*matching)[static_cast<size_t>(b)] != kInvalidNode);
    }
  }
  return max_flow;
}

EncodingAwareReplication::EncodingAwareReplication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed)
    : PlacementPolicy(topo, config, seed) {
  const int n = config.code.n;
  const int c = config.c;
  if (c < 1) throw std::invalid_argument("EAR: c must be >= 1");
  // §III-B: a stripe of n blocks spread <= c per rack needs R >= n / c racks.
  const int racks_available =
      config.target_racks > 0 ? config.target_racks : topo.rack_count();
  if (racks_available * c < n) {
    throw std::invalid_argument(
        "EAR: (target) racks * c must be >= n to place a stripe");
  }
  if (config.target_racks > topo.rack_count()) {
    throw std::invalid_argument("EAR: target_racks exceeds rack count");
  }
  // Each rack must be able to host c stripe blocks on distinct nodes and
  // r-1 secondary replicas.
  for (RackId r = 0; r < topo.rack_count(); ++r) {
    if (topo.rack_size(r) < std::max(c, config.replication - 1)) {
      throw std::invalid_argument("EAR: rack too small for c / replication");
    }
  }
}

StripeInfo& EncodingAwareReplication::open_stripe_for_core_rack(
    RackId core_rack) {
  const auto it = open_.find(core_rack);
  if (it != open_.end()) return it->second;

  StripeInfo info;
  info.id = next_stripe_id_++;
  info.core_rack = core_rack;

  // §III-D: pick R' target racks for the stripe, always including the core
  // rack, uniformly at random otherwise.
  if (config_.target_racks > 0) {
    info.target_racks.push_back(core_rack);
    std::vector<RackId> others;
    for (RackId r = 0; r < topo_->rack_count(); ++r) {
      if (r != core_rack) others.push_back(r);
    }
    rng_.shuffle(others);
    others.resize(static_cast<size_t>(config_.target_racks - 1));
    info.target_racks.insert(info.target_racks.end(), others.begin(),
                             others.end());
  }
  return open_.emplace(core_rack, std::move(info)).first->second;
}

BlockPlacement EncodingAwareReplication::place_block(
    BlockId block, std::optional<NodeId> writer) {
  // The rack of the first replica becomes (or joins) the core rack (§III-A):
  // "for each data block to be written, the rack that stores the first
  // replica will become the core rack that includes the data block."
  NodeId first = writer.value_or(random_node(*topo_, rng_));
  const RackId core_rack = topo_->rack_of(first);
  StripeInfo& s = open_stripe_for_core_rack(core_rack);
  const std::vector<RackId>& targets = s.target_racks;

  // §III-C: draw the remaining replicas randomly, re-drawing until the flow
  // graph admits a full matching.  After kUniformRetries uniform draws,
  // direct the secondary rack at each eligible rack in turn.
  BlockPlacement placement;
  placement.block = block;

  std::vector<RackId> directed_racks;  // lazily built fallback order
  int attempt = 0;
  while (true) {
    ++attempt;
    // When the writer does not pin the first replica, re-drawing its node
    // within the core rack gives the layout loop another degree of freedom
    // (essential for r = 1, where there are no secondaries to re-draw).
    if (attempt > 1 && !writer.has_value()) {
      first = random_node_in_rack(*topo_, core_rack, rng_);
    }
    std::vector<NodeId> candidate;
    if (attempt <= kUniformRetries || config_.one_replica_per_rack) {
      candidate = draw_secondary_replicas(
          *topo_, config_, first, rng_, targets.empty() ? nullptr : &targets);
    } else {
      if (directed_racks.empty()) {
        for (const RackId r :
             targets.empty() ? [&] {
               std::vector<RackId> all;
               for (RackId r2 = 0; r2 < topo_->rack_count(); ++r2)
                 all.push_back(r2);
               return all;
             }()
                             : targets) {
          if (r != core_rack) directed_racks.push_back(r);
        }
        rng_.shuffle(directed_racks);
      }
      const size_t idx = static_cast<size_t>(attempt - kUniformRetries - 1);
      if (idx >= directed_racks.size()) {
        throw std::runtime_error(
            "EAR: no feasible replica layout exists for this configuration");
      }
      const RackId forced = directed_racks[idx];
      candidate.push_back(first);
      const auto picks = rng_.sample_without_replacement(
          static_cast<size_t>(topo_->rack_size(forced)),
          static_cast<size_t>(config_.replication - 1));
      for (const size_t off : picks) {
        candidate.push_back(topo_->rack_first_node(forced) +
                            static_cast<NodeId>(off));
      }
    }

    s.blocks.push_back(block);
    s.replicas.push_back(candidate);
    const int flow = ear_stripe_max_flow(*topo_, config_.c, s.replicas,
                                         targets, nullptr);
    if (flow == static_cast<int>(s.blocks.size())) {
      placement.replicas = std::move(candidate);
      break;
    }
    s.blocks.pop_back();
    s.replicas.pop_back();
    if (config_.one_replica_per_rack && attempt > kUniformRetries * 16) {
      throw std::runtime_error(
          "EAR: no feasible one-replica-per-rack layout found");
    }
  }

  placement.iterations = attempt;
  total_iterations_ += attempt;
  ++total_blocks_;

  finish_placement(core_rack, placement);
  return placement;
}

EncodePlan EncodingAwareReplication::plan_encoding(const StripeInfo& s) {
  require_sealed(s);
  const int k = config_.code.k;
  const int m = config_.code.m();
  const std::vector<RackId>& targets = s.target_racks;

  EncodePlan plan;
  plan.stripe = s.id;
  // The encoder runs inside the core rack (§III-A); all k first replicas
  // are placed there, so no data block crosses racks — unless a core-rack
  // copy was lost and re-made elsewhere before the stripe was encoded.
  plan.encoder = random_node_in_rack(*topo_, s.core_rack, rng_);
  plan.cross_rack_downloads =
      count_cross_rack_downloads(*topo_, plan.encoder, s.replicas);

  // Kept replicas come from the maximum matching (§III-B).  The placement
  // loop guaranteed the matching exists for stripes it assembled; a stripe
  // handed in from elsewhere (a checkpoint) may not have one.
  if (ear_stripe_max_flow(*topo_, config_.c, s.replicas, targets,
                          &plan.kept) != k) {
    throw std::runtime_error("EAR: stripe " + std::to_string(s.id) +
                             " has no feasible kept-replica matching");
  }

  std::vector<int> rack_load(static_cast<size_t>(topo_->rack_count()), 0);
  std::vector<bool> node_used(static_cast<size_t>(topo_->node_count()), false);
  for (const NodeId n : plan.kept) {
    ++rack_load[static_cast<size_t>(topo_->rack_of(n))];
    node_used[static_cast<size_t>(n)] = true;
  }

  // Locality post-pass (§III-D): when c > 1 the core rack can absorb parity
  // blocks, turning their uploads intra-rack.  Re-match blocks kept in the
  // core rack to alternative replicas in other eligible racks with spare
  // capacity, freeing core slots for up to m parity blocks.
  if (config_.c > 1) {
    const auto rack_eligible = [&](RackId r) {
      return targets.empty() ||
             std::find(targets.begin(), targets.end(), r) != targets.end();
    };
    int wanted_free = m;
    for (int i = 0; i < k && wanted_free > 0; ++i) {
      const NodeId kept = plan.kept[static_cast<size_t>(i)];
      if (topo_->rack_of(kept) != s.core_rack) continue;
      for (const NodeId alt : s.replicas[static_cast<size_t>(i)]) {
        const RackId alt_rack = topo_->rack_of(alt);
        if (alt == kept || alt_rack == s.core_rack) continue;
        if (!rack_eligible(alt_rack)) continue;
        if (node_used[static_cast<size_t>(alt)]) continue;
        if (rack_load[static_cast<size_t>(alt_rack)] >= config_.c) continue;
        // Move the kept replica out of the core rack.
        plan.kept[static_cast<size_t>(i)] = alt;
        node_used[static_cast<size_t>(kept)] = false;
        node_used[static_cast<size_t>(alt)] = true;
        --rack_load[static_cast<size_t>(s.core_rack)];
        ++rack_load[static_cast<size_t>(alt_rack)];
        --wanted_free;
        break;
      }
    }
  }

  // Deletion list reflects the (possibly adjusted) matching.
  for (int i = 0; i < k; ++i) {
    for (const NodeId n : s.replicas[static_cast<size_t>(i)]) {
      if (n != plan.kept[static_cast<size_t>(i)]) {
        plan.deletions.emplace_back(i, n);
      }
    }
  }

  // Parity blocks go to racks that still have fewer than c blocks of this
  // stripe, on nodes not already holding a stripe block (§III-B), preferring
  // the core rack so the upload stays intra-rack.
  std::vector<RackId> eligible =
      targets.empty()
          ? [&] {
              std::vector<RackId> all;
              for (RackId r = 0; r < topo_->rack_count(); ++r)
                all.push_back(r);
              return all;
            }()
          : targets;

  const RackId encoder_rack = topo_->rack_of(plan.encoder);
  for (int j = 0; j < m; ++j) {
    // Prefer the core rack (intra-rack upload) while it has spare capacity,
    // otherwise a random eligible rack with spare capacity and a free node.
    const auto rack_open = [&](RackId r) {
      if (rack_load[static_cast<size_t>(r)] >= config_.c) return false;
      for (const NodeId n : topo_->nodes_in_rack(r)) {
        if (!node_used[static_cast<size_t>(n)]) return true;
      }
      return false;
    };
    std::vector<RackId> open;
    if (rack_open(encoder_rack)) {
      open.push_back(encoder_rack);
    } else {
      for (const RackId r : eligible) {
        if (rack_open(r)) open.push_back(r);
      }
    }
    if (open.empty()) {
      throw std::runtime_error("EAR: no rack left for a parity block");
    }
    const RackId rack = open[rng_.index(open.size())];
    std::vector<NodeId> free;
    for (const NodeId n : topo_->nodes_in_rack(rack)) {
      if (!node_used[static_cast<size_t>(n)]) free.push_back(n);
    }
    const NodeId node = free[rng_.index(free.size())];
    node_used[static_cast<size_t>(node)] = true;
    ++rack_load[static_cast<size_t>(rack)];
    plan.parity.push_back(node);
    if (rack != encoder_rack) ++plan.cross_rack_parity_uploads;
  }
  return plan;
}

std::unique_ptr<PlacementPolicy> make_encoding_aware_replication(
    const Topology& topo, const PlacementConfig& config, uint64_t seed) {
  return std::make_unique<EncodingAwareReplication>(topo, config, seed);
}

}  // namespace ear
