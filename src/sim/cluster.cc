#include "sim/cluster.h"

#include <algorithm>
#include <cassert>

#include "ecdag/dag.h"
#include "erasure/matrix.h"
#include "obs/trace.h"
#include "placement/ear.h"
#include "placement/monitor.h"
#include "placement/replica_layout.h"

namespace ear::sim {

namespace {
// Virtual-time trace tracks: flow lanes occupy the low tids, encode
// processes get their own rows starting here.
constexpr int kEncodeTrackBase = 100;

int encode_track(int proc_id) { return kEncodeTrackBase + proc_id; }
}  // namespace

// One of the `encode_processes` parallel encoding workers.  Each worker
// pulls the next un-encoded stripe from the shared queue and simulates the
// three-step encoding operation of §II-A: download k data blocks, upload
// n - k parity blocks, delete redundant replicas (free).
struct ClusterSim::EncodeProcess {
  int id = 0;
  size_t stripe_index = 0;  // index into stripes_/plans_ being worked on
  int pending_transfers = 0;
  enum class Phase { kIdle, kDownload, kUpload, kRelocate } phase = Phase::kIdle;
  Seconds phase_start = 0;  // virtual time the current phase began (tracing)
};

ClusterSim::ClusterSim(const SimConfig& config)
    : config_(config),
      topo_(config.racks, config.nodes_per_rack),
      engine_(),
      network_(engine_, topo_, config.net),
      policy_(config.use_ear
                  ? make_encoding_aware_replication(topo_, config.placement,
                                                    config.seed)
                  : make_random_replication(topo_, config.placement,
                                            config.seed)),
      rng_(config.seed ^ 0x9e3779b97f4a7c15ULL) {}

ClusterSim::~ClusterSim() = default;

SimResult ClusterSim::run() {
  // ---- Pre-place the stripes to be encoded (they were written long before
  // the simulated window; their write traffic is not part of the run).
  const int target_stripes =
      config_.encode_processes * config_.stripes_per_process;
  while (static_cast<int>(stripes_.size()) < target_stripes) {
    const NodeId writer = random_node(topo_, rng_);
    BlockPlacement placement = policy_->place_block(next_block_id_++, writer);
    if (placement.sealed) stripes_.push_back(std::move(*placement.sealed));
  }
  plans_.reserve(stripes_.size());
  for (const StripeInfo& stripe : stripes_) {
    plans_.push_back(policy_->plan_encoding(stripe));
  }

  // ---- Traffic generators.
  if (config_.write_rate > 0) schedule_next_write();
  if (config_.background_rate > 0) schedule_next_background();

  // ---- Encoding fleet starts at encode_start.
  engine_.schedule_at(config_.encode_start, [this] {
    result_.encode_begin = engine_.now();
    for (int p = 0; p < config_.encode_processes; ++p) {
      auto proc = std::make_unique<EncodeProcess>();
      proc->id = p;
      if (obs::trace_enabled()) {
        obs::set_sim_track_name(encode_track(p),
                                "encode-proc-" + std::to_string(p));
      }
      processes_.push_back(std::move(proc));
    }
    processes_running_ = config_.encode_processes;
    for (auto& proc : processes_) start_stripe(*proc);
  });

  engine_.run();

  // ---- Final metrics.
  result_.stripes_encoded = static_cast<int>(stripes_.size());
  const Seconds encode_time = result_.encode_end - result_.encode_begin;
  if (encode_time > 0) {
    const double encoded_mb =
        to_mb(config_.block_size) * config_.placement.code.k *
        static_cast<double>(stripes_.size());
    result_.encode_throughput_mbps = encoded_mb / encode_time;
    result_.write_throughput_mbps /= encode_time;  // accumulated MB -> MB/s
  }
  result_.cross_rack_bytes = network_.cross_rack_bytes();
  result_.intra_rack_bytes = network_.intra_rack_bytes();
  if (const auto* ear_policy =
          dynamic_cast<const EncodingAwareReplication*>(policy_.get())) {
    result_.mean_layout_iterations =
        static_cast<double>(ear_policy->total_layout_iterations()) /
        static_cast<double>(ear_policy->total_blocks_placed());
  }
  return result_;
}

// --------------------------------------------------------------- writes

void ClusterSim::schedule_next_write() {
  engine_.schedule_in(rng_.exponential(1.0 / config_.write_rate),
                      [this] { generate_write(); });
}

void ClusterSim::generate_write() {
  if (generators_stopped_) return;
  schedule_next_write();

  const NodeId writer = random_node(topo_, rng_);
  const BlockPlacement placement =
      policy_->place_block(next_block_id_++, writer);
  const Seconds issued = engine_.now();

  // HDFS write pipeline: writer -> replica2 -> replica3 -> ...  The hops
  // stream concurrently; the request completes when every hop has delivered
  // the full block.
  const auto& replicas = placement.replicas;
  const int hops = static_cast<int>(replicas.size()) - 1;
  auto complete = [this, issued] {
    const Seconds response = engine_.now() - issued;
    ++result_.writes_completed;
    if (issued < config_.encode_start) {
      result_.write_response_before.add(response);
    } else {
      result_.write_response_during.add(response);
    }
    if (engine_.now() >= config_.encode_start && !encoding_done_) {
      // Accumulate MB completed during the encoding window; converted to
      // MB/s at the end of run().
      result_.write_throughput_mbps += to_mb(config_.block_size);
    }
  };
  if (hops <= 0) {
    engine_.schedule_in(0.0, complete);
    return;
  }
  auto remaining = std::make_shared<int>(hops);
  for (int h = 0; h < hops; ++h) {
    network_.start_transfer(replicas[static_cast<size_t>(h)],
                            replicas[static_cast<size_t>(h + 1)],
                            config_.block_size, [remaining, complete] {
                              if (--*remaining == 0) complete();
                            });
  }
}

// ----------------------------------------------------------- background

void ClusterSim::schedule_next_background() {
  engine_.schedule_in(rng_.exponential(1.0 / config_.background_rate),
                      [this] { generate_background(); });
}

void ClusterSim::generate_background() {
  if (generators_stopped_) return;
  schedule_next_background();

  const NodeId src = random_node(topo_, rng_);
  NodeId dst;
  if (rng_.bernoulli(config_.background_cross_fraction)) {
    do {
      dst = random_node(topo_, rng_);
    } while (topo_.same_rack(src, dst));
  } else {
    do {
      dst = random_node_in_rack(topo_, topo_.rack_of(src), rng_);
    } while (dst == src && topo_.rack_size(topo_.rack_of(src)) > 1);
  }
  const auto size = static_cast<Bytes>(std::max(
      1.0, rng_.exponential(static_cast<double>(config_.background_mean_size))));
  network_.start_transfer(src, dst, size, [] {});
}

// -------------------------------------------------------------- encoding

void ClusterSim::start_stripe(EncodeProcess& proc) {
  if (next_stripe_index_ >= stripes_.size()) {
    proc.phase = EncodeProcess::Phase::kIdle;
    if (--processes_running_ == 0) on_all_encoding_done();
    return;
  }
  proc.stripe_index = next_stripe_index_++;
  proc.phase = EncodeProcess::Phase::kDownload;
  proc.phase_start = engine_.now();

  const StripeInfo& stripe = stripes_[proc.stripe_index];
  const EncodePlan& plan = plans_[proc.stripe_index];

  // Step (i): download one replica of each of the k data blocks, preferring
  // a local copy, then a same-rack copy, then any replica.
  proc.pending_transfers = 0;
  const RackId encoder_rack = topo_.rack_of(plan.encoder);
  std::vector<NodeId> sources;
  sources.reserve(stripe.replicas.size());
  for (const auto& replicas : stripe.replicas) {
    NodeId src = kInvalidNode;
    for (const NodeId r : replicas) {
      if (r == plan.encoder) {
        src = r;
        break;
      }
    }
    if (src == kInvalidNode) {
      std::vector<NodeId> same_rack;
      for (const NodeId r : replicas) {
        if (topo_.rack_of(r) == encoder_rack) same_rack.push_back(r);
      }
      if (!same_rack.empty()) {
        src = same_rack[rng_.index(same_rack.size())];
      } else {
        src = replicas[rng_.index(replicas.size())];
        ++result_.encoding_cross_rack_downloads;
      }
    }
    sources.push_back(src);
  }

  if (config_.ecdag_enable) {
    start_stripe_ecdag(proc, sources);
    return;
  }
  if (config_.encode_pipeline_chunks > 1) {
    start_stripe_pipelined(proc, sources);
    return;
  }

  for (const NodeId src : sources) {
    ++proc.pending_transfers;
    auto on_done = [this, &proc] {
      if (--proc.pending_transfers == 0) finish_stripe(proc);
    };
    if (src == plan.encoder) {
      // Local read: charged to the node's disk (free unless disk_bw set).
      network_.start_disk_read(src, config_.block_size, std::move(on_done));
    } else {
      network_.start_transfer(src, plan.encoder, config_.block_size,
                              std::move(on_done));
    }
  }
  if (proc.pending_transfers == 0) {
    engine_.schedule_in(0.0, [this, &proc] { finish_stripe(proc); });
  }
}

// Distributed-encode gather: the same rack-aware partial-sum tree the
// testbed executor runs (src/ecdag/), modelled at whole-block granularity.
// The simulator moves no real bytes, so the coefficient structure is all it
// needs: RS parity rows are dense (every coefficient nonzero), which an
// all-ones m x k matrix reproduces — every rack with more data blocks than
// parity outputs aggregates.  Each remote rack's gather runs as a two-level
// flow: the leaf -> aggregator transfers in parallel, then the
// aggregator -> encoder partials (one per parity) in parallel.  The real
// executor pipelines these per chunk; the two-level barrier here is the
// conservative store-and-forward approximation.
void ClusterSim::start_stripe_ecdag(EncodeProcess& proc,
                                    const std::vector<NodeId>& sources) {
  const EncodePlan& plan = plans_[proc.stripe_index];
  const int k = static_cast<int>(sources.size());
  const int m = config_.placement.code.n - config_.placement.code.k;
  erasure::Matrix dense(m, k);
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i < k; ++i) dense.at(j, i) = 1;
  }
  const ecdag::EcDag dag = ecdag::build_aggregation_dag(
      dense, sources, plan.parity, plan.encoder, topo_);
  const ecdag::FlowPlan flows = ecdag::plan_flows(dag, topo_);

  proc.pending_transfers = static_cast<int>(flows.streams.size()) +
                           static_cast<int>(flows.local_inputs.size());
  auto stream_done = [this, &proc] {
    if (--proc.pending_transfers == 0) finish_stripe(proc);
  };
  for (const int input : flows.local_inputs) {
    // Consumed where it lives: charged to the node's disk, like the legacy
    // encoder-local read.
    network_.start_disk_read(sources[static_cast<size_t>(input)],
                             config_.block_size, stream_done);
  }
  for (const auto& stream : flows.streams) {
    auto level1 = std::make_shared<std::vector<ecdag::Hop>>();
    auto level2 = std::make_shared<std::vector<ecdag::Hop>>();
    for (const ecdag::Hop& hop : stream) {
      (hop.dst == plan.encoder ? level2 : level1)->push_back(hop);
    }
    auto run_level = [this](const std::vector<ecdag::Hop>& hops,
                            std::function<void()> done) {
      if (hops.empty()) {
        done();
        return;
      }
      auto remaining = std::make_shared<int>(static_cast<int>(hops.size()));
      for (const ecdag::Hop& hop : hops) {
        network_.start_transfer(hop.src, hop.dst, config_.block_size,
                                [remaining, done] {
                                  if (--*remaining == 0) done();
                                });
      }
    };
    run_level(*level1, [run_level, level2, stream_done] {
      run_level(*level2, stream_done);
    });
  }
  if (proc.pending_transfers == 0) {
    engine_.schedule_in(0.0, [this, &proc] { finish_stripe(proc); });
  }
}

// Chunk-pipelined encode (SimConfig::encode_pipeline_chunks > 1): the
// testbed's staged fetch -> compute -> upload ladder at chunk granularity.
// Stage rules mirror datapath::StagedPipeline: downloads run serially per
// chunk (one fetch lane), compute consumes downloaded chunks in order, and
// parity uploads trail compute in order — so chunk c + 1's download overlaps
// chunk c's compute and chunk c - 1's upload, and a stripe costs roughly
// max(download, compute, upload) instead of their sum.  Per-chunk compute is
// encode_compute_seconds / chunks.  The virtual clock, not threads, provides
// the overlap; at chunks == 1 callers take the legacy serial branch instead.
void ClusterSim::start_stripe_pipelined(EncodeProcess& proc,
                                        const std::vector<NodeId>& sources) {
  const EncodePlan& plan = plans_[proc.stripe_index];
  const int chunks = config_.encode_pipeline_chunks;
  const Seconds compute_per_chunk =
      config_.encode_compute_seconds / static_cast<double>(chunks);

  struct State {
    int chunks = 0;
    int downloaded = 0;
    int computed = 0;
    int uploaded = 0;
    bool computing = false;
    bool uploading = false;
    Seconds download_begin = 0;
    Seconds upload_begin = -1;
    std::function<void(int)> start_download;
    std::function<void()> maybe_compute;
    std::function<void()> maybe_upload;
  };
  auto st = std::make_shared<State>();
  st->chunks = chunks;
  st->download_begin = engine_.now();

  const Bytes base = config_.block_size / chunks;
  const Bytes rem = config_.block_size % chunks;
  auto chunk_len = [base, rem](int c) {
    return base + (static_cast<Bytes>(c) < rem ? 1 : 0);
  };

  st->start_download = [this, st, &proc, sources, &plan, chunk_len](int c) {
    // One completion per source plus a sentinel so `done` fires exactly once
    // even when every source is the encoder itself (all disk reads free).
    auto pending = std::make_shared<int>(1);
    auto done = [this, st, &proc, c, pending] {
      if (--*pending != 0) return;
      st->downloaded = c + 1;
      if (c + 1 < st->chunks) {
        st->start_download(c + 1);
      } else if (obs::trace_enabled()) {
        obs::sim_complete("sim.encode.download", "sim.encode",
                          st->download_begin, engine_.now(),
                          encode_track(proc.id),
                          {{"stripe", stripes_[proc.stripe_index].id}});
      }
      st->maybe_compute();
    };
    const Bytes len = chunk_len(c);
    for (const NodeId src : sources) {
      ++*pending;
      if (src == plan.encoder) {
        network_.start_disk_read(src, len, done);
      } else {
        network_.start_transfer(src, plan.encoder, len, done);
      }
    }
    engine_.schedule_in(0.0, done);  // release the sentinel
  };

  st->maybe_compute = [this, st, compute_per_chunk] {
    if (st->computing || st->computed >= st->downloaded) return;
    st->computing = true;
    engine_.schedule_in(compute_per_chunk, [st] {
      st->computing = false;
      ++st->computed;
      st->maybe_compute();
      st->maybe_upload();
    });
  };

  st->maybe_upload = [this, st, &proc, &plan, chunk_len] {
    if (st->uploading || st->uploaded >= st->computed) return;
    st->uploading = true;
    if (st->upload_begin < 0) st->upload_begin = engine_.now();
    const int c = st->uploaded;
    auto pending = std::make_shared<int>(1);
    auto done = [this, st, &proc, pending] {
      if (--*pending != 0) return;
      st->uploading = false;
      ++st->uploaded;
      if (st->uploaded < st->chunks) {
        st->maybe_upload();
        return;
      }
      // Whole stripe pipelined through.  Hand the tail (relocation ablation,
      // completion bookkeeping, next stripe) to finish_stripe's kUpload arm,
      // and break the State's self-referential std::function cycle so the
      // shared_ptr can actually free it.
      proc.phase = EncodeProcess::Phase::kUpload;
      proc.phase_start = st->upload_begin;
      st->start_download = nullptr;
      st->maybe_compute = nullptr;
      st->maybe_upload = nullptr;
      finish_stripe(proc);
    };
    for (const NodeId dst : plan.parity) {
      if (dst == plan.encoder) continue;
      ++*pending;
      network_.start_transfer(plan.encoder, dst, chunk_len(c), done);
    }
    engine_.schedule_in(0.0, done);  // release the sentinel
  };

  st->start_download(0);
}

void ClusterSim::finish_stripe(EncodeProcess& proc) {
  const EncodePlan& plan = plans_[proc.stripe_index];

  if (proc.phase == EncodeProcess::Phase::kDownload) {
    if (obs::trace_enabled()) {
      const int64_t stripe = stripes_[proc.stripe_index].id;
      obs::sim_complete("sim.encode.download", "sim.encode", proc.phase_start,
                        engine_.now(), encode_track(proc.id),
                        {{"stripe", stripe}});
      // Compute duration is a fixed model parameter, so its span can be
      // emitted at dispatch time.
      obs::sim_complete("sim.encode.compute", "sim.encode", engine_.now(),
                        engine_.now() + config_.encode_compute_seconds,
                        encode_track(proc.id), {{"stripe", stripe}});
    }
    // Step (ii): parity computation, then upload of the n - k parity
    // blocks.
    proc.phase = EncodeProcess::Phase::kUpload;
    auto begin_uploads = [this, &proc, &plan] {
      proc.phase_start = engine_.now();
      proc.pending_transfers = 0;
      for (const NodeId dst : plan.parity) {
        if (dst == plan.encoder) continue;
        ++proc.pending_transfers;
        network_.start_transfer(plan.encoder, dst, config_.block_size,
                                [this, &proc] {
                                  if (--proc.pending_transfers == 0) {
                                    finish_stripe(proc);
                                  }
                                });
      }
      if (proc.pending_transfers == 0) {
        engine_.schedule_in(0.0, [this, &proc] { finish_stripe(proc); });
      }
    };
    engine_.schedule_in(config_.encode_compute_seconds, begin_uploads);
    return;
  }

  if (proc.phase == EncodeProcess::Phase::kUpload && obs::trace_enabled()) {
    obs::sim_complete("sim.encode.upload", "sim.encode", proc.phase_start,
                      engine_.now(), encode_track(proc.id),
                      {{"stripe", stripes_[proc.stripe_index].id}});
  }

  if (proc.phase == EncodeProcess::Phase::kUpload &&
      config_.simulate_relocation) {
    // Ablation: PlacementMonitor check + BlockMover traffic (RR pays; EAR's
    // layouts comply by construction so the plan is empty).
    StripeLayout layout;
    layout.nodes = plan.kept;
    layout.nodes.insert(layout.nodes.end(), plan.parity.begin(),
                        plan.parity.end());
    const PlacementMonitor monitor(topo_, config_.placement.code);
    const auto moves = monitor.plan_relocations(layout, config_.placement.c);
    if (!moves.empty()) {
      proc.phase = EncodeProcess::Phase::kRelocate;
      proc.phase_start = engine_.now();
      proc.pending_transfers = static_cast<int>(moves.size());
      result_.relocations += static_cast<int64_t>(moves.size());
      result_.relocation_bytes +=
          static_cast<int64_t>(moves.size()) * config_.block_size;
      for (const auto& mv : moves) {
        network_.start_transfer(mv.from, mv.to, config_.block_size,
                                [this, &proc] {
                                  if (--proc.pending_transfers == 0) {
                                    finish_stripe(proc);
                                  }
                                });
      }
      return;
    }
  }

  if (proc.phase == EncodeProcess::Phase::kRelocate && obs::trace_enabled()) {
    obs::sim_complete("sim.encode.relocate", "sim.encode", proc.phase_start,
                      engine_.now(), encode_track(proc.id),
                      {{"stripe", stripes_[proc.stripe_index].id}});
  }

  // Step (iii): replica deletion is metadata-only.  Record completion.
  result_.stripe_completions.emplace_back(
      engine_.now(),
      static_cast<int>(result_.stripe_completions.size()) + 1);
  start_stripe(proc);
}

void ClusterSim::on_all_encoding_done() {
  encoding_done_ = true;
  generators_stopped_ = true;
  result_.encode_end = engine_.now();
  if (config_.repair_drill_blocks > 0) run_repair_drill();
}

// Post-encode repair drill: replay `repair_drill_blocks` single-block
// repairs through the network, each moving exactly what the codec's
// cheapest RepairPlan names per helper — not the hardcoded k-full-blocks
// model the simulator used to assume for every family.  The drill runs
// after encode_end, so encode throughput numbers are unaffected; drill
// traffic does land in the cross/intra-rack byte totals.
void ClusterSim::run_repair_drill() {
  const int n = config_.placement.code.n;
  const int k = config_.placement.code.k;
  const auto codec = erasure::make_codec(config_.codec_family, n, k);
  const Seconds drill_begin = engine_.now();
  auto remaining = std::make_shared<int>(0);
  auto transfer_done = [this, remaining, drill_begin] {
    if (--*remaining == 0) {
      result_.repair_drill_seconds = engine_.now() - drill_begin;
    }
  };

  for (int d = 0; d < config_.repair_drill_blocks; ++d) {
    const EncodePlan& plan = plans_[rng_.index(plans_.size())];
    // Post-encode stripe layout: kept data nodes then parity nodes, in
    // stripe position order.
    std::vector<NodeId> layout = plan.kept;
    layout.insert(layout.end(), plan.parity.begin(), plan.parity.end());
    const int lost = static_cast<int>(rng_.index(layout.size()));
    std::vector<int> helpers;
    for (int pos = 0; pos < static_cast<int>(layout.size()); ++pos) {
      if (pos != lost) helpers.push_back(pos);
    }
    // Rebuild destination: any node not already holding a stripe block.
    NodeId dst = random_node(topo_, rng_);
    while (std::find(layout.begin(), layout.end(), dst) != layout.end()) {
      dst = random_node(topo_, rng_);
    }

    erasure::RepairPlan rp;
    if (codec->plan_repair(lost, helpers, &rp)) {
      for (const erasure::RepairSource& src : rp.sources) {
        const Bytes bytes = src.bytes(config_.block_size, rp.alpha);
        ++*remaining;
        result_.repair_bytes += static_cast<int64_t>(bytes);
        network_.start_transfer(layout[static_cast<size_t>(src.id)], dst,
                                bytes, transfer_done);
      }
    } else {
      // No schedule-driven plan (packet codes, degenerate patterns): the
      // whole-stripe decode ships k full blocks.
      for (int h = 0; h < k; ++h) {
        ++*remaining;
        result_.repair_bytes += static_cast<int64_t>(config_.block_size);
        network_.start_transfer(
            layout[static_cast<size_t>(helpers[static_cast<size_t>(h)])], dst,
            config_.block_size, transfer_done);
      }
    }
    ++result_.repairs_simulated;
  }
}

}  // namespace ear::sim
