// Per-layer metrics of the traced run, each timed around a public call from
// outside the program or read from an existing counter, span or gauge.
#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "bench.h"
#include "cfs/checkpoint.h"
#include "cfs/raidnode.h"
#include "datapath/block_buffer.h"
#include "datapath/pipeline.h"
#include "datapath/worker_pool.h"
#include "erasure/codec.h"
#include "failure/repair.h"
#include "gf256/kernel.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "placement/policy.h"
#include "store/mem_store.h"
#include "workloads.h"

namespace lcb {

namespace {

using ear::cfs::MiniCfs;

// Runs `body` repeatedly for `seconds` (at least `min_iters`, at most
// `max_iters` times) and returns the per-call times in microseconds.
template <typename Fn>
std::vector<double> time_calls(double seconds, int min_iters, int max_iters,
                               Fn&& body) {
  std::vector<double> us;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (int i = 0; i < max_iters && (i < min_iters || Clock::now() < end);
       ++i) {
    const auto t0 = Clock::now();
    body(i);
    us.push_back(us_between(t0, Clock::now()));
  }
  return us;
}

// Throughput in GB/s of calls that each process `bytes`, from their times.
double gbps(double bytes, const std::vector<double>& us) {
  double total_us = 0;
  for (const double x : us) total_us += x;
  return bytes * static_cast<double>(us.size()) / (total_us * 1e3);
}

// The quiet single-client pass: one call at a time, so process-wide
// getrusage deltas belong to the call they bracket.
void quiet_pass(const Options& opt, const ProbeSpec& spec, Result& result) {
  const Bytes block = spec.block;
  const int blocks = spec.stripes * kK;
  const Payloads payloads(derive_seed(opt.seed, 21, 0),
                          static_cast<size_t>(blocks), block);
  const auto writers =
      stripe_filling_writers(derive_seed(opt.seed, 22, 0), spec.stripes);
  InputRng rng(derive_seed(opt.seed, 23, 0));
  const ear::Topology topo(kRacks, kNodesPerRack);
  const ear::cfs::CfsConfig cfg = cluster_config(block);
  MiniCfs cfs(cfg, spec.transport(topo));
  ear::cfs::Transport& net = cfs.transport();

  // write_block: CPU, switches, cross-rack bytes, metadata heap per block.
  // Tracing pauses here: the recorder's own buffers would count as heap.
  std::vector<BlockId> ids(static_cast<size_t>(blocks));
  double cpu = 0;
  int64_t ctx = 0;
  const ear::obs::Config traced = ear::obs::config();
  ear::obs::shutdown();
  const int64_t heap0 = heap_in_use();
  const int64_t x0 = net.cross_rack_bytes();
  for (int i = 0; i < blocks; ++i) {
    const Usage u0 = usage_now();
    ids[static_cast<size_t>(i)] = cfs.write_block(
        payloads.at(static_cast<size_t>(i)), writers[static_cast<size_t>(i)]);
    const Usage u1 = usage_now();
    cpu += u1.cpu_us - u0.cpu_us;
    ctx += u1.ctx_switches - u0.ctx_switches;
  }
  const int64_t heap1 = heap_in_use();
  ear::obs::init(traced);
  std::unordered_map<BlockId, size_t> payload_of;
  for (int i = 0; i < blocks; ++i) {
    payload_of[ids[static_cast<size_t>(i)]] = static_cast<size_t>(i);
  }
  const double user = static_cast<double>(blocks) * static_cast<double>(block);
  result.layer("cfs.write_cpu_us", cpu / blocks, "us");
  result.layer("cfs.write_ctx_switches", static_cast<double>(ctx) / blocks,
               "count");
  result.layer("cfs.metadata_bytes_per_block",
               (static_cast<double>(heap1 - heap0) - user) / blocks, "B");
  result.layer("transport.write_cross_rack_bytes_per_byte",
               static_cast<double>(net.cross_rack_bytes() - x0) / user, "B/B");

  // NameNode lookups on the populated namespace
  const std::vector<BlockId> all = cfs.all_blocks();
  bool found = true;
  result.layer("cfs.block_locations_us",
               median(time_calls(0.05, 200, 20000, [&](int i) {
                 ear::obs::Span span("bench.block_locations", "bench");
                 found &= !cfs.block_locations(
                               all[static_cast<size_t>(i) % all.size()])
                               .empty();
               })),
               "us");
  result.check(found, "block_locations finds every block");
  bool whole = true;
  result.layer("cfs.namespace_snapshot_ms",
               median(time_calls(0.05, 5, 200, [&](int) {
                 ear::obs::Span span("bench.namespace_snapshot", "bench");
                 whole &= cfs.namespace_snapshot().blocks.size() == all.size();
               })) / 1e3,
               "ms");
  result.check(whole, "namespace snapshot holds every block");

  // encode_stripe single-threaded vs the codec alone on the same stripe;
  // then a RaidNode job over the other stripes with getrusage around it.
  std::vector<StripeId> sealed = cfs.sealed_stripes();
  std::sort(sealed.begin(), sealed.end());
  const size_t half = std::max<size_t>(1, sealed.size() / 2);
  const auto codec = ear::erasure::make_codec(ear::erasure::CodecFamily::kRS,
                                              kN, kK);
  std::vector<uint8_t> parity(static_cast<size_t>((kN - kK) * block));
  std::vector<ear::erasure::MutBlockView> parity_views;
  for (int j = 0; j < kN - kK; ++j) {
    parity_views.emplace_back(parity.data() + static_cast<size_t>(j * block),
                              static_cast<size_t>(block));
  }
  std::vector<double> stripe_us, codec_us;
  for (size_t s = 0; s < half && s < sealed.size(); ++s) {
    std::vector<ear::erasure::BlockView> data;
    for (const BlockId b : cfs.stripe_meta(sealed[s]).data_blocks) {
      data.push_back(payloads.at(payload_of.at(b)));
    }
    const auto t0 = Clock::now();
    {
      ear::obs::Span span("bench.encode_stripe", "bench");
      cfs.encode_stripe(sealed[s]);
    }
    const auto t1 = Clock::now();
    {
      ear::obs::Span span("bench.codec_encode", "bench");
      codec->encode(data, parity_views);
    }
    const auto t2 = Clock::now();
    stripe_us.push_back(us_between(t0, t1));
    codec_us.push_back(us_between(t1, t2));
  }
  result.layer("cfs.encode_stripe_us", median(stripe_us), "us");
  result.layer("cfs.encode_overhead_ratio",
               median(stripe_us) / std::max(1e-3, median(codec_us)), "ratio");
  std::vector<StripeId> rest(sealed.begin() + static_cast<std::ptrdiff_t>(half),
                             sealed.end());
  if (!rest.empty()) {
    const Usage u0 = usage_now();
    ear::cfs::EncodeReport rep;
    {
      ear::obs::Span span("bench.encode_stripes", "bench");
      rep = ear::cfs::RaidNode(cfs, spec.slots).encode_stripes(rest);
    }
    const Usage u1 = usage_now();
    result.check(rep.failed.empty(), "probe conversion succeeds");
    const double n = static_cast<double>(rest.size());
    result.layer("raid.convert_cpu_us_per_stripe", (u1.cpu_us - u0.cpu_us) / n,
                 "us");
    result.layer("raid.convert_ctx_switches_per_stripe",
                 static_cast<double>(u1.ctx_switches - u0.ctx_switches) / n,
                 "count");
  }

  // degraded reads and repair after a rack failure
  const RackLoss loss = worst_rack(cfs, sealed);
  if (result.check(!loss.lost_data_blocks.empty(),
                   "probe rack failure loses data blocks")) {
    cfs.kill_rack(loss.rack);
    cpu = 0;
    ctx = 0;
    const int64_t d0 = net.cross_rack_bytes();
    for (int d = 0; d < spec.degraded_reads; ++d) {
      const BlockId b =
          loss.lost_data_blocks[rng.below(loss.lost_data_blocks.size())];
      const NodeId reader = random_live_node(cfs, rng);
      const Usage u0 = usage_now();
      ear::datapath::BlockBuffer got;
      {
        ear::obs::Span span("bench.degraded_read", "bench");
        got = cfs.read_block(b, reader);
      }
      const Usage u1 = usage_now();
      cpu += u1.cpu_us - u0.cpu_us;
      ctx += u1.ctx_switches - u0.ctx_switches;
      result.check(got == payloads.at(payload_of.at(b)),
                   "probe degraded read returns the payload");
    }
    const double reads = spec.degraded_reads;
    result.layer("cfs.degraded_read_cpu_us", cpu / reads, "us");
    result.layer("cfs.degraded_read_ctx_switches",
                 static_cast<double>(ctx) / reads, "count");
    result.layer("transport.degraded_cross_rack_bytes_per_byte",
                 static_cast<double>(net.cross_rack_bytes() - d0) /
                     (reads * static_cast<double>(block)),
                 "B/B");

    ear::failure::RepairManager repair(cfs, ear::failure::RepairConfig{});
    repair.schedule_rack(loss.rack);
    const Usage u0 = usage_now();
    ear::failure::RepairManager::Report rep;
    {
      ear::obs::Span span("bench.repair_drain", "bench");
      rep = repair.drain();
    }
    const Usage u1 = usage_now();
    const int64_t rebuilt = rep.repaired + rep.re_replicated;
    result.check(rep.unrecoverable == 0 && rebuilt > 0,
                 "probe repair rebuilds the lost blocks");
    result.layer("repair.cpu_us_per_block",
                 rebuilt > 0 ? (u1.cpu_us - u0.cpu_us) /
                                   static_cast<double>(rebuilt)
                             : 0,
                 "us");
  }

  // checkpoint save / load of the probe cluster
  std::vector<double> save_ms, load_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    std::vector<uint8_t> image;
    {
      ear::obs::Span span("bench.checkpoint_save", "bench");
      image = ear::cfs::save_checkpoint(cfs);
    }
    const auto t1 = Clock::now();
    std::unique_ptr<MiniCfs> restored;
    {
      ear::obs::Span span("bench.checkpoint_load", "bench");
      restored = ear::cfs::load_checkpoint(
          image, std::make_unique<ear::cfs::InstantTransport>(topo));
    }
    const auto t2 = Clock::now();
    save_ms.push_back(us_between(t0, t1) / 1e3);
    load_ms.push_back(us_between(t1, t2) / 1e3);
  }
  result.layer("cfs.checkpoint_save_ms", median(save_ms), "ms");
  result.layer("cfs.checkpoint_load_ms", median(load_ms), "ms");

  // placement: a twin EAR policy fed the same writer sequence
  const auto twin = ear::make_encoding_aware_replication(topo, cfg.placement,
                                                        cfg.seed);
  std::vector<double> place_us;
  for (int i = 0; i < blocks; ++i) {
    const auto t0 = Clock::now();
    {
      ear::obs::Span span("bench.place_block", "bench");
      twin->place_block(i, writers[static_cast<size_t>(i)]);
    }
    place_us.push_back(us_between(t0, Clock::now()));
  }
  result.layer("placement.place_block_us", median(place_us), "us");
}

// Layer micro-probes at the workload's block size.
void micro_probes(const Options& opt, const ProbeSpec& spec, Result& result) {
  const Bytes block = spec.block;
  const double slice = spec.seconds / 8;
  const Payloads payloads(derive_seed(opt.seed, 24, 0), kN, block);
  const size_t len = static_cast<size_t>(block);

  // GF(2^8) multi-source multiply-accumulate: k sources into one output
  const auto& kernel = ear::gf::kernel();
  result.note(std::string("GF kernel: ") + kernel.name);
  std::vector<const uint8_t*> srcs;
  std::vector<uint8_t> coeffs;
  for (int i = 0; i < kK; ++i) {
    srcs.push_back(payloads.at(static_cast<size_t>(i)).data());
    coeffs.push_back(static_cast<uint8_t>(i + 2));
  }
  std::vector<uint8_t> dst(len);
  {
    ear::obs::Span span("bench.gf_mul_add_multi", "bench");
    const auto us = time_calls(slice, 10, 1 << 20, [&](int) {
      kernel.mul_add_multi(dst.data(), srcs.data(), coeffs.data(), srcs.size(),
                           len, false);
    });
    result.layer("gf256.mul_add_multi_GBps",
                 gbps(kK * static_cast<double>(len), us), "GB/s");
  }

  // codec encode / reconstruct on one stripe of payloads
  const auto codec =
      ear::erasure::make_codec(ear::erasure::CodecFamily::kRS, kN, kK);
  std::vector<uint8_t> parity(static_cast<size_t>(kN - kK) * len);
  std::vector<ear::erasure::BlockView> data;
  std::vector<ear::erasure::MutBlockView> parity_views;
  for (int i = 0; i < kK; ++i) {
    data.push_back(payloads.at(static_cast<size_t>(i)));
  }
  for (int j = 0; j < kN - kK; ++j) {
    parity_views.emplace_back(parity.data() + static_cast<size_t>(j) * len,
                              len);
  }
  {
    ear::obs::Span span("bench.codec_encode", "bench");
    const auto us = time_calls(slice, 10, 1 << 20,
                               [&](int) { codec->encode(data, parity_views); });
    result.layer("erasure.encode_GBps", gbps(kK * static_cast<double>(len), us),
                 "GB/s");
  }
  {
    // lose data block 0; rebuild it from data 1..k-1 and parity 0
    std::vector<int> ids;
    std::vector<ear::erasure::BlockView> avail;
    for (int i = 1; i < kK; ++i) {
      ids.push_back(i);
      avail.push_back(data[static_cast<size_t>(i)]);
    }
    ids.push_back(kK);
    avail.emplace_back(parity.data(), len);
    std::vector<uint8_t> out(len);
    ear::obs::Span span("bench.codec_reconstruct", "bench");
    const auto us = time_calls(slice, 10, 1 << 20, [&](int) {
      codec->reconstruct(ids, avail, {0}, {ear::erasure::MutBlockView(out)});
    });
    result.check(std::equal(out.begin(), out.end(), data[0].begin()),
                 "codec reconstruct rebuilds the lost block");
    result.layer("erasure.reconstruct_GBps",
                 gbps(kK * static_cast<double>(len), us), "GB/s");
  }

  // staged pipeline hand-off cost with instant stages
  const auto noop1 = [](int) {};
  const auto noop2 = [](int, int) {};
  result.layer("datapath.pipeline_run_us",
               median(time_calls(slice, 50, 5000, [&](int) {
                 ear::obs::Span span("bench.pipeline_run", "bench");
                 ear::datapath::StagedPipeline::run(4, noop1, noop1, noop1);
               })),
               "us");
  result.layer("datapath.fanout_run_us",
               median(time_calls(slice, 50, 2000, [&](int) {
                 ear::obs::Span span("bench.fanout_run", "bench");
                 ear::datapath::StagedPipeline::run_fanout(1, kK, noop2, noop1);
               })),
               "us");
  result.layer("datapath.pool_task_us",
               median(time_calls(slice, 50, 5000, [&](int) {
                 ear::obs::Span span("bench.pool_task", "bench");
                 ear::datapath::TaskGroup group(
                     ear::datapath::WorkerPool::shared());
                 group.submit([] {});
                 group.wait();
               })),
               "us");

  // DataNode store put / get
  ear::store::MemBlockStore store;
  std::vector<ear::datapath::BlockBuffer> bufs;
  for (int i = 0; i < kN; ++i) {
    bufs.push_back(ear::datapath::BlockBuffer::copy_of(
        payloads.at(static_cast<size_t>(i))));
  }
  result.layer("store.put_us",
               median(time_calls(slice, 100, 20000, [&](int i) {
                 ear::obs::Span span("bench.store_put", "bench");
                 store.put(i, bufs[static_cast<size_t>(i) % bufs.size()]);
               })),
               "us");
  const int stored = static_cast<int>(store.block_count());
  bool got = true;
  result.layer("store.get_us",
               median(time_calls(slice, 100, 20000, [&](int i) {
                 ear::obs::Span span("bench.store_get", "bench");
                 got &= store.get(i % stored).has_value();
               })),
               "us");
  result.check(got, "store returns every stored block");
}

struct Ev {
  int64_t ts;
  int64_t end;
  int32_t tid;
  std::string name;
};

// Length of the union of [lo, hi) intervals clipped to [a, b).
int64_t covered(std::vector<std::pair<int64_t, int64_t>> iv, int64_t a,
                int64_t b) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t cur_lo = 0, cur_hi = -1;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, a);
    hi = std::min(hi, b);
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

void probe_layers(const Options& opt, const ProbeSpec& spec, Result& result) {
  quiet_pass(opt, spec, result);
  micro_probes(opt, spec, result);
}

void analyze_trace(const Options& opt, Result& result) {
  if (!opt.trace_out.empty()) {
    result.check(ear::obs::write_chrome_trace(opt.trace_out),
                 "Chrome trace written");
    result.note("trace: " + opt.trace_out);
  }
  const auto events = ear::obs::trace_snapshot();
  result.note("trace events: " + std::to_string(events.size()) +
              ", dropped: " + std::to_string(ear::obs::trace_dropped_events()));

  std::vector<Ev> spans;
  double peak_queued = 0;
  double queued = 0;
  bool in_sample = false;
  for (const auto& e : events) {
    if (e.ph == 'X') {
      spans.push_back({e.ts_us, e.ts_us + e.dur_us, e.tid, e.name});
    } else if (e.ph == 'C' && std::string_view(e.name).starts_with("link/")) {
      // One link-sampler pass emits every link in order, node 0 first.
      if (std::string_view(e.name) == "link/node0:up") {
        if (in_sample) peak_queued = std::max(peak_queued, queued);
        queued = 0;
        in_sample = true;
      }
      for (int a = 0; a < e.arg_count; ++a) {
        if (std::string_view(e.arg_keys[a]) == "queued_bytes") {
          queued += static_cast<double>(e.arg_values[a]);
        }
      }
    }
  }
  if (in_sample) peak_queued = std::max(peak_queued, queued);
  result.layer("transport.peak_queued_MB", peak_queued / 1e6, "MB");

  // Self time: a span's duration minus its direct children on its thread.
  std::map<std::string, std::tuple<int64_t, int64_t, int64_t>> table;
  {
    std::vector<size_t> order(spans.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const Ev& x = spans[a];
      const Ev& y = spans[b];
      if (x.tid != y.tid) return x.tid < y.tid;
      if (x.ts != y.ts) return x.ts < y.ts;
      return x.end > y.end;
    });
    std::vector<int64_t> child(spans.size(), 0);
    std::vector<size_t> stack;
    int32_t tid = -1;
    for (const size_t i : order) {
      const Ev& e = spans[i];
      if (e.tid != tid) {
        stack.clear();
        tid = e.tid;
      }
      while (!stack.empty() && spans[stack.back()].end <= e.ts) {
        stack.pop_back();
      }
      if (!stack.empty() && e.end <= spans[stack.back()].end) {
        child[stack.back()] += e.end - e.ts;
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      auto& [count, total, self] = table[spans[i].name];
      ++count;
      total += spans[i].end - spans[i].ts;
      self += spans[i].end - spans[i].ts - child[i];
    }
  }
  std::printf("per-span table (traced run): count, total ms, self ms, "
              "self us/call\n");
  for (const auto& [name, row] : table) {
    const auto& [count, total, self] = row;
    std::printf("  %-32s %9lld %12.3f %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(count), static_cast<double>(total) / 1e3,
                static_cast<double>(self) / 1e3,
                static_cast<double>(self) / static_cast<double>(count));
  }

  // Share of encode time spent in the pipeline's compute stage (same
  // thread), and of degraded-read time covered by fetch stages (any thread).
  std::unordered_map<int32_t, std::vector<std::pair<int64_t, int64_t>>> compute;
  std::vector<std::pair<int64_t, int64_t>> fetch;
  for (const Ev& e : spans) {
    if (e.name == "datapath.compute") compute[e.tid].push_back({e.ts, e.end});
    if (e.name.starts_with("datapath.fetch")) fetch.push_back({e.ts, e.end});
  }
  int64_t enc_total = 0, enc_compute = 0, deg_total = 0, deg_fetch = 0;
  for (const Ev& e : spans) {
    if (e.name == "cfs.encode_stripe") {
      enc_total += e.end - e.ts;
      enc_compute += covered(compute[e.tid], e.ts, e.end);
    } else if (e.name == "cfs.degraded_read") {
      deg_total += e.end - e.ts;
      deg_fetch += covered(fetch, e.ts, e.end);
    }
  }
  result.layer("trace.encode_compute_share",
               enc_total > 0 ? static_cast<double>(enc_compute) /
                                   static_cast<double>(enc_total)
                             : 0,
               "share");
  result.layer("trace.degraded_fetch_share",
               deg_total > 0 ? static_cast<double>(deg_fetch) /
                                   static_cast<double>(deg_total)
                             : 0,
               "share");
}

}  // namespace lcb
