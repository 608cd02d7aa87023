// net_convert: conversion under an oversubscribed core on ThrottledTransport.
//
// Each round preloads replicated stripes instantly (the paper's data was
// written long before the measured window), swaps in the throttled
// transport, and converts the preloaded stripes with RaidNode while an
// open-loop Poisson writer and a closed-loop reader share the same links.
// Then the rack that loses the most data is killed, degraded reads run, and
// RepairManager drains the rack's repairs, all over the throttled links.
// Link time dominates: the process uses about a sixth of one CPU.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "cfs/raidnode.h"
#include "failure/repair.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace lcb {

namespace {

using ear::cfs::InstantTransport;
using ear::cfs::MiniCfs;
using ear::cfs::ThrottledTransport;

constexpr Bytes kBlock = 16 * 1024;
constexpr int kConvertStripes = 80;  // converted per round
constexpr int kReadStripes = 16;     // stay replicated; the reader's blocks
constexpr int kDegradedReads = 24;
constexpr int kMapSlots = 4;
constexpr int kWriterThreads = 3;
// Open-loop writes per second: bench_fig09_write_impact's default of 3
// writes/s of 1 MiB blocks, the same 3 MiB/s scaled to 16 KiB blocks.
constexpr double kWriteRate = 3.0 * (1024 * 1024) / kBlock;
constexpr int kWriterPayloads = 256;

// The link speeds of the repo's testbed benches.  Node links run at
// 10 MB/s, the TestbedParams default (bench/testbed_util.h), which stands
// for the paper's 1 Gb/s Ethernet scaled down.  A rack's links carry a
// quarter of what its four nodes can offer: the 4x oversubscribed core of
// bench_ext_ecdag's conversion-throughput part.
ear::cfs::ThrottleConfig throttle_config() {
  ear::cfs::ThrottleConfig t;
  t.node_bw = 10e6;
  t.rack_uplink_bw = t.node_bw * kNodesPerRack / 4;
  t.rack_downlink_bw = t.rack_uplink_bw;
  // Links interleave flows at 4 KiB, a quarter block: a foreground op that
  // queues behind a parity upload waits for chunks, not whole blocks.
  t.chunk_size = 4 * 1024;
  return t;
}

std::unique_ptr<ear::cfs::Transport> make_throttled(const ear::Topology& topo) {
  return std::make_unique<ThrottledTransport>(topo, throttle_config());
}

struct WriteSample {
  BlockId id = ear::kInvalidBlock;
  size_t payload = 0;
  double latency_us = 0;   // from the write's due time
  double lateness_us = 0;  // issue time minus due time
};

struct ReadSample {
  double latency_us = 0;
  int64_t cross_bytes = 0;  // what the read must move across racks
  bool ok = false;
};

RoundStats run_round(const Options& opt, int round, Result& result) {
  RoundStats st;
  const int stripes = kConvertStripes + kReadStripes;
  const int preload = stripes * kK;
  const uint64_t r = static_cast<uint64_t>(round);

  // ---- set-up: inputs, cluster, instant preload, throttled links
  const auto t_setup = Clock::now();
  std::unique_ptr<Payloads> payloads;
  std::unique_ptr<Payloads> writer_payloads;
  std::unique_ptr<MiniCfs> cfs;
  std::unordered_map<BlockId, size_t> payload_of;
  std::vector<BlockId> preload_ids;
  {
    ear::obs::Span span("bench.setup", "bench");
    payloads = std::make_unique<Payloads>(derive_seed(opt.seed, 11, r),
                                          static_cast<size_t>(preload), kBlock);
    writer_payloads = std::make_unique<Payloads>(
        derive_seed(opt.seed, 12, r), kWriterPayloads, kBlock);
    const auto writers =
        stripe_filling_writers(derive_seed(opt.seed, 13, r), stripes);
    const ear::Topology topo(kRacks, kNodesPerRack);
    cfs = std::make_unique<MiniCfs>(cluster_config(kBlock),
                                    std::make_unique<InstantTransport>(topo));
    for (int i = 0; i < preload; ++i) {
      const BlockId id = cfs->write_block(payloads->at(static_cast<size_t>(i)),
                                          writers[static_cast<size_t>(i)]);
      payload_of[id] = static_cast<size_t>(i);
      preload_ids.push_back(id);
    }
    cfs->set_transport(make_throttled(topo));
  }
  st.setup_s = s_between(t_setup, Clock::now());
  InputRng rng(derive_seed(opt.seed, 14, r));

  std::vector<StripeId> sealed = cfs->sealed_stripes();
  std::sort(sealed.begin(), sealed.end());
  result.check(static_cast<int>(sealed.size()) == stripes,
               "preload seals exactly the planned stripes");
  std::vector<StripeId> read_stripes;
  for (int i = 0; i < kReadStripes && !sealed.empty(); ++i) {
    const size_t pick = rng.below(sealed.size());
    read_stripes.push_back(sealed[pick]);
    sealed.erase(sealed.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  const std::vector<StripeId>& converted = sealed;
  std::vector<BlockId> read_set;
  for (const StripeId s : read_stripes) {
    const auto data = cfs->stripe_meta(s).data_blocks;
    read_set.insert(read_set.end(), data.begin(), data.end());
  }

  // ---- the open-loop writer's schedule and the reader's sequence
  std::vector<double> due_s;
  std::vector<NodeId> write_nodes;
  {
    InputRng wr(derive_seed(opt.seed, 15, r));
    double t = 0;
    while (t < 120) {
      t += wr.exponential(kWriteRate);
      due_s.push_back(t);
      write_nodes.push_back(
          static_cast<NodeId>(wr.below(kRacks * kNodesPerRack)));
    }
  }

  // ---- convert, with foreground writes and reads sharing the links
  ear::cfs::Transport& net = cfs->transport();
  const int64_t c_cross0 = net.cross_rack_bytes();
  std::atomic<size_t> next_write{0};
  // Due time (ns after start) from which no write is issued; set when the
  // conversion job returns.
  std::atomic<int64_t> stop_after_ns{INT64_MAX};
  std::atomic<bool> stop_reads{false};
  std::mutex samples_mu;
  std::vector<WriteSample> writes;
  std::vector<ReadSample> reads;
  const auto t_conv = Clock::now();

  auto writer = [&] {
    std::vector<WriteSample> mine;
    while (true) {
      const size_t i = next_write.fetch_add(1);
      if (i >= due_s.size()) break;
      const int64_t due_ns = static_cast<int64_t>(due_s[i] * 1e9);
      const auto due = t_conv + std::chrono::nanoseconds(due_ns);
      while (Clock::now() < due && due_ns < stop_after_ns.load()) {
        std::this_thread::sleep_until(
            std::min(due, Clock::now() + std::chrono::milliseconds(5)));
      }
      if (due_ns >= stop_after_ns.load()) break;
      const auto issued = Clock::now();
      WriteSample s;
      s.payload = i % kWriterPayloads;
      try {
        ear::obs::Span span("bench.write_block", "bench");
        s.id = cfs->write_block(writer_payloads->at(s.payload), write_nodes[i]);
      } catch (const std::exception&) {
        s.id = ear::kInvalidBlock;  // counted as a failed write
      }
      s.latency_us = us_between(due, Clock::now());
      s.lateness_us = us_between(due, issued);
      mine.push_back(s);
    }
    std::lock_guard<std::mutex> lock(samples_mu);
    writes.insert(writes.end(), mine.begin(), mine.end());
  };

  auto reader = [&] {
    InputRng rr(derive_seed(opt.seed, 16, r));
    std::vector<ReadSample> mine;
    while (!stop_reads.load()) {
      const BlockId b = read_set[rr.below(read_set.size())];
      const NodeId node =
          static_cast<NodeId>(rr.below(kRacks * kNodesPerRack));
      // The read set is never converted, so its copies stay put: the read
      // crosses racks exactly when no copy sits in the reader's rack.
      bool local_rack = false;
      for (const NodeId n : cfs->block_locations(b)) {
        local_rack |= cfs->topology().same_rack(n, node);
      }
      ReadSample s;
      s.cross_bytes = local_rack ? 0 : kBlock;
      const auto t0 = Clock::now();
      ear::datapath::BlockBuffer got;
      try {
        ear::obs::Span span("bench.read_block", "bench");
        got = cfs->read_block(b, node);
      } catch (const std::exception&) {
        got = {};  // an empty buffer fails the payload comparison
      }
      s.latency_us = us_between(t0, Clock::now());
      s.ok = same_bytes(got, payloads->at(payload_of.at(b)));
      mine.push_back(s);
    }
    std::lock_guard<std::mutex> lock(samples_mu);
    reads.insert(reads.end(), mine.begin(), mine.end());
  };

  std::vector<std::thread> clients;
  for (int w = 0; w < kWriterThreads; ++w) clients.emplace_back(writer);
  clients.emplace_back(reader);
  ear::cfs::EncodeReport report;
  {
    ear::obs::Span span("bench.encode_stripes", "bench");
    report = ear::cfs::RaidNode(*cfs, kMapSlots).encode_stripes(converted);
  }
  const auto t_conv_end = Clock::now();
  stop_after_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t_conv_end - t_conv)
          .count());
  stop_reads.store(true);
  for (auto& t : clients) t.join();
  const double conv_s = s_between(t_conv, t_conv_end);

  result.ops("convert_stripe", static_cast<int64_t>(converted.size()),
             static_cast<int64_t>(report.failed.size()));
  result.check(report.failed.empty(), "every conversion succeeds");
  result.check(report.cross_rack_downloads == 0,
               "EAR conversion downloads no data block across racks");
  int64_t foreground_cross = 0;
  for (const ReadSample& s : reads) {
    foreground_cross += s.cross_bytes;
    result.op("read", s.ok);
    result.check(s.ok, "replica read during conversion returns the payload");
    st.read_us.push_back(s.latency_us);
  }
  std::vector<WriteSample> written;
  for (const WriteSample& s : writes) {
    const bool ok = s.id != ear::kInvalidBlock;
    result.op("write", ok);
    result.check(ok, "open-loop write succeeds");
    if (!ok) continue;
    written.push_back(s);
    payload_of.emplace(s.id, static_cast<size_t>(preload) + s.payload);
    st.write_us.push_back(s.latency_us);
    st.lateness_us.push_back(s.lateness_us);
  }
  foreground_cross += static_cast<int64_t>(written.size()) * kBlock;
  const int64_t data_converted =
      static_cast<int64_t>(converted.size()) * kK * kBlock;
  const int64_t conv_cross =
      net.cross_rack_bytes() - c_cross0 - foreground_cross;
  result.check(conv_cross * kK == data_converted * (kN - kK),
               "conversion moves m/k cross-rack bytes per data byte "
               "(foreground bytes subtracted)");
  st.convert_MBps = static_cast<double>(data_converted) / 1e6 / conv_s;
  st.convert_xrack =
      static_cast<double>(conv_cross) / static_cast<double>(data_converted);
  for (const StripeId s : converted) {
    check_encoded_layout(*cfs, s, result, "after conversion");
  }

  // ---- fail one rack, read degraded, repair
  const RackLoss loss = worst_rack(*cfs, converted);
  result.check(!loss.lost_data_blocks.empty(),
               "a killed rack leaves data blocks to read degraded");
  if (loss.lost_data_blocks.empty()) return st;
  cfs->kill_rack(loss.rack);
  result.op("kill_rack");
  for (int d = 0; d < kDegradedReads; ++d) {
    const BlockId b =
        loss.lost_data_blocks[rng.below(loss.lost_data_blocks.size())];
    const NodeId node = random_live_node(*cfs, rng);
    const auto t0 = Clock::now();
    ear::datapath::BlockBuffer got;
    {
      ear::obs::Span span("bench.degraded_read", "bench");
      got = cfs->read_block(b, node);
    }
    st.degraded_us.push_back(us_between(t0, Clock::now()));
    const bool ok = same_bytes(got, payloads->at(payload_of.at(b)));
    result.op("degraded_read", ok);
    result.check(ok, "degraded read returns the written payload");
  }

  ear::failure::RepairManager repair(*cfs, ear::failure::RepairConfig{});
  repair.schedule_rack(loss.rack);
  const int64_t r_cross0 = net.cross_rack_bytes();
  const auto t_rep = Clock::now();
  ear::failure::RepairManager::Report rep;
  {
    ear::obs::Span span("bench.repair_drain", "bench");
    rep = repair.drain();
  }
  const double rep_s = s_between(t_rep, Clock::now());
  result.op("repair_drain", rep.unrecoverable == 0);
  result.check(rep.unrecoverable == 0, "repair rebuilds every lost block");
  st.rebuilt_bytes = (rep.repaired + rep.re_replicated) * kBlock;
  st.repair_bytes_moved = rep.bytes_moved;
  st.repair_retries = rep.retries;
  if (st.rebuilt_bytes > 0) {
    st.repair_MBps = static_cast<double>(st.rebuilt_bytes) / 1e6 / rep_s;
    st.repair_xrack = static_cast<double>(net.cross_rack_bytes() - r_cross0) /
                      static_cast<double>(st.rebuilt_bytes);
  }

  // ---- verify the end state on instant links (nothing below is timed)
  cfs->set_transport(std::make_unique<InstantTransport>(cfs->topology()));
  for (const StripeId s : converted) {
    check_encoded_layout(*cfs, s, result, "after repair");
  }
  std::vector<BlockId> replicated = read_set;
  for (const WriteSample& s : written) replicated.push_back(s.id);
  for (const BlockId b : replicated) {
    int live = 0;
    for (const NodeId n : cfs->block_locations(b)) live += cfs->node_alive(n);
    result.check(live == kReplication,
                 "replicated blocks hold r live copies after repair");
  }
  std::vector<BlockId> all = preload_ids;
  for (const WriteSample& s : written) all.push_back(s.id);
  for (const BlockId b : all) {
    const size_t p = payload_of.at(b);
    const size_t pre = static_cast<size_t>(preload);
    const auto want =
        p < pre ? payloads->at(p) : writer_payloads->at(p - pre);
    result.check(same_bytes(cfs->read_block(b, random_live_node(*cfs, rng)),
                            want),
                 "post-repair read returns the written payload");
  }
  const int64_t user_bytes = static_cast<int64_t>(all.size()) * kBlock;
  const int64_t expected_stored =
      (static_cast<int64_t>(converted.size()) * kN +
       static_cast<int64_t>(replicated.size()) * kReplication) *
      kBlock;
  const int64_t stored = live_stored_bytes(*cfs);
  result.check(stored == expected_stored,
               "stored bytes equal n/k x converted + r x replicated");
  st.stored_ratio =
      static_cast<double>(stored) / static_cast<double>(user_bytes);
  return st;
}

}  // namespace

ProbeSpec net_convert_probe_spec() {
  ProbeSpec spec;
  spec.block = kBlock;
  spec.transport = make_throttled;
  spec.stripes = 4;
  spec.degraded_reads = 8;
  spec.slots = kMapSlots;
  return spec;
}

void run_net_convert(const Options& opt, Result& result) {
  // Link-bound: no warm-up round.
  const auto rounds = run_rounds(
      opt, /*warmup=*/0, kTracedRounds,
      [&](int round) { return run_round(opt, round, result); }, result);
  report_rounds(rounds, result);
  std::vector<double> lateness;
  for (const RoundStats& st : rounds) {
    lateness.insert(lateness.end(), st.lateness_us.begin(),
                    st.lateness_us.end());
  }
  result.layer("net.writer_lateness_ms", quantile(lateness, 0.99) / 1e3, "ms");
  auto& reg = ear::obs::Registry::instance();
  result.layer("transport.max_link_busy_share",
               reg.gauge("testbed.net.max_link_share").value(), "share");
}

}  // namespace lcb
