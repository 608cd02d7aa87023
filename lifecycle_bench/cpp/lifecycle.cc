// lifecycle_4k / lifecycle_1m: the paper's lifecycle on InstantTransport,
// where link time is zero and only the software's own cost is measured.
//
// Each round builds a fresh cluster, so every round measures the same
// bounded state (a growing cluster inflates write latency as it faults in
// fresh pages), then runs: write -> convert (RaidNode) -> kill the rack that
// loses the most data -> degraded reads -> repair (RepairManager drain) ->
// verifying reads -> checkpoint save/load -> reads from the restored cluster.
// lifecycle_4k leaves some sealed stripes replicated and converts them on
// the restored cluster last; see the README for the fault that step shows.
#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "bench.h"
#include "cfs/checkpoint.h"
#include "cfs/raidnode.h"
#include "failure/repair.h"
#include "obs/trace.h"
#include "workloads.h"

namespace lcb {

namespace {

using ear::cfs::InstantTransport;
using ear::cfs::MiniCfs;

struct Shape {
  int stripes;         // stripes written (and sealed) per round
  int leftover;        // sealed stripes left replicated
  int degraded_reads;  // reads of blocks whose only copy died
};

// 4 KiB: 320 blocks per round keep a round near 0.05 s, so a 30 s run
// holds hundreds of rounds.  1 MiB: 80 blocks (80 MiB of payload) bound
// memory while the GF work still dominates.
Shape shape_for(Bytes block) {
  if (block <= 4096) return {32, 4, 64};
  return {8, 0, 8};
}

RoundStats run_round(const Options& opt, Bytes block, const Shape& shape,
                     int round, int slots, bool convert_after_restore,
                     Result& result) {
  RoundStats st;
  const int blocks = shape.stripes * kK;

  // ---- set-up: inputs and a fresh cluster
  const auto t_setup = Clock::now();
  std::unique_ptr<Payloads> payloads;
  std::vector<NodeId> writers;
  std::unique_ptr<MiniCfs> cfs;
  {
    ear::obs::Span span("bench.setup", "bench");
    payloads = std::make_unique<Payloads>(
        derive_seed(opt.seed, 1, static_cast<uint64_t>(round)),
        static_cast<size_t>(blocks), block);
    writers = stripe_filling_writers(
        derive_seed(opt.seed, 2, static_cast<uint64_t>(round)), shape.stripes);
    const ear::Topology topo(kRacks, kNodesPerRack);
    cfs = std::make_unique<MiniCfs>(cluster_config(block),
                                    std::make_unique<InstantTransport>(topo));
  }
  st.setup_s = s_between(t_setup, Clock::now());
  InputRng rng(derive_seed(opt.seed, 3, static_cast<uint64_t>(round)));
  ear::cfs::Transport& net = cfs->transport();

  // ---- write
  std::unordered_map<BlockId, size_t> payload_of;
  std::vector<BlockId> ids(static_cast<size_t>(blocks));
  const int64_t w_cross0 = net.cross_rack_bytes();
  const int64_t w_intra0 = net.intra_rack_bytes();
  st.write_us.reserve(static_cast<size_t>(blocks));
  for (int i = 0; i < blocks; ++i) {
    const auto t0 = Clock::now();
    {
      ear::obs::Span span("bench.write_block", "bench");
      ids[static_cast<size_t>(i)] =
          cfs->write_block(payloads->at(static_cast<size_t>(i)),
                           writers[static_cast<size_t>(i)]);
    }
    st.write_us.push_back(us_between(t0, Clock::now()));
    payload_of[ids[static_cast<size_t>(i)]] = static_cast<size_t>(i);
    result.op("write");
  }
  const int64_t user_bytes = static_cast<int64_t>(blocks) * block;
  result.check(net.cross_rack_bytes() - w_cross0 == user_bytes &&
                   net.intra_rack_bytes() - w_intra0 == user_bytes,
               "each write moves one block across racks and one within");

  // ---- convert
  std::vector<StripeId> sealed = cfs->sealed_stripes();
  std::sort(sealed.begin(), sealed.end());
  result.check(static_cast<int>(sealed.size()) == shape.stripes,
               "writes seal exactly the planned stripes");
  std::vector<StripeId> leftover;
  for (int i = 0; i < shape.leftover && !sealed.empty(); ++i) {
    const size_t pick = rng.below(sealed.size());
    leftover.push_back(sealed[pick]);
    sealed.erase(sealed.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  const std::vector<StripeId>& converted = sealed;
  const int64_t c_cross0 = net.cross_rack_bytes();
  ear::cfs::RaidNode raid(*cfs, slots);
  const auto t_conv = Clock::now();
  ear::cfs::EncodeReport report;
  {
    ear::obs::Span span("bench.encode_stripes", "bench");
    report = raid.encode_stripes(converted);
  }
  const double conv_s = s_between(t_conv, Clock::now());
  result.ops("convert_stripe", static_cast<int64_t>(converted.size()),
             static_cast<int64_t>(report.failed.size()));
  result.check(report.failed.empty(), "every conversion succeeds");
  result.check(report.cross_rack_downloads == 0,
               "EAR conversion downloads no data block across racks");
  const int64_t data_converted =
      static_cast<int64_t>(converted.size()) * kK * block;
  const int64_t conv_cross = net.cross_rack_bytes() - c_cross0;
  result.check(conv_cross * kK == data_converted * (kN - kK),
               "conversion moves m/k cross-rack bytes per data byte");
  st.convert_MBps = static_cast<double>(data_converted) / 1e6 / conv_s;
  st.convert_xrack =
      static_cast<double>(conv_cross) / static_cast<double>(data_converted);
  for (const StripeId s : converted) {
    check_encoded_layout(*cfs, s, result, "after conversion");
  }

  // ---- fail: the rack whose loss takes the most data blocks offline
  const RackLoss loss = worst_rack(*cfs, converted);
  result.check(!loss.lost_data_blocks.empty(),
               "a killed rack leaves data blocks to read degraded");
  if (loss.lost_data_blocks.empty()) return st;
  cfs->kill_rack(loss.rack);
  result.op("kill_rack");

  // ---- degraded reads
  for (int d = 0; d < shape.degraded_reads; ++d) {
    const BlockId b =
        loss.lost_data_blocks[rng.below(loss.lost_data_blocks.size())];
    const NodeId reader = random_live_node(*cfs, rng);
    const auto t0 = Clock::now();
    ear::datapath::BlockBuffer got;
    {
      ear::obs::Span span("bench.degraded_read", "bench");
      got = cfs->read_block(b, reader);
    }
    st.degraded_us.push_back(us_between(t0, Clock::now()));
    const bool ok = same_bytes(got, payloads->at(payload_of.at(b)));
    result.op("degraded_read", ok);
    result.check(ok, "degraded read returns the written payload");
  }

  // ---- repair
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
  st.rebuilt_bytes = (rep.repaired + rep.re_replicated) * block;
  st.repair_bytes_moved = rep.bytes_moved;
  st.repair_retries = rep.retries;
  if (st.rebuilt_bytes > 0) {
    st.repair_MBps = static_cast<double>(st.rebuilt_bytes) / 1e6 / rep_s;
    st.repair_xrack = static_cast<double>(net.cross_rack_bytes() - r_cross0) /
                      static_cast<double>(st.rebuilt_bytes);
  }
  for (const StripeId s : converted) {
    check_encoded_layout(*cfs, s, result, "after repair");
  }
  for (const StripeId s : leftover) {
    for (const BlockId b : cfs->stripe_meta(s).data_blocks) {
      int live = 0;
      for (const NodeId n : cfs->block_locations(b)) live += cfs->node_alive(n);
      result.check(live == kReplication,
                   "replicated blocks hold r live copies after repair");
    }
  }

  // ---- post-repair reads: every block now has a live copy
  for (int i = 0; i < blocks; ++i) {
    const BlockId b = ids[static_cast<size_t>(i)];
    const NodeId reader = random_live_node(*cfs, rng);
    const auto t0 = Clock::now();
    ear::datapath::BlockBuffer got;
    {
      ear::obs::Span span("bench.read_block", "bench");
      got = cfs->read_block(b, reader);
    }
    st.read_us.push_back(us_between(t0, Clock::now()));
    const bool ok = same_bytes(got, payloads->at(static_cast<size_t>(i)));
    result.op("read", ok);
    result.check(ok, "post-repair read returns the written payload");
  }

  // ---- storage: n/k for converted bytes, r for replicated bytes
  const int64_t expected_stored =
      (static_cast<int64_t>(converted.size()) * kN +
       static_cast<int64_t>(leftover.size()) * kK * kReplication) *
      block;
  const int64_t stored = live_stored_bytes(*cfs);
  result.check(stored == expected_stored,
               "stored bytes equal n/k x converted + r x replicated");
  st.stored_ratio =
      static_cast<double>(stored) / static_cast<double>(user_bytes);

  // ---- checkpoint round trip
  std::unique_ptr<MiniCfs> restored;
  {
    std::vector<uint8_t> image;
    {
      ear::obs::Span span("bench.checkpoint_save", "bench");
      image = ear::cfs::save_checkpoint(*cfs);
    }
    result.op("checkpoint_save");
    ear::obs::Span span("bench.checkpoint_load", "bench");
    restored = ear::cfs::load_checkpoint(
        image, std::make_unique<InstantTransport>(cfs->topology()));
  }
  result.op("checkpoint_load");
  for (int i = 0; i < blocks; ++i) {
    const NodeId reader = random_live_node(*restored, rng);
    const bool ok = same_bytes(
        restored->read_block(ids[static_cast<size_t>(i)], reader),
        payloads->at(static_cast<size_t>(i)));
    result.op("restored_read", ok);
    result.check(ok, "restored cluster reads back every block byte-identical");
  }

  // ---- convert the stripes left replicated, on the restored cluster
  if (convert_after_restore) {
    for (const StripeId s : leftover) {
      bool ok = true;
      try {
        ear::obs::Span span("bench.encode_stripe_restored", "bench");
        restored->encode_stripe(s);
      } catch (const std::exception& e) {
        ok = false;
        if (round == 0 && s == leftover.front()) {
          result.note(std::string("restored-cluster conversion fails: ") +
                      e.what());
        }
      }
      result.op("restored_convert", ok);
      if (ok) {
        check_encoded_layout(*restored, s, result, "converted after restore");
        for (const BlockId b : restored->stripe_meta(s).data_blocks) {
          const NodeId reader = random_live_node(*restored, rng);
          result.check(same_bytes(restored->read_block(b, reader),
                                  payloads->at(payload_of.at(b))),
                       "block converted after restore reads back");
        }
      }
    }
  }
  return st;
}

}  // namespace

ProbeSpec lifecycle_probe_spec(Bytes block, int slots) {
  ProbeSpec spec;
  spec.block = block;
  spec.transport = [](const ear::Topology& topo) {
    return std::make_unique<InstantTransport>(topo);
  };
  spec.stripes = block <= 4096 ? 20 : 4;
  spec.degraded_reads = block <= 4096 ? 64 : 8;
  spec.slots = slots;
  return spec;
}

void run_lifecycle(const Options& opt, Bytes block, int slots,
                   Result& result) {
  const Shape shape = shape_for(block);
  const bool convert_after_restore = block <= 4096;
  // Round 0 warms the allocator, the worker pool and the code paths.
  const auto rounds = run_rounds(
      opt, /*warmup=*/1, kTracedRounds,
      [&](int round) {
        return run_round(opt, block, shape, round, slots,
                         convert_after_restore, result);
      },
      result);
  report_rounds(rounds, result);
}

}  // namespace lcb
