// Shared pieces of the lifecycle benchmark program: run options, seeded
// input generation, timing and statistics helpers, the result record that
// becomes the final JSON line, and checks that more than one workload runs.
//
// The benchmark reaches the file system only through its public API (MiniCfs,
// RaidNode, RepairManager, checkpoint, and the layer headers the per-layer
// probes call).  Every check below is computed from the benchmark's own
// inputs or from properties the EAR method must have, never from the
// program's own accounting of itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cfs/minicfs.h"
#include "cfs/transport.h"
#include "common/units.h"

namespace lcb {

using ear::Bytes;
using ear::NodeId;
using ear::RackId;
using ear::BlockId;
using ear::StripeId;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path for the traced run
};

// ----------------------------------------------------------- seeded inputs

// xoshiro256** seeded through splitmix64: the benchmark's own generator, so
// the inputs do not depend on any RNG inside the program under test.
class InputRng {
 public:
  explicit InputRng(uint64_t seed);
  uint64_t next();
  uint64_t below(uint64_t n);  // uniform in [0, n)
  double uniform();            // uniform in [0, 1)
  double exponential(double rate);

 private:
  uint64_t s_[4];
};

// Mixes a run seed with a stream label and an index into a fresh seed.
uint64_t derive_seed(uint64_t seed, uint64_t stream, uint64_t index);

// `count` payloads of `block` bytes each in one contiguous allocation.
class Payloads {
 public:
  Payloads(uint64_t seed, size_t count, Bytes block);
  std::span<const uint8_t> at(size_t i) const {
    return {bytes_.data() + i * static_cast<size_t>(block_),
            static_cast<size_t>(block_)};
  }

 private:
  Bytes block_;
  std::vector<uint8_t> bytes_;
};

// ------------------------------------------------------------ measurement

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Process-wide CPU time (user + system, every thread, exited ones too) and
// context switches (voluntary + involuntary), from getrusage(RUSAGE_SELF).
struct Usage {
  double cpu_us = 0;
  int64_t ctx_switches = 0;
};
Usage usage_now();

// Heap bytes in use (glibc mallinfo2: arena + mmapped chunks).  Exact to the
// byte, unlike RSS, which moves in pages and stays flat once freed pages are
// reused.
int64_t heap_in_use();
double peak_rss_mb();

// Pins the process (and every thread it starts later) to the first `want`
// CPUs it may run on.  Returns the number of CPUs pinned.
int pin_process(int want);

// ----------------------------------------------------------------- result

struct Metric {
  double value = 0;
  std::string unit;
};

class Result {
 public:
  // Counts one operation of `type`; `ok == false` counts it as failed.
  void op(const std::string& type, bool ok = true);
  void ops(const std::string& type, int64_t attempted, int64_t failed);
  // A correctness check: records `what` and marks the run incorrect when
  // `ok` is false.  Returns ok.
  bool check(bool ok, const std::string& what);

  void end_to_end(const std::string& name, double value,
                  const std::string& unit) {
    e2e_[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers_[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failed_count_ == 0; }
  // Human-readable report followed by the final JSON line on stdout.
  void print(const Options& opt) const;

 private:
  std::map<std::string, std::pair<int64_t, int64_t>> ops_;  // attempted, failed
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
  int64_t checks_ = 0;
  int64_t failed_count_ = 0;
  std::vector<std::string> failed_checks_;  // the first few, by name
  std::vector<std::string> notes_;
};

// ---------------------------------------------------------------- cluster

// The paper's layout for every workload: 16 racks x 4 nodes, EAR, RS(14,10),
// r = 3 in the HDFS default layout (first replica local, replicas 2..r in
// one other rack), mem store, c = 1 (n blocks in n racks after encoding).
inline constexpr int kRacks = 16;
inline constexpr int kNodesPerRack = 4;
inline constexpr int kN = 14;
inline constexpr int kK = 10;
inline constexpr int kReplication = 3;

ear::cfs::CfsConfig cluster_config(Bytes block);

// Writer node of each of `stripes * k` blocks such that exactly `stripes`
// stripes seal: EAR makes the writer's rack the block's core rack, so k
// writes from one rack fill one stripe.  Core racks are spread evenly over
// the racks in a seeded order; the writer node within the rack is seeded.
std::vector<NodeId> stripe_filling_writers(uint64_t seed, int stripes);

// Checks that an encoded stripe holds n blocks, each with exactly one live
// copy, in n distinct racks (c = 1).
bool check_encoded_layout(ear::cfs::MiniCfs& cfs, StripeId stripe,
                          Result& result, const char* when);

// The rack whose loss leaves the most data blocks of `encoded` stripes
// without a copy, and those blocks.  Deterministic for a given layout.
struct RackLoss {
  RackId rack = ear::kInvalidRack;
  std::vector<BlockId> lost_data_blocks;
};
RackLoss worst_rack(ear::cfs::MiniCfs& cfs,
                    const std::vector<StripeId>& encoded);

// Bytes held by the live DataNodes.
int64_t live_stored_bytes(ear::cfs::MiniCfs& cfs);

// A uniformly drawn live node (rejection-sampled on the input RNG).
NodeId random_live_node(ear::cfs::MiniCfs& cfs, InputRng& rng);

bool same_bytes(const ear::datapath::BlockBuffer& got,
                std::span<const uint8_t> want);

// ----------------------------------------------------------------- rounds

// What one lifecycle round measured.
struct RoundStats {
  double setup_s = 0;
  double convert_MBps = 0;
  double repair_MBps = 0;
  double convert_xrack = 0;
  double repair_xrack = 0;
  double stored_ratio = 0;
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::vector<double> degraded_us;
  std::vector<double> lateness_us;  // open-loop writes only
  int64_t repair_bytes_moved = 0;
  int64_t rebuilt_bytes = 0;
  int64_t repair_retries = 0;
};

// Runs whole rounds until the next one is not expected to end within
// opt.seconds (at least two; a traced run stops after kTracedRounds).  The
// first `warmup` rounds count their operations and checks but not their
// timings.  Returns the measured rounds.
std::vector<RoundStats> run_rounds(
    const Options& opt, int warmup, int traced_rounds,
    const std::function<RoundStats(int round)>& round, Result& result);

// Reports the end-to-end metrics over the rounds: medians of per-round
// rates, ratios and latency medians.
void report_rounds(const std::vector<RoundStats>& rounds, Result& result);

}  // namespace lcb
