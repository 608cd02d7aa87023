#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "bench.h"

namespace lcb {

// ----------------------------------------------------------- seeded inputs

namespace {

uint64_t splitmix64(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

InputRng::InputRng(uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

uint64_t InputRng::next() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t InputRng::below(uint64_t n) { return n == 0 ? 0 : next() % n; }

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double InputRng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

uint64_t derive_seed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  splitmix64(x);
  x ^= index * 0x8cb92ba72f3d8dd7ULL;
  return splitmix64(x);
}

Payloads::Payloads(uint64_t seed, size_t count, Bytes block)
    : block_(block),
      bytes_(count * static_cast<size_t>(block)) {
  InputRng rng(seed);
  uint8_t* p = bytes_.data();
  const size_t words = bytes_.size() / 8;
  for (size_t i = 0; i < words; ++i) {
    const uint64_t v = rng.next();
    std::memcpy(p + i * 8, &v, 8);
  }
  for (size_t i = words * 8; i < bytes_.size(); ++i) {
    p[i] = static_cast<uint8_t>(rng.next());
  }
}

// ------------------------------------------------------------ measurement

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

int64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int pin_process(int want) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int count = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && count < want; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++count;
    }
  }
  if (count == 0 || sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return CPU_COUNT(&allowed);
  }
  return count;
}

// ----------------------------------------------------------------- result

void Result::op(const std::string& type, bool ok) {
  auto& c = ops_[type];
  ++c.first;
  if (!ok) ++c.second;
}

void Result::ops(const std::string& type, int64_t attempted, int64_t failed) {
  auto& c = ops_[type];
  c.first += attempted;
  c.second += failed;
}

bool Result::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok && ++failed_count_ <= 20) failed_checks_.push_back(what);
  return ok;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

void Result::print(const Options& opt) const {
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const auto& line : notes_) std::printf("  %s\n", line.c_str());
  std::printf("operations (attempted / failed):\n");
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& [type, c] : ops_) {
    std::printf("  %-24s %10lld %8lld\n", type.c_str(),
                static_cast<long long>(c.first),
                static_cast<long long>(c.second));
    attempted += c.first;
    failed += c.second;
  }
  std::printf("checks: %lld made, %lld failed\n",
              static_cast<long long>(checks_),
              static_cast<long long>(failed_count_));
  for (const auto& what : failed_checks_) {
    std::printf("  CHECK FAILED: %s\n", what.c_str());
  }
  // A traced run shows its end-to-end figures too: their gap to an
  // untraced run of the same seed is the tracing overhead.
  std::printf("end-to-end metrics%s:\n", opt.trace ? " (traced)" : "");
  for (const auto& [name, m] : e2e_) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (opt.trace) {
    std::printf("per-layer metrics:\n");
    for (const auto& [name, m] : layers_) {
      std::printf("  %-40s %16.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  const auto& shown = opt.trace ? layers_ : e2e_;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              metrics_json(shown).c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- cluster

ear::cfs::CfsConfig cluster_config(Bytes block) {
  ear::cfs::CfsConfig cfg;
  cfg.racks = kRacks;
  cfg.nodes_per_rack = kNodesPerRack;
  cfg.placement.code = {kN, kK};
  cfg.placement.replication = kReplication;
  cfg.placement.one_replica_per_rack = false;
  cfg.placement.c = 1;
  cfg.use_ear = true;
  cfg.block_size = block;
  cfg.codec_family = ear::erasure::CodecFamily::kRS;
  cfg.store_backend = ear::store::StoreBackend::kMem;
  return cfg;
}

std::vector<NodeId> stripe_filling_writers(uint64_t seed, int stripes) {
  InputRng rng(seed);
  std::vector<RackId> racks(kRacks);
  for (int r = 0; r < kRacks; ++r) racks[static_cast<size_t>(r)] = r;
  for (size_t i = racks.size(); i > 1; --i) {
    std::swap(racks[i - 1], racks[rng.below(i)]);
  }
  // Stripe s takes core rack racks[s mod 16]; blocks go round-robin over the
  // stripes, so every rack's open stripe fills k blocks at a time and
  // exactly `stripes` stripes seal with none left open.
  std::vector<NodeId> writers;
  writers.reserve(static_cast<size_t>(stripes) * kK);
  for (int i = 0; i < stripes * kK; ++i) {
    const RackId rack = racks[static_cast<size_t>((i % stripes) % kRacks)];
    writers.push_back(rack * kNodesPerRack +
                      static_cast<NodeId>(rng.below(kNodesPerRack)));
  }
  return writers;
}

bool check_encoded_layout(ear::cfs::MiniCfs& cfs, StripeId stripe,
                          Result& result, const char* when) {
  const ear::cfs::StripeMeta meta = cfs.stripe_meta(stripe);
  bool ok = meta.encoded && static_cast<int>(meta.data_blocks.size()) == kK &&
            static_cast<int>(meta.parity_blocks.size()) == kN - kK;
  std::set<RackId> racks;
  std::vector<BlockId> blocks = meta.data_blocks;
  blocks.insert(blocks.end(), meta.parity_blocks.begin(),
                meta.parity_blocks.end());
  for (const BlockId b : blocks) {
    std::vector<NodeId> live;
    for (const NodeId n : cfs.block_locations(b)) {
      if (cfs.node_alive(n)) live.push_back(n);
    }
    if (live.size() != 1) {
      ok = false;
      continue;
    }
    racks.insert(cfs.topology().rack_of(live[0]));
  }
  ok = ok && static_cast<int>(racks.size()) == kN;
  return result.check(ok, std::string("stripe spans n racks, one copy per "
                                      "block (") + when + ")");
}

RackLoss worst_rack(ear::cfs::MiniCfs& cfs,
                    const std::vector<StripeId>& encoded) {
  std::vector<std::vector<BlockId>> lost(kRacks);
  for (const StripeId s : encoded) {
    for (const BlockId b : cfs.stripe_meta(s).data_blocks) {
      const auto locs = cfs.block_locations(b);
      if (locs.size() == 1) {
        lost[static_cast<size_t>(cfs.topology().rack_of(locs[0]))].push_back(
            b);
      }
    }
  }
  RackLoss out;
  for (RackId r = 0; r < kRacks; ++r) {
    if (out.rack == ear::kInvalidRack ||
        lost[static_cast<size_t>(r)].size() > out.lost_data_blocks.size()) {
      out.rack = r;
      out.lost_data_blocks = lost[static_cast<size_t>(r)];
    }
  }
  return out;
}

int64_t live_stored_bytes(ear::cfs::MiniCfs& cfs) {
  int64_t blocks = 0;
  for (NodeId n = 0; n < cfs.topology().node_count(); ++n) {
    if (cfs.node_alive(n)) blocks += cfs.blocks_stored_on(n);
  }
  return blocks * cfs.config().block_size;
}

NodeId random_live_node(ear::cfs::MiniCfs& cfs, InputRng& rng) {
  const int nodes = cfs.topology().node_count();
  while (true) {
    const NodeId n =
        static_cast<NodeId>(rng.below(static_cast<uint64_t>(nodes)));
    if (cfs.node_alive(n)) return n;
  }
}

bool same_bytes(const ear::datapath::BlockBuffer& got,
                std::span<const uint8_t> want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size()) == 0;
}

// ----------------------------------------------------------------- rounds

std::vector<RoundStats> run_rounds(
    const Options& opt, int warmup, int traced_rounds,
    const std::function<RoundStats(int round)>& round, Result& result) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  std::vector<RoundStats> measured;
  std::vector<double> round_s;
  int n = 0;
  const auto another = [&] {
    if (n < 2) return true;
    if (opt.trace) return n < traced_rounds;
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(median(round_s))) <=
           deadline;
  };
  while (another()) {
    const auto t0 = Clock::now();
    RoundStats st = round(n);
    round_s.push_back(s_between(t0, Clock::now()));
    if (n >= warmup) measured.push_back(std::move(st));
    ++n;
    if (!result.correct()) break;
  }
  result.note("rounds: " + std::to_string(n) + " (warm-up rounds: " +
              std::to_string(warmup) + ")");
  return measured;
}

void report_rounds(const std::vector<RoundStats>& rounds, Result& result) {
  std::vector<double> setup, conv, rep, conv_x, rep_x, stored, write50,
      read50, degraded50, write_all, read_all;
  size_t writes = 0, reads = 0, degraded = 0;
  int64_t moved = 0, rebuilt = 0, retries = 0;
  // A latency median is taken within each round and reported as the
  // median over rounds, like the rates: a stall of the host in one round
  // then moves one round's figure, not the run's.
  auto per_round = [](const std::vector<double>& samples,
                      std::vector<double>& out) {
    if (!samples.empty()) out.push_back(median(samples));
  };
  for (const RoundStats& st : rounds) {
    setup.push_back(st.setup_s);
    conv.push_back(st.convert_MBps);
    conv_x.push_back(st.convert_xrack);
    stored.push_back(st.stored_ratio);
    if (st.rebuilt_bytes > 0) {
      rep.push_back(st.repair_MBps);
      rep_x.push_back(st.repair_xrack);
    }
    per_round(st.write_us, write50);
    per_round(st.read_us, read50);
    per_round(st.degraded_us, degraded50);
    write_all.insert(write_all.end(), st.write_us.begin(), st.write_us.end());
    read_all.insert(read_all.end(), st.read_us.begin(), st.read_us.end());
    writes += st.write_us.size();
    reads += st.read_us.size();
    degraded += st.degraded_us.size();
    moved += st.repair_bytes_moved;
    rebuilt += st.rebuilt_bytes;
    retries += st.repair_retries;
  }
  result.end_to_end("setup_s", median(setup), "s");
  result.end_to_end("write_p50_us", median(write50), "us");
  result.end_to_end("read_p50_us", median(read50), "us");
  result.end_to_end("degraded_read_p50_us", median(degraded50), "us");
  result.end_to_end("convert_MBps", median(conv), "MB/s");
  result.end_to_end("repair_MBps", median(rep), "MB/s");
  result.end_to_end("convert_cross_rack_bytes_per_byte", median(conv_x),
                    "B/B");
  result.end_to_end("repair_cross_rack_bytes_per_byte", median(rep_x), "B/B");
  result.end_to_end("stored_bytes_per_user_byte", median(stored), "B/B");
  result.note("samples: writes " + std::to_string(writes) + ", reads " +
              std::to_string(reads) + ", degraded reads " +
              std::to_string(degraded));
  result.layer("repair.bytes_moved_per_rebuilt_byte",
               rebuilt > 0 ? static_cast<double>(moved) /
                                 static_cast<double>(rebuilt)
                           : 0,
               "B/B");
  result.layer("repair.retries", static_cast<double>(retries), "count");
  // Tails swing with the host's scheduling (see the README), so they are
  // reported without a bound, over the pooled samples of the traced rounds.
  result.layer("foreground.write_p99_us", quantile(write_all, 0.99), "us");
  result.layer("foreground.read_p99_us", quantile(read_all, 0.99), "us");
}

}  // namespace lcb
