// Extension experiment (paper §III-D discussion + related work): recovery
// traffic after a single node failure.
//
// Part 1 measures, on actual EAR placements, how many of the k blocks read
// to repair one lost block must cross racks as the c parameter grows —
// the trade-off §III-D describes qualitatively (analysis predicts k - c).
//
// Part 2 compares Reed-Solomon repair against Local Repairable Codes
// (Azure-style LRC, the related-work alternative): blocks read, bytes read
// per repaired block, and storage overhead.
#include <cerrno>
#include <cstring>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/csv.h"
#include "common/flags.h"
#include "erasure/lrc.h"
#include "placement/ear.h"

int main(int argc, char** argv) {
  using namespace ear;
  const FlagParser flags(argc, argv);
  const int stripes = static_cast<int>(flags.get_int("stripes", 200));
  const std::string csv_out = flags.get_string("csv-out", "");

  bench::header("Extension: recovery traffic",
                "cross-rack reads to repair one lost block");

  struct CrossRackRow {
    int c;
    int target_racks;
    double measured;
    int predicted;
  };
  std::vector<CrossRackRow> csv_rows;

  // ---- Part 1: EAR placements, varying c -----------------------------------
  const Topology topo(20, 20);
  bench::row("%6s %6s | %22s | %10s", "c", "R'", "measured cross-rack reads",
             "k - c");
  for (const int c : {1, 2, 4}) {
    PlacementConfig cfg;
    cfg.code = CodeParams{14, 10};
    cfg.replication = 3;
    cfg.c = c;
    cfg.target_racks = c == 1 ? 0 : (14 + c - 1) / c;
    EncodingAwareReplication policy(topo, cfg, 77);
    std::vector<StripeInfo> sealed;
    for (BlockId next = 0; static_cast<int>(sealed.size()) < stripes; ++next) {
      BlockPlacement p = policy.place_block(next, std::nullopt);
      if (p.sealed) sealed.push_back(std::move(*p.sealed));
    }

    double cross_total = 0;
    int repairs = 0;
    for (const StripeInfo& stripe : sealed) {
      const EncodePlan plan = policy.plan_encoding(stripe);
      std::vector<NodeId> nodes = plan.kept;
      nodes.insert(nodes.end(), plan.parity.begin(), plan.parity.end());

      // Fail stripe block 0; the repairing node sits in the rack holding
      // the most surviving blocks of the stripe.
      std::vector<int> rack_count(static_cast<size_t>(topo.rack_count()), 0);
      for (size_t i = 1; i < nodes.size(); ++i) {
        ++rack_count[static_cast<size_t>(topo.rack_of(nodes[i]))];
      }
      const auto best = static_cast<RackId>(std::distance(
          rack_count.begin(),
          std::max_element(rack_count.begin(), rack_count.end())));
      // k of the surviving blocks are read; those in `best` stay local.
      const int local = std::min(rack_count[static_cast<size_t>(best)], 10);
      cross_total += 10 - local;
      ++repairs;
    }
    bench::row("%6d %6d | %22.2f | %10d", c, cfg.target_racks,
               cross_total / repairs, 10 - c);
    csv_rows.push_back({c, cfg.target_racks, cross_total / repairs, 10 - c});
  }
  if (!csv_out.empty()) {
    CsvWriter csv(csv_out);
    if (!csv.ok()) {
      std::fprintf(stderr, "error: cannot open %s: %s\n", csv_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    csv.row("c,target_racks,mean_cross_rack_reads,predicted_k_minus_c\n");
    for (const auto& r : csv_rows) {
      csv.row("%d,%d,%.4f,%d\n", r.c, r.target_racks, r.measured, r.predicted);
    }
    if (!csv.close()) {
      std::fprintf(stderr, "error: writing %s failed: %s\n", csv_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    bench::note("wrote " + csv_out);
  }
  bench::note("analysis model: repairing node co-located with c surviving "
              "blocks -> k - c cross-rack reads");

  // ---- Part 2: RS vs LRC repair cost ---------------------------------------
  bench::header("Extension: LRC vs RS",
                "repair reads and storage overhead per code");
  bench::row("%-22s | %12s | %12s | %10s", "code", "blocks read",
             "read amplif.", "overhead");
  {
    const erasure::RSCode rs(16, 12);
    bench::row("%-22s | %12d | %11.1fx | %9.2fx", "RS(16,12)", rs.k(),
               static_cast<double>(rs.k()), 16.0 / 12.0);
    const erasure::LRCCode lrc(12, 2, 2);
    const auto plan = lrc.repair_plan(0);
    bench::row("%-22s | %12zu | %11.1fx | %9.2fx", "LRC(12,2,2) data blk",
               plan.size(), static_cast<double>(plan.size()),
               static_cast<double>(lrc.n()) / lrc.k());
    const auto gplan = lrc.repair_plan(lrc.n() - 1);
    bench::row("%-22s | %12zu | %11.1fx | %9.2fx", "LRC(12,2,2) global",
               gplan.size(), static_cast<double>(gplan.size()),
               static_cast<double>(lrc.n()) / lrc.k());
    const erasure::LRCCode lrc3(12, 3, 2);
    bench::row("%-22s | %12zu | %11.1fx | %9.2fx", "LRC(12,3,2) data blk",
               lrc3.repair_plan(0).size(),
               static_cast<double>(lrc3.repair_plan(0).size()),
               static_cast<double>(lrc3.n()) / lrc3.k());
  }
  bench::note("LRC halves repair reads at ~8% extra storage — the direction "
              "Azure/Facebook took, complementary to EAR");
  return 0;
}
