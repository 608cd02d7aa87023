// Ablation of the paper's §IV-B JobTracker modifications, on the DES.
//
// EAR's zero-cross-rack-download property needs BOTH the placement AND the
// scheduler: the RaidNode attaches a preferred core-rack node to each map
// task and an "encoding job" flag that forbids scheduling outside the core
// rack.  This bench encodes the same EAR-placed stripes under three
// scheduling policies and, for contrast, RR placements under the best one.
//
// Expectation: strict = 0 cross-rack downloads; preferred = close to 0 when
// slots are plentiful, degrading when the cluster is busy; none = nearly as
// bad as RR.
#include "bench/bench_util.h"
#include "common/flags.h"
#include "mapred/encoding_job.h"
#include "sim/network.h"

namespace {

using namespace ear;

struct Row {
  std::string label;
  mapred::EncodingJobReport report;
};

Row run(bool use_ear, mapred::EncodingLocality locality, int slots,
        const std::string& label, int stripes, int nodes_per_rack = 20) {
  const Topology topo(20, nodes_per_rack);
  sim::Engine engine;
  sim::Network network(engine, topo, sim::NetConfig{});
  PlacementConfig pc;
  pc.code = CodeParams{14, 10};
  pc.replication = nodes_per_rack == 1 ? 2 : 3;
  auto policy = use_ear ? make_encoding_aware_replication(topo, pc, 3)
                        : make_random_replication(topo, pc, 3);
  std::vector<StripeInfo> list;
  for (BlockId next = 0; static_cast<int>(list.size()) < stripes; ++next) {
    BlockPlacement p = policy->place_block(next, std::nullopt);
    if (p.sealed) list.push_back(std::move(*p.sealed));
  }

  mapred::EncodingJobConfig cfg;
  cfg.map_slots_per_node = slots;
  cfg.locality = locality;
  mapred::EncodingJob job(engine, network, *policy, cfg);
  job.submit(list);
  engine.run();
  return Row{label, job.report()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ear;
  const FlagParser flags(argc, argv);
  const int stripes = static_cast<int>(flags.get_int("stripes", 60));

  bench::header("Ablation: JobTracker integration (§IV-B)",
                "encoding the same stripes under different map scheduling");
  bench::row("%-34s | %10s | %10s | %12s | %10s", "variant", "time (s)",
             "core-rack", "elsewhere", "cross-dl");
  const std::vector<Row> rows{
      run(true, mapred::EncodingLocality::kStrict, 2,
          "EAR + encoding-job flag", stripes),
      run(true, mapred::EncodingLocality::kPreferred, 2,
          "EAR + preferred node only", stripes),
      run(true, mapred::EncodingLocality::kPreferred, 1,
          "EAR + preferred, 1-node racks", stripes, 1),
      run(true, mapred::EncodingLocality::kStrict, 1,
          "EAR + flag, 1-node racks", stripes, 1),
      run(true, mapred::EncodingLocality::kNone, 2,
          "EAR, no locality", stripes),
      run(false, mapred::EncodingLocality::kPreferred, 2,
          "RR + preferred node", stripes),
  };
  for (const Row& r : rows) {
    bench::row("%-34s | %10.1f | %10d | %12d | %10ld", r.label.c_str(),
               r.report.duration, r.report.tasks_in_core_rack,
               r.report.tasks_elsewhere,
               static_cast<long>(r.report.cross_rack_downloads));
  }
  bench::note("the flag guarantees 0 cross-rack downloads; preferred-only "
              "degrades when slots are scarce; placement alone is not "
              "enough");
  return 0;
}
