// Theorem 1: expected number of replica-layout draws EAR needs for the i-th
// data block of a stripe.  Compares the theorem's upper bound
// (R-1)/(R-1-floor((i-1)/c)) against iterations measured from the actual
// EAR implementation.
//
// Paper expectation: E_i grows with i, stays tiny (<= 1.9 for k = 10,
// R = 20, c = 1), and the bound holds.
#include <vector>

#include "analysis/availability.h"
#include "bench/bench_util.h"
#include "placement/ear.h"

int main(int argc, char** argv) {
  using namespace ear;
  const FlagParser flags(argc, argv);
  const int racks = static_cast<int>(flags.get_int("racks", 20));
  const int nodes = static_cast<int>(flags.get_int("nodes-per-rack", 20));
  const int k = static_cast<int>(flags.get_int("k", 10));
  const int c = static_cast<int>(flags.get_int("c", 1));
  const int stripes = static_cast<int>(flags.get_int("stripes", 2000));

  PlacementConfig cfg;
  cfg.code = CodeParams{k + 4, k};
  cfg.replication = 3;
  cfg.c = c;

  const Topology topo(racks, nodes);
  EncodingAwareReplication ear_policy(topo, cfg, 99);

  // Measure iterations per stripe position.  place_block returns the draw
  // count and the block's position inside its stripe.
  std::vector<double> sum(static_cast<size_t>(k), 0.0);
  std::vector<double> max_seen(static_cast<size_t>(k), 0.0);
  std::vector<int64_t> count(static_cast<size_t>(k), 0);
  for (BlockId next = 0, sealed = 0; sealed < stripes; ++next) {
    const BlockPlacement p = ear_policy.place_block(next, std::nullopt);
    if (p.sealed) ++sealed;
    const int pos = p.position;
    sum[static_cast<size_t>(pos)] += p.iterations;
    max_seen[static_cast<size_t>(pos)] =
        std::max(max_seen[static_cast<size_t>(pos)],
                 static_cast<double>(p.iterations));
    ++count[static_cast<size_t>(pos)];
  }

  bench::header("Theorem 1",
                "expected layout draws per stripe position (R=" +
                    std::to_string(racks) + ", k=" + std::to_string(k) +
                    ", c=" + std::to_string(c) + ")");
  bench::row("%6s | %12s %12s %12s", "i", "bound", "measured", "max");
  for (int i = 1; i <= k; ++i) {
    bench::row("%6d | %12.3f %12.3f %12.0f", i,
               analysis::theorem1_iteration_bound(racks, i, c),
               sum[static_cast<size_t>(i - 1)] /
                   static_cast<double>(count[static_cast<size_t>(i - 1)]),
               max_seen[static_cast<size_t>(i - 1)]);
  }
  bench::note("paper remark: E_i <= 1.9 for i = k = 10, R = 20, c = 1");
  return 0;
}
