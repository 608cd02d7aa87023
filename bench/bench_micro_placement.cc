// Microbenchmarks of the placement machinery: Dinic max-flow on EAR-shaped
// graphs, the per-block EAR placement step (flow check + retries), and RR
// placement for comparison.
#include <benchmark/benchmark.h>

#include "placement/ear.h"
#include "placement/random_replication.h"

namespace {

using namespace ear;

PlacementConfig b2_placement(int k, int c = 1) {
  PlacementConfig cfg;
  cfg.code = CodeParams{k + 4, k};
  cfg.replication = 3;
  cfg.c = c;
  return cfg;
}

void BM_EarStripeMaxFlow(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const Topology topo(20, 20);
  Rng rng(1);
  // A realistic stripe: first replica in rack 0, secondaries in a random
  // other rack.
  std::vector<std::vector<NodeId>> replicas;
  for (int i = 0; i < k; ++i) {
    std::vector<NodeId> r;
    r.push_back(static_cast<NodeId>(rng.uniform(20)));  // core rack node
    const auto rack = static_cast<RackId>(1 + rng.uniform(19));
    r.push_back(topo.rack_first_node(rack) +
                static_cast<NodeId>(rng.uniform(20)));
    r.push_back(topo.rack_first_node(rack) +
                static_cast<NodeId>(rng.uniform(20)));
    replicas.push_back(std::move(r));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ear_stripe_max_flow(topo, 1, replicas, {}));
  }
}
BENCHMARK(BM_EarStripeMaxFlow)->Arg(6)->Arg(10)->Arg(12)->Arg(16);

void BM_EarPlaceBlock(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const Topology topo(20, 20);
  EncodingAwareReplication policy(topo, b2_placement(k), 7);
  BlockId next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.place_block(next++, std::nullopt));
  }
  state.counters["draws/block"] =
      static_cast<double>(policy.total_layout_iterations()) /
      static_cast<double>(policy.total_blocks_placed());
}
BENCHMARK(BM_EarPlaceBlock)->Arg(10)->Arg(12);

void BM_EarPlaceBlockTargetRacks(benchmark::State& state) {
  const Topology topo(20, 20);
  auto cfg = b2_placement(10, 4);
  cfg.target_racks = 4;
  EncodingAwareReplication policy(topo, cfg, 8);
  BlockId next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.place_block(next++, std::nullopt));
  }
  state.counters["draws/block"] =
      static_cast<double>(policy.total_layout_iterations()) /
      static_cast<double>(policy.total_blocks_placed());
}
BENCHMARK(BM_EarPlaceBlockTargetRacks);

void BM_RrPlaceBlock(benchmark::State& state) {
  const Topology topo(20, 20);
  RandomReplication policy(topo, b2_placement(10), 9);
  BlockId next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.place_block(next++, std::nullopt));
  }
}
BENCHMARK(BM_RrPlaceBlock);

void BM_EarPlanEncoding(benchmark::State& state) {
  const Topology topo(20, 20);
  EncodingAwareReplication policy(topo, b2_placement(10), 10);
  std::vector<StripeInfo> sealed;
  for (BlockId next = 0; sealed.size() < 4096; ++next) {
    BlockPlacement p = policy.place_block(next, std::nullopt);
    if (p.sealed) sealed.push_back(std::move(*p.sealed));
  }
  size_t i = 0;
  for (auto _ : state) {
    if (i >= sealed.size()) {
      state.SkipWithError("ran out of sealed stripes");
      break;
    }
    benchmark::DoNotOptimize(policy.plan_encoding(sealed[i++]));
  }
}
BENCHMARK(BM_EarPlanEncoding)->Iterations(4000);

}  // namespace

BENCHMARK_MAIN();
