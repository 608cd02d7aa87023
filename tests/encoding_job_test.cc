#include "mapred/encoding_job.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/network.h"

namespace ear::mapred {
namespace {

struct World {
  Topology topo{10, 4};
  sim::Engine engine;
  sim::Network network;
  std::unique_ptr<PlacementPolicy> policy;
  std::vector<StripeInfo> stripes;

  explicit World(bool use_ear, int stripe_count = 10, uint64_t seed = 5)
      : network(engine, topo, sim::NetConfig{}) {
    PlacementConfig pc;
    pc.code = CodeParams{8, 6};
    pc.replication = 3;
    policy = use_ear ? make_encoding_aware_replication(topo, pc, seed)
                     : make_random_replication(topo, pc, seed);
    for (BlockId next = 0; static_cast<int>(stripes.size()) < stripe_count;
         ++next) {
      BlockPlacement p = policy->place_block(next, std::nullopt);
      if (p.sealed) stripes.push_back(std::move(*p.sealed));
    }
  }
};

EncodingJobConfig job_config(EncodingLocality locality) {
  EncodingJobConfig cfg;
  cfg.map_slots_per_node = 2;
  cfg.block_size = 16_MB;
  cfg.locality = locality;
  return cfg;
}

TEST(EncodingJob, StrictKeepsEveryTaskInTheCoreRack) {
  World w(true);
  EncodingJob job(w.engine, w.network, *w.policy,
                  job_config(EncodingLocality::kStrict));
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  EXPECT_EQ(r.stripes, 10);
  EXPECT_EQ(r.tasks_in_core_rack, 10);
  EXPECT_EQ(r.tasks_elsewhere, 0);
  EXPECT_EQ(r.cross_rack_downloads, 0);
  EXPECT_GT(r.duration, 0.0);
}

TEST(EncodingJob, NoLocalityCausesCrossRackDownloadsEvenForEar) {
  // §IV-B motivation: without the JobTracker changes, EAR placements alone
  // do not prevent cross-rack downloads.
  World w(true, 10, 7);
  EncodingJob job(w.engine, w.network, *w.policy,
                  job_config(EncodingLocality::kNone));
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  EXPECT_GT(r.tasks_elsewhere, 0);
  EXPECT_GT(r.cross_rack_downloads, 0);
}

TEST(EncodingJob, PreferredModeMostlyHitsTheCoreRack) {
  World w(true, 10, 9);
  EncodingJob job(w.engine, w.network, *w.policy,
                  job_config(EncodingLocality::kPreferred));
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  // With 2 slots x 4 nodes per rack and 10 stripes, the preferred node (or
  // its rack) is almost always free.
  EXPECT_GE(r.tasks_in_core_rack, 8);
}

TEST(EncodingJob, StrictQueuesWhenCoreRackIsSaturated) {
  // Many stripes, tiny slot count: strict tasks must wait for core-rack
  // slots but all must eventually run there.
  World w(true, 20, 11);
  auto cfg = job_config(EncodingLocality::kStrict);
  cfg.map_slots_per_node = 1;
  EncodingJob job(w.engine, w.network, *w.policy, cfg);
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  EXPECT_EQ(r.tasks_in_core_rack, 20);
  EXPECT_EQ(r.cross_rack_downloads, 0);
}

TEST(EncodingJob, WorksForRandomReplicationToo) {
  World w(false, 10, 13);
  EncodingJob job(w.engine, w.network, *w.policy,
                  job_config(EncodingLocality::kPreferred));
  job.submit(w.stripes);
  w.engine.run();
  const EncodingJobReport& r = job.report();
  EXPECT_EQ(r.stripes, 10);
  EXPECT_GT(r.duration, 0.0);
  // RR placements force cross-rack downloads no matter the scheduling.
  EXPECT_GT(r.cross_rack_downloads, 0);
}

TEST(EncodingJob, StrictIsNoSlowerThanNoneForEar) {
  double durations[2];
  for (const auto mode :
       {EncodingLocality::kStrict, EncodingLocality::kNone}) {
    World w(true, 16, 15);
    EncodingJob job(w.engine, w.network, *w.policy, job_config(mode));
    job.submit(w.stripes);
    w.engine.run();
    durations[mode == EncodingLocality::kStrict ? 0 : 1] =
        job.report().duration;
  }
  EXPECT_LT(durations[0], durations[1]);
}

}  // namespace
}  // namespace ear::mapred
