// The asynchronous encoding operation as a map-only MapReduce job
// (paper §IV-B).
//
// HDFS-RAID submits encoding through MapReduce; the paper makes three
// modifications so map tasks actually run inside each stripe's core rack:
// a preferred node per task, grouping stripes by core rack, and an
// "encoding job" flag that makes the JobTracker refuse to schedule the task
// outside the core rack.  This module reproduces that machinery on the
// discrete-event simulator and exposes the scheduling policy as a knob:
//
//   kStrict    — the paper's flag: tasks wait for a slot in the core rack;
//   kPreferred — vanilla locality optimization: preferred node, then its
//                rack, then any free slot (what you get WITHOUT the flag);
//   kNone      — ignore locality entirely (vanilla HDFS-RAID + RR behaviour).
#pragma once

#include <deque>
#include <vector>

#include "common/rng.h"
#include "placement/policy.h"
#include "sim/network.h"

namespace ear::mapred {

enum class EncodingLocality { kStrict, kPreferred, kNone };

struct EncodingJobConfig {
  int map_slots_per_node = 2;
  Bytes block_size = 64_MB;
  EncodingLocality locality = EncodingLocality::kStrict;
  uint64_t seed = 1;
};

struct EncodingJobReport {
  Seconds duration = 0;
  int stripes = 0;
  int tasks_in_core_rack = 0;   // map ran inside the stripe's core rack
  int tasks_elsewhere = 0;
  int64_t cross_rack_downloads = 0;  // data blocks fetched across racks
};

class EncodingJob {
 public:
  EncodingJob(sim::Engine& engine, sim::Network& network,
              PlacementPolicy& policy, const EncodingJobConfig& config);

  // Queues all stripes at the current simulated time; run the engine to
  // completion, then read report().
  void submit(const std::vector<StripeInfo>& stripes);

  const EncodingJobReport& report() const { return report_; }

 private:
  struct Task {
    StripeInfo stripe;
    EncodePlan plan;
  };

  void try_dispatch();
  // Picks the node a task runs on under the configured locality policy;
  // kInvalidNode if it must keep waiting.
  NodeId choose_node(const Task& task);
  void run_task(Task task, NodeId node);

  sim::Engine* engine_;
  sim::Network* network_;
  PlacementPolicy* policy_;
  EncodingJobConfig config_;
  Rng rng_;

  std::deque<Task> pending_;
  std::vector<int> free_slots_;
  int running_ = 0;
  Seconds started_ = 0;
  EncodingJobReport report_;
};

}  // namespace ear::mapred
