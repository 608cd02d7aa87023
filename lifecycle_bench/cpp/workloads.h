// Workload entry points and the per-layer probes shared by all workloads.
#pragma once

#include <functional>
#include <memory>

#include "bench.h"
#include "cfs/transport.h"
#include "topology/topology.h"

namespace lcb {

// A traced run records this many rounds (the warm-up round included) and
// then runs the per-layer probes: every short-lived thread that records a
// span keeps a trace buffer for the rest of the process, so the number of
// traced operations is bounded.
inline constexpr int kTracedRounds = 3;

// lifecycle_4k / lifecycle_1m on InstantTransport; `slots` RaidNode map
// slots.
void run_lifecycle(const Options& opt, Bytes block, int slots, Result& result);

// net_convert on ThrottledTransport.
void run_net_convert(const Options& opt, Result& result);

using TransportFactory =
    std::function<std::unique_ptr<ear::cfs::Transport>(const ear::Topology&)>;

struct ProbeSpec {
  Bytes block = 0;
  TransportFactory transport;  // the workload's transport
  int stripes = 4;             // stripes the quiet probe writes
  int degraded_reads = 8;
  int slots = 1;               // RaidNode map slots
  double seconds = 1;          // time budget of the layer micro-probes
};

// The quiet probes of the workloads: block size, transport, map slots.
ProbeSpec lifecycle_probe_spec(Bytes block, int slots);
ProbeSpec net_convert_probe_spec();

// Per-layer metrics of the traced run: a quiet single-client pass through
// write / convert / degraded read / repair / checkpoint with getrusage and
// heap accounting around each call, then micro-probes of the GF kernel,
// codec, pipeline, worker pool, placement and store at the workload's block
// size.
void probe_layers(const Options& opt, const ProbeSpec& spec, Result& result);

// Writes the Chrome trace of everything recorded so far, prints the
// per-span count / total / self-time table, and reports the trace-derived
// per-layer metrics (trace.*, transport.peak_queued_MB).
void analyze_trace(const Options& opt, Result& result);

}  // namespace lcb
