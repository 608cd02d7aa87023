// Lifecycle benchmark program.
//
//   lifecycle_bench --workload <lifecycle_4k|lifecycle_1m|net_convert>
//                   --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints a human-readable report and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1
// when a correctness check fails, 2 on bad arguments.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "workloads.h"

namespace {

// The lifecycle workloads run on one CPU, the same one in every run, so
// their figures are one-core figures.  Unpinned, thread start-up and
// hand-off cost depend on where the scheduler places each new thread and
// on how many of the shared vCPUs are free, and the per-operation medians
// jumped between two modes from run to run (4 KiB write p50 66 vs 89 us,
// degraded read p50 330 vs 570 us); pinned, they stay within a few
// percent.  net_convert is link-bound and gets one CPU per client thread
// (3 writers + 1 reader), so its client threads need not share one.
constexpr int kLifecycleCpus = 1;
constexpr int kNetConvertCpus = 4;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lifecycle_bench: %s\n"
               "usage: lifecycle_bench --workload "
               "<lifecycle_4k|lifecycle_1m|net_convert> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

lcb::Options parse(int argc, char** argv) {
  lcb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opt.seconds <= 0) {
        usage("--seconds takes a number > 0");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload != "lifecycle_4k" && opt.workload != "lifecycle_1m" &&
      opt.workload != "net_convert") {
    usage("unknown --workload");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const lcb::Options opt = parse(argc, argv);
  const int cpus = lcb::pin_process(
      opt.workload == "net_convert" ? kNetConvertCpus : kLifecycleCpus);
  // Keep freed heap in the process: each round's fresh cluster then lands
  // on pages earlier rounds touched (the reuse state), instead of faulting
  // in and zeroing fresh pages for every 1 MiB block.  Buffers of 8 MiB and
  // more (a round's payloads, a checkpoint image as it grows) are mapped
  // apart and returned when freed: on the heap, whether a free run was left
  // large enough for them moved the 1 MiB peak RSS between 451 and 571 MB
  // from run to run.  One arena: which per-thread arena a short-lived
  // thread draws would otherwise move the peak RSS too.
  mallopt(M_MMAP_THRESHOLD, 8 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_ARENA_MAX, 1);
  if (opt.trace) {
    ear::obs::Config cfg;
    cfg.metrics = true;
    cfg.trace = true;
    ear::obs::init(cfg);
  }

  lcb::Result result;
  result.note("pinned CPUs: " + std::to_string(cpus));
  try {
    lcb::ProbeSpec spec;
    if (opt.workload == "net_convert") {
      lcb::run_net_convert(opt, result);
      spec = lcb::net_convert_probe_spec();
    } else {
      const lcb::Bytes block =
          opt.workload == "lifecycle_4k" ? 4 * 1024 : 1024 * 1024;
      lcb::run_lifecycle(opt, block, cpus, result);
      spec = lcb::lifecycle_probe_spec(block, cpus);
      // No link emulation, no open-loop generator on these workloads.
      result.layer("transport.max_link_busy_share", 0, "share");
      result.layer("net.writer_lateness_ms", 0, "ms");
    }
    result.end_to_end("peak_rss_MB", lcb::peak_rss_mb(), "MB");
    if (opt.trace) {
      auto& reg = ear::obs::Registry::instance();
      const double written =
          static_cast<double>(reg.counter("cfs.blocks_written").value()) *
          static_cast<double>(spec.block);
      result.layer(
          "datapath.bytes_copied_per_user_byte",
          written > 0 ? static_cast<double>(
                            reg.counter("datapath.bytes_copied").value()) /
                            written
                      : 0,
          "B/B");
      spec.seconds = std::min(4.0, std::max(1.0, opt.seconds / 4));
      lcb::probe_layers(opt, spec, result);
      lcb::analyze_trace(opt, result);
    }
  } catch (const std::exception& e) {
    result.check(false, std::string("unexpected exception: ") + e.what());
  }
  result.print(opt);
  return result.correct() ? 0 : 1;
}
