// dytisbench — the repository benchmark.
//
//   dytisbench --workload W --seed N [--seconds S] [--trace 0|1] [--smoke]
//
// Runs one workload (or all five when --workload is absent), checks every
// op's outcome, prints each metric as `name value unit [note]`, the input
// and state hashes, and, last, one JSON line:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the workload
// with spans around its own calls (and, on served-closed and
// durable-writes, the layer ladder) and reports the per-layer metrics,
// throughput and latency among them, writing a Chrome trace under
// <work-dir>/traces/.  Exits 1 when a check fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "benchmark/bench.h"
#include "src/obs/perf_counters.h"

namespace dytisbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"bytes_per_key", "B/key"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"throughput_mops", "Mop/s"},
      {"get_p50_us", "us"},
      {"get_p99_us", "us"},
      {"write_p50_us", "us"},
      {"write_p99_us", "us"},
      {"scan_p50_us", "us"},
      {"scan_p99_us", "us"},
      {"request_p50_us", "us"},
      {"request_p99_us", "us"},
      {"core.splits", "count"},
      {"core.expansions", "count"},
      {"core.remappings", "count"},
      {"core.remap_failures", "count"},
      {"core.doublings", "count"},
      {"core.merges", "count"},
      {"core.stash_inserts", "count"},
      {"core.hard_errors", "count"},
      {"core.split_s", "s"},
      {"core.expansion_s", "s"},
      {"core.remap_s", "s"},
      {"core.doubling_s", "s"},
      {"core.structural_share", "ratio"},
      {"core.tail_structural_fraction", "ratio"},
      {"core.find_ns.p50", "ns"},
      {"core.find_ns.p999", "ns"},
      {"core.scan_ns.p50", "ns"},
      {"core.scan_ns.p999", "ns"},
      {"core.insert_ns.p50", "ns"},
      {"core.insert_ns.p999", "ns"},
      {"core.insert_ns.p9999", "ns"},
      {"core.segments", "count"},
      {"core.directory_entries", "count"},
      {"core.stash_entries", "count"},
      {"core.slot_fill", "ratio"},
      {"core.optimistic_read_retries", "count"},
      {"core.optimistic_read_fallbacks", "count"},
      {"sync.retired_total", "count"},
      {"sync.reclaimed_total", "count"},
      {"sync.retired_pending_max", "count"},
      {"sync.advance_failures", "count"},
      {"sync.epoch_lag_max", "count"},
      {"server.batch_ns.p50", "ns"},
      {"server.batch_ns.p99", "ns"},
      {"server.queue_ns.p50", "ns"},
      {"server.queue_ns.p99", "ns"},
      {"server.task_service_ns.p50", "ns"},
      {"server.task_service_ns.p99", "ns"},
      {"server.op_service_ns.p50", "ns"},
      {"server.op_service_ns.p99", "ns"},
      {"server.handoffs_per_batch", "ratio"},
      {"server.queue_depth_peak", "count"},
      {"server.shard_skew", "ratio"},
      {"server.routing_ns_per_op", "ns"},
      {"server.pipeline_ns_per_op", "ns"},
      {"ladder.core_ns_per_op", "ns"},
      {"ladder.sharded_ns_per_op", "ns"},
      {"ladder.server_ns_per_op", "ns"},
      {"ladder.passthrough_ns_per_write", "ns"},
      {"ladder.durable_ns_per_write", "ns"},
      {"ladder.single_client_ns_per_op", "ns"},
      {"ladder.accounted_share", "ratio"},
      {"loadgen.lag_us.p50", "us"},
      {"loadgen.lag_us.p99", "us"},
      {"loadgen.achieved_ratio", "ratio"},
      {"recovery.wal_ns_per_write", "ns"},
      {"recovery.fsyncs", "count"},
      {"recovery.fsync_ns.p50", "ns"},
      {"recovery.fsync_ns.p99", "ns"},
      {"recovery.wal_bytes_per_user_byte", "ratio"},
      {"recovery.checkpoints", "count"},
      {"recovery.checkpoint_s.max", "s"},
      {"recovery.checkpoint_mib_per_s", "MiB/s"},
      {"recovery.replayed_records", "count"},
      {"recovery.replay_mkeys_per_s", "Mkey/s"},
      {"recovery.open_s", "s"},
      {"obs.trace_overhead", "ratio"},
      {"obs.rtrace_overhead", "ratio"},
      {"obs.spans", "count"},
      {"obs.dropped_spans", "count"},
  };
  return metrics;
}

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "dytisbench: %s\nusage: dytisbench [--workload W] --seed N "
               "[--seconds S] [--trace 0|1] [--smoke] [--work-dir D]\n",
               msg);
  return 2;
}

bool RunOne(const Options& o, const Workload& w) {
  Report report;
  Checker checker;
  report.Comment("dytisbench " + std::string(w.name) +
                 " seed=" + std::to_string(o.seed) +
                 " seconds=" + std::to_string(o.seconds) +
                 (o.traced ? " traced" : "") + (o.smoke ? " smoke" : ""));
  Tracer& tracer = Tracer::Get();
  if (o.traced) {
    tracer.Enable(/*main_capacity=*/4'000'000, /*client_capacity=*/500'000);
  }
  const dytis::obs::PerfRegion perf;
  w.run(o, &report, &checker);
  if (o.traced) {
    report.Layer("obs.spans", static_cast<double>(tracer.recorded()));
    report.Layer("obs.dropped_spans", static_cast<double>(tracer.dropped()));
    const dytis::obs::PerfSample p = perf.Delta();
    if (p.available) {
      const double ops = static_cast<double>(checker.attempted());
      report.Comment("core.cycles_per_op " +
                     std::to_string(static_cast<double>(p.cycles) / ops));
      report.Comment("core.instructions_per_op " +
                     std::to_string(static_cast<double>(p.instructions) / ops));
      report.Comment("core.llc_misses_per_op " +
                     std::to_string(static_cast<double>(p.llc_misses) / ops));
    }
    const std::filesystem::path dir =
        std::filesystem::path(o.work_dir) / "traces";
    std::filesystem::create_directories(dir);
    const std::string path =
        (dir / (std::string(w.name) + "-seed" + std::to_string(o.seed) +
                ".trace.json"))
            .string();
    for (const Tracer::NameSummary& s : tracer.Finish(path)) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "span %s count=%llu total_ms=%.3f self_ms=%.3f "
                    "p50_ns=%.0f p99_ns=%.0f p999_ns=%.0f",
                    s.name.c_str(), static_cast<unsigned long long>(s.count),
                    s.total_ns / 1e6, s.self_ns / 1e6, s.p50_ns, s.p99_ns,
                    s.p999_ns);
      report.Comment(line);
    }
    report.Comment("chrome trace " + path);
    tracer.Clear();
  }
  return report.Print(o.traced, checker);
}

}  // namespace
}  // namespace dytisbench

int main(int argc, char** argv) {
  using dytisbench::Options;
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) {
        return dytisbench::Usage("--workload needs a name");
      }
      o.workload = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) {
        return dytisbench::Usage("--seed needs a number");
      }
      o.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      const char* v = value();
      if (v == nullptr || std::atof(v) < 0) {
        return dytisbench::Usage("--seconds needs a number >= 0");
      }
      o.seconds = std::atof(v);
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr || (std::strcmp(v, "0") != 0 &&
                           std::strcmp(v, "1") != 0)) {
        return dytisbench::Usage("--trace needs 0 or 1");
      }
      o.traced = std::strcmp(v, "1") == 0;
    } else if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--work-dir") {
      const char* v = value();
      if (v == nullptr) {
        return dytisbench::Usage("--work-dir needs a path");
      }
      o.work_dir = v;
    } else {
      return dytisbench::Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) {
    return dytisbench::Usage("--seed is required");
  }
  bool correct = true;
  bool found = false;
  for (const dytisbench::Workload& w : dytisbench::Workloads()) {
    if (o.workload.empty() || o.workload == w.name) {
      found = true;
      correct = dytisbench::RunOne(o, w) && correct;
    }
  }
  if (!found) {
    return dytisbench::Usage(("unknown workload " + o.workload).c_str());
  }
  return correct ? 0 : 1;
}
