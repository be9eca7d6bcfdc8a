// The layer ladders and the per-layer emitters shared by the workloads.
//
// A ladder replays one op stream single-client in batches of 64 with the
// same client loop in every row, so the difference between adjacent rows is
// the cost of the layer added between them.  `served-closed` runs the
// serving ladder over its own stream:
//
//   core          ConcurrentDyTIS, ops executed directly
//   sharded       ShardedDyTIS (2 shards), ops executed directly: + routing
//   server        DyTISServer::ExecuteBatch over the same 2 shards: + pipeline
//   server_rtrace the server row with the request tracer recording
//
// and `durable-writes` the durability ladder over its own stream:
//
//   passthrough   DurableDyTIS with durability off (per write)
//   durable       DurableDyTIS, WAL fsync every 64 logged ops (per write)
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "benchmark/bench.h"
#include "src/core/dytis.h"
#include "src/obs/metrics.h"
#include "src/obs/rtrace.h"
#include "src/recovery/durable_dytis.h"
#include "src/server/sharded_dytis.h"

namespace dytisbench {
namespace {

using dytis::server::DyTISServer;
using dytis::server::OpType;
using dytis::server::Request;
using dytis::server::Response;
using dytis::server::ServerIndex;
using CoreIndex = dytis::ConcurrentDyTIS<uint64_t>;
using Durable = dytis::recovery::DurableIndex<uint64_t>;
using Entry = std::pair<uint64_t, uint64_t>;

constexpr size_t kBatch = 64;
constexpr uint32_t kShards = 2;
constexpr uint64_t kWalSyncEvery = 64;

enum Row { kCore, kSharded, kServer, kServerRtrace, kPassthrough, kDurable };
const char* const kRowNames[] = {"core",         "sharded",     "server",
                                 "server_rtrace", "passthrough", "durable"};

bool IsWrite(OpType op) {
  return op == OpType::kPut || op == OpType::kUpdate || op == OpType::kErase;
}

// Executes a batch op by op on `index`, the way a shard worker does.
template <typename Index>
void ExecuteDirect(Index& index, const Request* q, size_t n, Response* r,
                   std::vector<Entry>* buf) {
  for (size_t i = 0; i < n; i++) {
    Response& out = r[i];
    out = Response{};
    switch (q[i].op) {
      case OpType::kGet:
        out.ok = index.Find(q[i].key, &out.value);
        break;
      case OpType::kPut:
        out.ok = dytis::IsNewKey(index.InsertEx(q[i].key, q[i].value));
        break;
      case OpType::kUpdate:
        out.ok = index.Update(q[i].key, q[i].value);
        break;
      case OpType::kErase:
        out.ok = index.Erase(q[i].key);
        break;
      case OpType::kScan: {
        const size_t got = index.Scan(
            q[i].key, std::min<size_t>(q[i].scan_count, buf->size()),
            buf->data());
        out.ok = true;
        out.scan_len = static_cast<uint32_t>(got);
        out.value = dytis::server::ScanChecksum(buf->data(), got);
        break;
      }
    }
  }
}

template <typename Index>
void Preload(Index& index, const LadderStream& s) {
  std::vector<Entry> buf(1024);
  std::vector<Response> resp(kBatch);
  for (size_t i = 0; i < s.preload.size(); i += kBatch) {
    const size_t n = std::min(kBatch, s.preload.size() - i);
    ExecuteDirect(index, &s.preload[i], n, resp.data(), &buf);
  }
}

struct RowRun {
  double ns_per_op = 0;
  double ns_per_write = 0;
  uint64_t digest = 0;
  uint64_t response_digest = 0;
};

// Times the op stream through `exec`, batch by batch, checking every
// response.
template <typename Exec>
RowRun Replay(const LadderStream& s, Checker* checker, Exec&& exec) {
  std::vector<Response> resp(kBatch);
  uint64_t rd = 0;
  uint64_t writes = 0;
  uint64_t bad = 0;
  const uint64_t t0 = NowNanos();
  for (size_t i = 0; i < s.ops.size(); i += kBatch) {
    const size_t n = std::min(kBatch, s.ops.size() - i);
    exec(&s.ops[i], n, resp.data());
    for (size_t k = 0; k < n; k++) {
      const Request& q = s.ops[i + k];
      const Response& r = resp[k];
      if (!ResponseOk(q, r, s.scan_min[i + k])) {
        bad++;
        checker->Op(false, "ladder response", q.key);
      }
      // A scan that crosses into the other shard may or may not see a
      // write later in the same batch (the server runs a batch's shard
      // tasks concurrently), so scan results stay out of the digest; only
      // a get's response carries a value.
      if (q.op == OpType::kGet) {
        rd = Mix64(rd ^ Mix64(r.value ^ (uint64_t{r.ok} << 63)));
      } else if (q.op != OpType::kScan) {
        rd = Mix64(rd ^ uint64_t{r.ok});
      }
      writes += IsWrite(q.op) ? 1 : 0;
    }
  }
  const uint64_t t1 = NowNanos();
  checker->Ops(s.ops.size() - bad);
  RowRun run;
  run.ns_per_op = static_cast<double>(t1 - t0) /
                  static_cast<double>(std::max<size_t>(s.ops.size(), 1));
  run.ns_per_write = static_cast<double>(t1 - t0) /
                     static_cast<double>(std::max<uint64_t>(writes, 1));
  run.response_digest = rd;
  return run;
}

RowRun RunRow(Row row, const Options& options, const LadderStream& s,
              Checker* checker) {
  // Sized by the preload, as the workloads size their own indexes.
  const size_t keys = s.preload.size();
  ScopedSpan span(SpanName::kLadderRow, static_cast<uint64_t>(row));
  std::vector<Entry> buf(1024);
  auto direct = [&buf](auto& index) {
    return [&index, &buf](const Request* q, size_t n, Response* r) {
      ExecuteDirect(index, q, n, r, &buf);
    };
  };
  switch (row) {
    case kCore: {
      CoreIndex index(ConfigFor(keys));
      Preload(index, s);
      RowRun run = Replay(s, checker, direct(index));
      run.digest = Digest(index);
      return run;
    }
    case kSharded: {
      ServerIndex index(kShards,
                        dytis::server::ShardScaledConfig(ConfigFor(keys),
                                                         kShards));
      Preload(index, s);
      RowRun run = Replay(s, checker, direct(index));
      run.digest = Digest(index);
      return run;
    }
    case kServer:
    case kServerRtrace: {
      ServerIndex index(kShards,
                        dytis::server::ShardScaledConfig(ConfigFor(keys),
                                                         kShards));
      Preload(index, s);
      auto& rtracer = dytis::obs::rtrace::RequestTracer::Global();
      if (row == kServerRtrace) {
        rtracer.Clear();
        rtracer.Enable();
      }
      RowRun run;
      {
        DyTISServer server(&index);
        run = Replay(s, checker, [&](const Request* q, size_t n, Response* r) {
          server.ExecuteBatch(q, n, r,
                              dytis::obs::rtrace::RequestContext::Mint());
        });
        server.Stop();
      }
      if (row == kServerRtrace) {
        rtracer.Disable();
        rtracer.Clear();
      }
      run.digest = Digest(index);
      return run;
    }
    case kPassthrough:
    case kDurable: {
      dytis::recovery::RecoveryConfig rc;  // no dir: durability off
      if (row == kDurable) {
        rc.dir = FreshDir(options, "ladder-durable");
        rc.wal_sync_every = kWalSyncEvery;
      }
      std::string error;
      auto db = Durable::Open(rc, ConfigFor(keys), &error);
      if (db == nullptr) {
        checker->Fatal(std::string("ladder ") + kRowNames[row] +
                       " open: " + error);
        return RowRun{};
      }
      Preload(*db, s);
      RowRun run = Replay(s, checker, direct(*db));
      if (!db->Sync(&error)) {
        checker->Fatal("ladder sync: " + error);
      }
      run.digest = Digest(*db);
      db.reset();
      if (row == kDurable) {
        RemoveDir(rc.dir);
      }
      return run;
    }
  }
  return RowRun{};
}

// Runs `rows` `repeats` times, interleaved, and returns each row's median
// cost (per op, or per write for the durability rows); `each_repeat` runs
// at the start of every repeat.  Every run of every row must end in the
// same state with the same answers.
std::map<Row, double> RunLadder(const Options& options, const LadderStream& s,
                                const std::vector<Row>& rows, int repeats,
                                const std::function<void()>& each_repeat,
                                Report* report, Checker* checker) {
  std::map<Row, std::vector<double>> ns;
  uint64_t digest = 0;
  uint64_t response_digest = 0;
  bool first = true;
  for (int rep = 0; rep < repeats; rep++) {
    if (each_repeat) {
      each_repeat();
    }
    for (const Row row : rows) {
      const RowRun run = RunRow(row, options, s, checker);
      ns[row].push_back(row == kPassthrough || row == kDurable
                            ? run.ns_per_write
                            : run.ns_per_op);
      if (first) {
        digest = run.digest;
        response_digest = run.response_digest;
        first = false;
      } else if (run.digest != digest) {
        checker->Fatal(std::string("ladder row ") + kRowNames[row] +
                       " ended in a different state than the first row");
      } else if (run.response_digest != response_digest) {
        checker->Fatal(std::string("ladder row ") + kRowNames[row] +
                       " answered differently than the first row");
      }
    }
  }
  report->Comment("ladder digest " + std::to_string(digest) + " over " +
                  std::to_string(rows.size()) + " rows x " +
                  std::to_string(repeats) + " repeats, " +
                  std::to_string(s.preload.size()) + " preload keys, " +
                  std::to_string(s.ops.size()) + " ops");
  std::map<Row, double> medians;
  for (auto& [row, values] : ns) {
    medians[row] = Median(values);
  }
  return medians;
}

}  // namespace

void ServingLadder(const Options& options, const LadderStream& stream,
                   int repeats,
                   const std::function<double()>& single_client_ns_per_op,
                   Report* report, Checker* checker) {
  std::vector<double> single_client;
  std::map<Row, double> ns = RunLadder(
      options, stream, {kCore, kSharded, kServer, kServerRtrace}, repeats,
      [&] { single_client.push_back(single_client_ns_per_op()); }, report,
      checker);
  const double core = ns[kCore];
  const double sharded = ns[kSharded];
  const double server = ns[kServer];
  const double single = Median(single_client);
  report->Layer("ladder.core_ns_per_op", core);
  report->Layer("ladder.sharded_ns_per_op", sharded);
  report->Layer("ladder.server_ns_per_op", server);
  report->Layer("server.routing_ns_per_op", sharded - core);
  report->Layer("server.pipeline_ns_per_op", server - sharded);
  report->Layer("ladder.single_client_ns_per_op", single);
  // core + routing + pipeline (which sums to the server row) against the
  // workload's own single-client loop over the same stream, run separately.
  report->Layer("ladder.accounted_share", single > 0 ? server / single : 0.0);
  report->Layer("obs.rtrace_overhead",
                server > 0 ? ns[kServerRtrace] / server - 1.0 : 0.0);
}

void DurabilityLadder(const Options& options, const LadderStream& stream,
                      int repeats, Report* report, Checker* checker) {
  std::map<Row, double> ns =
      RunLadder(options, stream, {kPassthrough, kDurable}, repeats, nullptr,
                report, checker);
  report->Layer("ladder.passthrough_ns_per_write", ns[kPassthrough]);
  report->Layer("ladder.durable_ns_per_write", ns[kDurable]);
  report->Layer("recovery.wal_ns_per_write", ns[kDurable] - ns[kPassthrough]);
}

void EpochPeak::Sample(uint64_t pending, uint64_t lag) {
  pending_max = std::max(pending_max, pending);
  lag_max = std::max(lag_max, lag);
}

void EmitEpochLayer(const EpochPeak& peak, const dytis::EpochStats& e,
                    Report* report) {
  report->Layer("sync.retired_total", static_cast<double>(e.retired_total));
  report->Layer("sync.reclaimed_total",
                static_cast<double>(e.reclaimed_total));
  report->Layer("sync.retired_pending_max",
                static_cast<double>(
                    std::max(peak.pending_max, e.retired_pending)));
  report->Layer("sync.advance_failures",
                static_cast<double>(e.advance_failures));
  report->Layer("sync.epoch_lag_max",
                static_cast<double>(std::max(peak.lag_max, e.epoch_lag)));
}

void EmitServerLayer(const DyTISServer& server, Samples* batch_ns,
                     Report* report) {
  const dytis::server::ServerStats st = server.Stats();
  const DyTISServer::Breakdown bd = server.BreakdownLatency();
  const dytis::LatencyRecorder service = server.ServiceLatency();
  report->Layer("server.batch_ns.p50", batch_ns->Quantile(0.50));
  report->Layer("server.batch_ns.p99", batch_ns->Quantile(0.99));
  report->Layer("server.queue_ns.p50",
                static_cast<double>(bd.queue.PercentileNanos(0.50)));
  report->Layer("server.queue_ns.p99",
                static_cast<double>(bd.queue.PercentileNanos(0.99)));
  report->Layer("server.task_service_ns.p50",
                static_cast<double>(bd.service.PercentileNanos(0.50)));
  report->Layer("server.task_service_ns.p99",
                static_cast<double>(bd.service.PercentileNanos(0.99)));
  report->Layer("server.op_service_ns.p50",
                static_cast<double>(service.PercentileNanos(0.50)));
  report->Layer("server.op_service_ns.p99",
                static_cast<double>(service.PercentileNanos(0.99)));
  report->Layer("server.handoffs_per_batch",
                st.batches > 0 ? static_cast<double>(st.shard_handoffs) /
                                     static_cast<double>(st.batches)
                               : 0.0);
  report->Layer("server.queue_depth_peak",
                static_cast<double>(st.queue_depth_peak));
  uint64_t max_shard = 0;
  uint64_t sum = 0;
  for (const uint64_t n : st.shard_requests) {
    max_shard = std::max(max_shard, n);
    sum += n;
  }
  report->Layer("server.shard_skew",
                sum > 0 ? static_cast<double>(max_shard) *
                              static_cast<double>(st.shard_requests.size()) /
                              static_cast<double>(sum)
                        : 0.0);
}

void EmitRecoveryLayer(const RecoveryLayer& r, Report* report) {
  report->Layer("recovery.fsyncs", static_cast<double>(r.fsync.count()));
  report->Layer("recovery.fsync_ns.p50",
                static_cast<double>(r.fsync.PercentileNanos(0.50)));
  report->Layer("recovery.fsync_ns.p99",
                static_cast<double>(r.fsync.PercentileNanos(0.99)));
  report->Layer("recovery.wal_bytes_per_user_byte",
                r.user_bytes > 0 ? static_cast<double>(r.wal_bytes) /
                                       static_cast<double>(r.user_bytes)
                                 : 0.0);
  double total_s = 0;
  double max_s = 0;
  for (const double s : r.checkpoint_s) {
    total_s += s;
    max_s = std::max(max_s, s);
  }
  report->Layer("recovery.checkpoints",
                static_cast<double>(r.checkpoint_s.size()));
  report->Layer("recovery.checkpoint_s.max", max_s);
  report->Layer("recovery.checkpoint_mib_per_s",
                total_s > 0 ? static_cast<double>(r.checkpoint_bytes) /
                                  (1024.0 * 1024.0) / total_s
                            : 0.0);
  report->Layer("recovery.replayed_records",
                static_cast<double>(r.replayed_records));
  report->Layer("recovery.replay_mkeys_per_s",
                r.open_ns > 0 ? static_cast<double>(r.open_keys) * 1e3 /
                                    static_cast<double>(r.open_ns)
                              : 0.0);
  report->Layer("recovery.open_s", static_cast<double>(r.open_ns) / 1e9);
}

void EmitCoreCalls(CoreCalls* calls, Report* report) {
  if (calls->find.count() > 0) {
    report->Layer("core.find_ns.p50", calls->find.Quantile(0.50));
    report->Layer("core.find_ns.p999", calls->find.Quantile(0.999));
  }
  if (calls->scan.count() > 0) {
    report->Layer("core.scan_ns.p50", calls->scan.Quantile(0.50));
    report->Layer("core.scan_ns.p999", calls->scan.Quantile(0.999));
  }
  if (calls->inserts.empty()) {
    return;
  }
  Samples inserts;
  for (const auto& [ns, moved] : calls->inserts) {
    inserts.Add(ns);
  }
  const double p999 = inserts.Quantile(0.999);
  report->Layer("core.insert_ns.p50", inserts.Quantile(0.50));
  report->Layer("core.insert_ns.p999", p999);
  report->Layer("core.insert_ns.p9999", inserts.Quantile(0.9999));
  uint64_t tail = 0;
  uint64_t tail_moved = 0;
  for (const auto& [ns, moved] : calls->inserts) {
    if (static_cast<double>(ns) > p999) {
      tail++;
      tail_moved += moved ? 1 : 0;
    }
  }
  report->Layer("core.tail_structural_fraction",
                tail > 0 ? static_cast<double>(tail_moved) /
                               static_cast<double>(tail)
                         : 0.0);
}

dytis::LatencyRecorder RegistryHistogram(const char* name) {
  return dytis::obs::MetricsRegistry::Global().GetHistogram(name).Snapshot();
}

dytis::LatencyRecorder HistogramDelta(const dytis::LatencyRecorder& before,
                                      const dytis::LatencyRecorder& after) {
  std::map<uint64_t, uint64_t> counts;
  for (const auto& b : after.ExportBuckets()) {
    counts[b.midpoint_nanos] += b.count;
  }
  for (const auto& b : before.ExportBuckets()) {
    counts[b.midpoint_nanos] -= b.count;
  }
  dytis::LatencyRecorder delta;
  for (const auto& [midpoint, n] : counts) {
    for (uint64_t i = 0; i < n; i++) {
      delta.Record(midpoint);
    }
  }
  return delta;
}

}  // namespace dytisbench
