// Shared pieces of dytisbench: run options, exact sample
// quantiles, correctness accounting, the metric report, the span tracer, and
// the layer ladder.  dytisbench measures every layer from outside, by timing
// its own calls into public functions and reading public accessors; nothing
// here reaches into the library's internals.
#ifndef DYTIS_BENCHMARK_BENCH_H_
#define DYTIS_BENCHMARK_BENCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/server/server.h"
#include "src/sync/ebr.h"
#include "src/util/latency_recorder.h"
#include "src/util/timer.h"

namespace dytisbench {

using dytis::NowNanos;

// --- Run options ------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // rounds start until this much time has passed
  bool traced = false;
  bool smoke = false;     // ~1/50 scale, minimum rounds, checks all on
  std::string work_dir = "build-benchmark";  // traces and durable dirs
};

// Full-scale count, or ~1/50 of it (at least `floor`) under --smoke.
size_t Scaled(const Options& options, size_t full, size_t floor = 2'000);

// --- Keys, values, digests --------------------------------------------------

uint64_t Mix64(uint64_t z);

// Order-sensitive hash of a key sequence (input provenance).
uint64_t HashKeys(const std::vector<uint64_t>& keys, uint64_t h = 0);

// Every stored value is a pure function of its key: one of the loadgen's
// three value functions (src/server/loadgen.h).  A read that returns
// anything else is a failed op.
bool IsValueOf(uint64_t key, uint64_t value);

// Order-sensitive digest of an index's full (key, value) content.  Works for
// every index type used here (BasicDyTIS, ShardedDyTIS, DurableDyTIS).
template <typename Index>
uint64_t Digest(const Index& index) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  index.ForEach([&h](uint64_t key, const uint64_t& value) {
    h = Mix64(h ^ Mix64(key));
    h = Mix64(h ^ Mix64(value));
  });
  return h;
}

// DyTIS configuration for an index that will hold about `num_keys` keys:
// ~8K keys per first-level table and L_start = 4, the scaling the paper
// benches use at this size.  Pinned here, not taken from bench/, so edits to
// the paper benches never move this benchmark.
dytis::DyTISConfig ConfigFor(size_t num_keys);

// Seed-fixed 1-in-8 op sample: op `i` of a stream is timed when this holds.
inline bool Sampled(uint64_t seed, uint64_t i) {
  return (Mix64(seed ^ (0x9E3779B97F4A7C15ULL * (i + 1))) & 7) == 0;
}

// --- Exact quantiles over raw samples ----------------------------------------

// Latency samples in nanoseconds with integer weights (a served batch's
// completion time counts once per op it carried, a 1-in-8 sampled op for
// eight).  Quantiles are exact over the raw samples, not a histogram
// bucket's midpoint.
class Samples {
 public:
  void Add(uint64_t ns, uint32_t weight = 1);
  void Merge(const Samples& other);
  uint64_t count() const { return total_weight_; }
  double Quantile(double q);  // ns; 0 when empty

 private:
  std::vector<std::pair<uint64_t, uint32_t>> values_;
  uint64_t total_weight_ = 0;
  bool sorted_ = true;
};

double Median(std::vector<double> values);

// --- Correctness accounting --------------------------------------------------

// Counts checked ops and failed ones (thread-safe); run-fatal checks make
// the run exit nonzero.
class Checker {
 public:
  void Op(bool ok, const char* what, uint64_t key);
  void Ops(uint64_t n) { attempted_.fetch_add(n, std::memory_order_relaxed); }
  void Fatal(const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  bool fatal() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> fatal_;  // guarded by mu_
  uint64_t reported_ = 0;           // guarded by mu_
};

// --- Metric report -----------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  // Provenance lines (hashes) that are printed but are not metrics.
  void Provenance(const std::string& name, uint64_t value);
  // Per-layer values; one never set prints as 0, marked not-crossed.
  void Layer(const std::string& name, double value);
  // Free-form `# ...` line printed before the metrics.
  void Comment(const std::string& line);

  // `name value unit [note]` lines, then the one-line JSON result.  Returns
  // whether the run is correct: every metric present, no failed op, no
  // failed run-fatal check.
  bool Print(bool traced, const Checker& checker) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, uint64_t>> provenance_;
  std::map<std::string, double> layer_;
  std::vector<std::string> comments_;
};

// --- Span tracer -------------------------------------------------------------

enum class SpanName : uint16_t {
  kRound,
  kSetup,
  kMeasure,
  kVerify,
  kGet,
  kInsert,
  kUpdate,
  kErase,
  kScan,
  kBatch,
  kCheckpoint,
  kOpen,
  kCrashCheck,
  kLadderRow,
  kSingleClient,
};
const char* SpanNameString(SpanName name);

// Spans around dytisbench's own calls: name, start, end, parent, request
// id.  Each thread records into its own preallocated buffer (a bound slot);
// spans that do not fit are dropped and counted.  Off (the untraced run)
// every call is one branch.
class Tracer {
 public:
  static constexpr int kSlots = 4;  // main thread + up to 3 clients

  static Tracer& Get();

  void Enable(size_t main_capacity, size_t client_capacity);
  // Drops every recorded span (buffers keep their capacity).
  void Clear();
  void SetRecording(bool on) { recording_.store(on); }
  bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  // Binds the calling thread to buffer `slot` (0 is the main thread).
  void Bind(int slot);

  // Opens a span on the calling thread; its parent is the thread's innermost
  // open span, or `parent` when that is nonzero (cross-thread parents).
  // Returns 0 when not recording.
  uint64_t Begin(SpanName name, uint64_t request = 0, uint64_t parent = 0);
  void End(uint64_t span);

  uint64_t recorded() const;
  uint64_t dropped() const;

  // Writes the Chrome trace (first 100K spans plus every span above its
  // name's p99.9) and the per-name summary with self times; returns the
  // summary rows for the report.
  struct NameSummary {
    std::string name;
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
    double p50_ns = 0;
    double p99_ns = 0;
    double p999_ns = 0;
  };
  std::vector<NameSummary> Finish(const std::string& chrome_path) const;

 private:
  struct Record {
    uint64_t begin_ns;
    uint64_t end_ns;
    uint64_t request;
    uint64_t parent;
    SpanName name;
  };
  const Record& Lookup(uint64_t span) const;

  struct Buffer {
    std::vector<Record> spans;
    std::vector<uint64_t> open;  // stack of open span ids
    uint64_t dropped = 0;
  };

  std::atomic<bool> recording_{false};
  Buffer buffers_[kSlots];
};

// RAII span; a no-op while the tracer is not recording.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, uint64_t request = 0,
                      uint64_t parent = 0)
      : id_(Tracer::Get().Begin(name, request, parent)) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      Tracer::Get().End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
};

// --- Served-response checks --------------------------------------------------

// Checks one response against the op-stream contract every workload's
// generator keeps: a get targets a live key and reads one of its value
// functions; a put inserts a fresh key; an update or erase targets a live
// key; a scan returns between `scan_min` and scan_count entries.
bool ResponseOk(const dytis::server::Request& request,
                const dytis::server::Response& response, uint32_t scan_min);

// Entries a scan of `count` from `start` must at least return when every
// key of `sorted` is live: min(count, keys >= start).
uint32_t ScanFloor(const std::vector<uint64_t>& sorted, uint64_t start,
                   uint32_t count);

// --- Layer ladders -----------------------------------------------------------

// One op stream replayed single-client, batch by batch, through each layer
// in turn.  Every row starts from the same preload and must end with the
// same digest and the same response digest.
struct LadderStream {
  std::vector<dytis::server::Request> preload;  // kPut requests, untimed
  std::vector<dytis::server::Request> ops;      // timed, in batches
  std::vector<uint32_t> scan_min;               // per op, for ResponseOk
};

// `served-closed`: BasicDyTIS direct, ShardedDyTIS direct, then
// DyTISServer::ExecuteBatch with the request tracer off and on.  Writes
// ladder.{core,sharded,server}_ns_per_op, server.{routing,pipeline}_ns_per_op,
// obs.rtrace_overhead, and ladder.accounted_share against
// `single_client_ns_per_op`, which runs the workload's own closed loop with
// one client over the same stream once per repeat and returns its cost.
void ServingLadder(const Options& options, const LadderStream& stream,
                   int repeats,
                   const std::function<double()>& single_client_ns_per_op,
                   Report* report, Checker* checker);

// `durable-writes`: DurableDyTIS with durability off, then on.  Writes
// ladder.{passthrough,durable}_ns_per_write and recovery.wal_ns_per_write.
void DurabilityLadder(const Options& options, const LadderStream& stream,
                      int repeats, Report* report, Checker* checker);

// --- Layer values of the workloads' own layers -------------------------------
//
// A workload reports the layers it crosses; a layer it does not cross reads
// 0, marked not-crossed.

// Timed direct calls into a BasicDyTIS: core.{find,scan,insert}_ns
// and core.tail_structural_fraction, for the call kinds that were timed.
struct CoreCalls {
  Samples find;
  Samples scan;
  std::vector<std::pair<uint64_t, bool>> inserts;  // ns, structure changed
};
void EmitCoreCalls(CoreCalls* calls, Report* report);

// Epoch-reclamation peaks sampled while an index is in use.
struct EpochPeak {
  uint64_t pending_max = 0;
  uint64_t lag_max = 0;
  void Sample(uint64_t pending, uint64_t lag);
};
void EmitEpochLayer(const EpochPeak& peak, const dytis::EpochStats& final_stats,
                    Report* report);

// server.*: client-side batch times plus the server's own accessors.
void EmitServerLayer(const dytis::server::DyTISServer& server,
                     Samples* batch_ns, Report* report);

// recovery.*: WAL, checkpoint and Open() figures of one durable index.
struct RecoveryLayer {
  dytis::LatencyRecorder fsync;  // wal.fsync_ns recorded during the writes
  uint64_t wal_bytes = 0;        // WAL size before each checkpoint, summed
  uint64_t user_bytes = 0;       // key+value bytes logged in that span
  std::vector<double> checkpoint_s;
  uint64_t checkpoint_bytes = 0;  // checkpoint file sizes, summed
  uint64_t open_ns = 0;
  uint64_t open_keys = 0;         // checkpoint entries + replayed records
  uint64_t replayed_records = 0;
};
void EmitRecoveryLayer(const RecoveryLayer& layer, Report* report);

// Copy of a registry histogram, and the samples recorded between two copies.
dytis::LatencyRecorder RegistryHistogram(const char* name);
dytis::LatencyRecorder HistogramDelta(const dytis::LatencyRecorder& before,
                                      const dytis::LatencyRecorder& after);

// Fresh directory for a durable index under the run's work dir.
std::string FreshDir(const Options& options, const std::string& name);
void RemoveDir(const std::string& dir);
uint64_t FileBytes(const std::string& path);

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  void (*run)(const Options& options, Report* report, Checker* checker);
};
const std::vector<Workload>& Workloads();

// Every end-to-end metric, in BENCHMARK.json order, and every per-layer one.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

}  // namespace dytisbench

#endif  // DYTIS_BENCHMARK_BENCH_H_
