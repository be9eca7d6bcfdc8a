// The five workloads.
//
// A run generates its inputs from --seed before any timer starts, then runs
// identical rounds — a fresh system under test, its set-up, the measured
// phase, the checks — until --seconds have passed.  Every round must reach
// the same state (state_hash), so a round is also a determinism check.
//
// Each round is the whole workload, stalls included, so its set-up time,
// throughput and latency quantiles describe the workload.  The first round
// warms the allocator, the page tables and the caches and is checked but not
// reported; every value is the median over the remaining rounds.
//
// An untraced run reports the end-to-end metrics: set-up time and memory per
// key.  Throughput and the latency quantiles move by 10-40% between runs on
// a shared host, far past the 10% a gate could hold, so they are per-layer
// values of the traced run, taken from its untraced rounds.  A traced run
// alternates untraced and traced rounds and reports the layer values of the
// traced ones; `served-closed` and `durable-writes` then replay their own
// stream through their layer ladder (ladder.cc).
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "benchmark/bench.h"
#include "src/core/dytis.h"
#include "src/datasets/dataset.h"
#include "src/recovery/durable_dytis.h"
#include "src/recovery/wal.h"
#include "src/server/loadgen.h"
#include "src/server/sharded_dytis.h"
#include "src/util/rng.h"

namespace dytisbench {
namespace {

using dytis::server::DyTISServer;
using dytis::server::InsertValueFor;
using dytis::server::LoadGenOptions;
using dytis::server::OpType;
using dytis::server::PreloadValueFor;
using dytis::server::Request;
using dytis::server::Response;
using dytis::server::ServerIndex;
using dytis::server::UpdateValueFor;
using Index = dytis::DyTIS<uint64_t>;
using Durable = dytis::recovery::DurableIndex<uint64_t>;
using Entry = std::pair<uint64_t, uint64_t>;

constexpr uint32_t kScanLength = 100;
constexpr size_t kBatch = 64;
constexpr uint32_t kShards = 2;
constexpr int kClients = 2;
constexpr int kMaxRounds = 200;
constexpr int kLadderRepeats = 3;
constexpr uint64_t kWalSyncEvery = 64;

// --- Rounds ------------------------------------------------------------------

// One round's latency samples by op kind; `request` pools every op of the
// measured phase as its caller saw it.
struct OpSamples {
  Samples get;
  Samples write;
  Samples scan;
  Samples request;

  void Merge(const OpSamples& other) {
    get.Merge(other.get);
    write.Merge(other.write);
    scan.Merge(other.scan);
    request.Merge(other.request);
  }
};

constexpr int kKinds = 4;
const char* const kKindNames[kKinds] = {"get", "write", "scan", "request"};

struct RoundResult {
  bool warmup = false;
  bool traced = false;
  // served-open: the server did not keep up with the offered rate, so the
  // round's throughput and latencies are not a load point.
  bool saturated = false;
  double setup_s = 0;
  double throughput_mops = 0;
  double bytes_per_key = 0;
  uint64_t state_hash = 0;
  double p50_us[kKinds] = {};
  double p99_us[kKinds] = {};
  uint64_t samples[kKinds] = {};
};

void Summarize(OpSamples* s, RoundResult* r) {
  Samples* kinds[kKinds] = {&s->get, &s->write, &s->scan, &s->request};
  for (int k = 0; k < kKinds; k++) {
    r->p50_us[k] = kinds[k]->Quantile(0.50) / 1e3;
    r->p99_us[k] = kinds[k]->Quantile(0.99) / 1e3;
    r->samples[k] = kinds[k]->count();
  }
}

// Runs a warm-up round, then rounds until options.seconds have passed since
// the start: at least one more under --smoke, three more otherwise.  A
// traced run alternates traced and untraced rounds after the warm-up (at
// least one of each under --smoke, two otherwise), so obs.trace_overhead
// compares like with like.
template <typename Fn>
std::vector<RoundResult> RunRounds(const Options& o, Fn&& round) {
  const int min_rounds = (o.smoke ? 2 : 4) + (o.traced ? 1 : 0);
  std::vector<RoundResult> results;
  const uint64_t start = NowNanos();
  for (int r = 0; r < kMaxRounds; r++) {
    const double elapsed = static_cast<double>(NowNanos() - start) / 1e9;
    if (r >= min_rounds && (o.smoke || elapsed >= o.seconds)) {
      break;
    }
    RoundResult res;
    res.warmup = r == 0;
    res.traced = o.traced && r % 2 == 1;
    Tracer::Get().SetRecording(res.traced);
    {
      ScopedSpan span(SpanName::kRound, static_cast<uint64_t>(r));
      round(&res);
    }
    Tracer::Get().SetRecording(false);
    results.push_back(res);
  }
  return results;
}

// Median over the rounds that `keep` accepts of the value `get` reads.
template <typename Keep, typename Get>
double MedianOf(const std::vector<RoundResult>& rounds, Keep&& keep,
                Get&& get) {
  std::vector<double> values;
  for (const RoundResult& r : rounds) {
    if (keep(r)) {
      values.push_back(get(r));
    }
  }
  return Median(values);
}

// End-to-end metrics (untraced run), or the timing values and
// obs.trace_overhead (traced run), plus the cross-round state check.
void EmitRounds(const Options& o, const std::vector<RoundResult>& rounds,
                Report* report, Checker* checker) {
  int measured = 0;
  int saturated = 0;
  for (size_t i = 0; i < rounds.size(); i++) {
    const RoundResult& r = rounds[i];
    if (r.state_hash != rounds[0].state_hash) {
      checker->Fatal("round " + std::to_string(i) +
                     " ended in a different state than round 0");
    }
    measured += r.warmup || r.traced ? 0 : 1;
    saturated += !r.warmup && !r.traced && r.saturated ? 1 : 0;
    char line[192];
    std::snprintf(line, sizeof(line),
                  "round %zu%s%s%s setup_s=%.4f throughput_mops=%.4f "
                  "request_p50_us=%.4f request_p99_us=%.4f",
                  i, r.warmup ? " warm-up" : "", r.traced ? " traced" : "",
                  r.saturated ? " saturated" : "", r.setup_s,
                  r.throughput_mops, r.p50_us[3], r.p99_us[3]);
    report->Comment(line);
  }
  report->Provenance("state_hash", rounds[0].state_hash);
  auto untraced = [](const RoundResult& r) {
    return !r.warmup && !r.traced;
  };
  auto load_point = [](const RoundResult& r) {
    return !r.warmup && !r.traced && !r.saturated;
  };
  auto tput = [](const RoundResult& r) { return r.throughput_mops; };
  if (saturated > 0) {
    report->Comment(std::to_string(saturated) + " of " +
                    std::to_string(measured) +
                    " rounds saturated: left out of throughput and latency");
  }
  if (saturated == measured) {
    // No round is a load point, so the run has no latency to report.
    checker->Fatal("every measured round saturated");
  }
  if (!o.traced) {
    const std::string note = "median rounds=" + std::to_string(measured);
    report->Add("setup_s",
                MedianOf(rounds, untraced,
                         [](const RoundResult& r) { return r.setup_s; }),
                "s", note);
    report->Add("bytes_per_key",
                MedianOf(rounds, untraced,
                         [](const RoundResult& r) { return r.bytes_per_key; }),
                "B/key", note);
    return;
  }
  const double untraced_tput = MedianOf(rounds, load_point, tput);
  const double traced_tput =
      MedianOf(rounds, [](const RoundResult& r) { return r.traced; }, tput);
  // Extra time per op with spans on: untraced / traced throughput - 1.
  report->Layer("obs.trace_overhead",
                traced_tput > 0 ? untraced_tput / traced_tput - 1.0 : 0.0);
  report->Layer("throughput_mops", untraced_tput);
  std::string samples = "timing: median of " +
                        std::to_string(measured - saturated) +
                        " untraced rounds; samples per round:";
  for (int k = 0; k < kKinds; k++) {
    uint64_t n = UINT64_MAX;
    for (const RoundResult& r : rounds) {
      n = load_point(r) ? std::min(n, r.samples[k]) : n;
    }
    samples += std::string(" ") + kKindNames[k] + "=" + std::to_string(n);
    report->Layer(std::string(kKindNames[k]) + "_p50_us",
                  MedianOf(rounds, load_point,
                           [k](const RoundResult& r) { return r.p50_us[k]; }));
    report->Layer(std::string(kKindNames[k]) + "_p99_us",
                  MedianOf(rounds, load_point,
                           [k](const RoundResult& r) { return r.p99_us[k]; }));
  }
  report->Comment(samples);
}

// --- Op helpers --------------------------------------------------------------

// Per-thread tally of checked ops; flushed to the Checker at scope exit.
class OpCount {
 public:
  explicit OpCount(Checker* checker) : checker_(checker) {}
  ~OpCount() { checker_->Ops(ops_ - bad_); }
  OpCount(const OpCount&) = delete;
  OpCount& operator=(const OpCount&) = delete;

  void Ok(bool ok, const char* what, uint64_t key) {
    ops_++;
    if (!ok) {
      bad_++;
      checker_->Op(false, what, key);
    }
  }

 private:
  Checker* checker_;
  uint64_t ops_ = 0;
  uint64_t bad_ = 0;
};

// Timing weights.  Frequent fast ops are timed on a seed-fixed 1-in-8
// sample, so clock reads do not dilute throughput; rare or slow kinds are
// timed in full, so their quantiles rest on enough samples.  In the pooled
// `request` samples each timed op counts for the ops it stands for.
constexpr uint32_t kUntimed = 0;
constexpr uint32_t kEvery = 1;
inline uint32_t OneIn8(uint64_t seed, uint64_t i) {
  return Sampled(seed, i) ? 8 : kUntimed;
}

// Runs `op`; when `weight` is nonzero, times it under a span into `kind`
// and `core`, and into `all` with that weight (each optional).
template <typename Fn>
auto Timed(uint32_t weight, SpanName name, uint64_t id, Samples* kind,
           Samples* all, Samples* core, Fn&& op) -> decltype(op()) {
  if (weight == kUntimed) {
    return op();
  }
  ScopedSpan span(name, id);
  const uint64_t t0 = NowNanos();
  auto result = op();
  const uint64_t dt = NowNanos() - t0;
  for (Samples* s : {kind, core}) {
    if (s != nullptr) {
      s->Add(dt);
    }
  }
  if (all != nullptr) {
    all->Add(dt, weight);
  }
  return result;
}

// Inserts directly into a BasicDyTIS.  A timed insert (nonzero `weight`)
// goes into `samples` (write + request) when given, and into `calls` with
// whether a structural counter moved during the insert when given.
template <typename I>
dytis::InsertResult Insert(I& index, uint64_t key, uint64_t value,
                           uint64_t id, uint32_t weight, OpSamples* samples,
                           CoreCalls* calls) {
  if (weight == kUntimed) {
    return index.InsertEx(key, value);
  }
  ScopedSpan span(SpanName::kInsert, id);
  const uint64_t s0 = calls != nullptr ? index.stats().StructuralOps() : 0;
  const uint64_t t0 = NowNanos();
  const dytis::InsertResult r = index.InsertEx(key, value);
  const uint64_t dt = NowNanos() - t0;
  if (samples != nullptr) {
    samples->write.Add(dt);
    samples->request.Add(dt, weight);
  }
  if (calls != nullptr) {
    calls->inserts.emplace_back(dt, index.stats().StructuralOps() != s0);
  }
  return r;
}

// True when out[0, got) is exactly the run of `sorted` from `rank` a scan of
// kScanLength must return, with every value accepted by `valid`.
template <typename Valid>
bool ScanMatches(const Entry* out, size_t got,
                 const std::vector<uint64_t>& sorted, size_t rank,
                 Valid&& valid) {
  const size_t want = std::min<size_t>(kScanLength, sorted.size() - rank);
  if (got != want) {
    return false;
  }
  for (size_t i = 0; i < got; i++) {
    if (out[i].first != sorted[rank + i] ||
        !valid(out[i].first, out[i].second)) {
      return false;
    }
  }
  return true;
}

// core.* structure counters of the workload's own index (summed over its
// parts: one index, or the shards of a sharded one) for one traced round
// whose index work took `busy_ns` of wall time.
template <typename I>
void EmitCoreIndexLayer(const std::vector<const I*>& parts, uint64_t busy_ns,
                        bool concurrent, Report* report) {
  dytis::DyTISStatsView s;
  uint64_t segments = 0;
  uint64_t directory = 0;
  uint64_t stash = 0;
  uint64_t keys = 0;
  uint64_t slots = 0;
  for (const I* p : parts) {
    const dytis::DyTISStatsView v = p->stats().View();
    s.splits += v.splits;
    s.expansions += v.expansions;
    s.remappings += v.remappings;
    s.remap_failures += v.remap_failures;
    s.doublings += v.doublings;
    s.merges += v.merges;
    s.stash_inserts += v.stash_inserts;
    s.hard_errors += v.hard_errors;
    s.split_ns += v.split_ns;
    s.expansion_ns += v.expansion_ns;
    s.remap_ns += v.remap_ns;
    s.doubling_ns += v.doubling_ns;
    s.optimistic_read_retries += v.optimistic_read_retries;
    s.optimistic_read_fallbacks += v.optimistic_read_fallbacks;
    segments += p->NumSegments();
    directory += p->DirectoryEntries();
    stash += p->StashEntries();
    keys += p->size();
    slots += p->BucketSlots();
  }
  auto count = [&](const char* name, uint64_t v) {
    report->Layer(name, static_cast<double>(v));
  };
  count("core.splits", s.splits);
  count("core.expansions", s.expansions);
  count("core.remappings", s.remappings);
  count("core.remap_failures", s.remap_failures);
  count("core.doublings", s.doublings);
  count("core.merges", s.merges);
  count("core.stash_inserts", s.stash_inserts);
  count("core.hard_errors", s.hard_errors);
  report->Layer("core.split_s", static_cast<double>(s.split_ns) / 1e9);
  report->Layer("core.expansion_s", static_cast<double>(s.expansion_ns) / 1e9);
  report->Layer("core.remap_s", static_cast<double>(s.remap_ns) / 1e9);
  report->Layer("core.doubling_s", static_cast<double>(s.doubling_ns) / 1e9);
  const uint64_t structural =
      s.split_ns + s.expansion_ns + s.remap_ns + s.doubling_ns;
  report->Layer("core.structural_share",
                busy_ns > 0 ? static_cast<double>(structural) /
                                  static_cast<double>(busy_ns)
                            : 0.0);
  count("core.segments", segments);
  count("core.directory_entries", directory);
  count("core.stash_entries", stash);
  report->Layer("core.slot_fill", slots > 0 ? static_cast<double>(keys) /
                                                  static_cast<double>(slots)
                                            : 0.0);
  if (concurrent) {
    count("core.optimistic_read_retries", s.optimistic_read_retries);
    count("core.optimistic_read_fallbacks", s.optimistic_read_fallbacks);
  }
}

std::vector<Request> PutRequests(const std::vector<uint64_t>& keys,
                                 uint64_t (*value_for)(uint64_t)) {
  std::vector<Request> out;
  out.reserve(keys.size());
  for (const uint64_t k : keys) {
    Request r;
    r.op = OpType::kPut;
    r.key = k;
    r.value = value_for(k);
    out.push_back(r);
  }
  return out;
}

// --- ingest-tx ---------------------------------------------------------------
//
// TX keys inserted in temporal order into a fresh single-threaded index: the
// high-drift case DyTIS targets, dominated by core inserts and structural
// work.  Set-up builds the index and ingests the first 1/8 of the stream;
// the measured phase ingests the rest.  A read-back phase then finds a
// sample of the keys and scans from a sample of them (get_*/scan_*), outside
// the throughput window.

void IngestTx(const Options& o, Report* report, Checker* checker) {
  const size_t n = Scaled(o, 4'000'000);
  const std::vector<uint64_t> keys =
      dytis::MakeDataset(dytis::DatasetId::kTaxi, n, o.seed).keys;
  std::vector<uint64_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  report->Provenance("input_hash", HashKeys(keys));
  const size_t history = n / 8;
  CoreCalls calls;
  std::vector<Entry> buf(kScanLength);
  auto is_insert_value = [](uint64_t k, uint64_t v) {
    return v == InsertValueFor(k);
  };

  const auto rounds = RunRounds(o, [&](RoundResult* res) {
    OpSamples samples;
    CoreCalls* traced_calls = res->traced ? &calls : nullptr;
    const uint64_t t0 = NowNanos();
    auto index = std::make_unique<Index>(ConfigFor(n));
    {
      ScopedSpan span(SpanName::kSetup);
      OpCount count(checker);
      for (size_t i = 0; i < history; i++) {
        const uint32_t weight =
            traced_calls != nullptr ? OneIn8(o.seed, i) : kUntimed;
        count.Ok(dytis::IsNewKey(Insert(*index, keys[i],
                                        InsertValueFor(keys[i]), i, weight,
                                        nullptr, traced_calls)),
                 "ingest insert", keys[i]);
      }
    }
    const uint64_t t1 = NowNanos();
    {
      ScopedSpan span(SpanName::kMeasure);
      OpCount count(checker);
      for (size_t i = history; i < n; i++) {
        count.Ok(dytis::IsNewKey(Insert(*index, keys[i],
                                        InsertValueFor(keys[i]), i,
                                        OneIn8(o.seed, i), &samples,
                                        traced_calls)),
                 "ingest insert", keys[i]);
      }
    }
    const uint64_t t2 = NowNanos();
    {
      ScopedSpan span(SpanName::kVerify);
      OpCount count(checker);
      for (size_t i = 0; i < n; i += 16) {
        uint64_t v = 0;
        const bool found = Timed(
            true, SpanName::kGet, i, &samples.get, nullptr,
            traced_calls != nullptr ? &calls.find : nullptr,
            [&] { return index->Find(keys[i], &v); });
        count.Ok(found && v == InsertValueFor(keys[i]), "find", keys[i]);
      }
      for (size_t j = 0; j < n; j += 128) {
        const size_t got = Timed(
            true, SpanName::kScan, j, &samples.scan, nullptr,
            traced_calls != nullptr ? &calls.scan : nullptr,
            [&] { return index->Scan(sorted[j], kScanLength, buf.data()); });
        count.Ok(ScanMatches(buf.data(), got, sorted, j, is_insert_value),
                 "scan", sorted[j]);
      }
    }
    const auto invariants = index->CheckInvariants();
    if (!invariants.ok()) {
      checker->Fatal("ingest-tx invariants: " + invariants.Describe());
    }
    res->setup_s = static_cast<double>(t1 - t0) / 1e9;
    res->throughput_mops =
        static_cast<double>(n - history) * 1e3 / static_cast<double>(t2 - t1);
    res->state_hash = Digest(*index);
    res->bytes_per_key = static_cast<double>(index->MemoryBytes()) /
                         static_cast<double>(index->size());
    if (res->traced) {
      EmitCoreIndexLayer<Index>({index.get()}, t2 - t0, false, report);
    }
    Summarize(&samples, res);
  });
  EmitRounds(o, rounds, report, checker);
  if (o.traced) {
    EmitCoreCalls(&calls, report);
  }
}

// --- lookup-rl ---------------------------------------------------------------
//
// Shuffled RL keys (high skew) preloaded, then uniform point lookups with 5%
// Scan(100) and 1% in-place updates.  Isolates the core read path with cache
// misses; updates overwrite values in place, so no structural operation
// runs in the measured phase.

struct LookupOp {
  uint32_t rank;  // into the sorted key set
  OpType op;
};

std::vector<LookupOp> LookupOps(size_t num_keys, size_t count, uint64_t seed) {
  std::vector<LookupOp> ops(count);
  dytis::Rng rng(Mix64(seed ^ 0x100C0DEULL));
  for (LookupOp& op : ops) {
    const uint64_t r = rng.NextBelow(100);
    op.op = r < 94 ? OpType::kGet : (r < 99 ? OpType::kScan : OpType::kUpdate);
    op.rank = static_cast<uint32_t>(rng.NextBelow(num_keys));
  }
  return ops;
}

void LookupRl(const Options& o, Report* report, Checker* checker) {
  const size_t n = Scaled(o, 1'000'000);
  const size_t m = Scaled(o, 1'000'000);
  const std::vector<uint64_t> keys =
      dytis::MakeDataset(dytis::DatasetId::kReviewL, n, o.seed,
                         /*shuffled=*/true)
          .keys;
  std::vector<uint64_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  const std::vector<LookupOp> ops = LookupOps(n, m, o.seed);
  uint64_t input = HashKeys(keys);
  for (const LookupOp& op : ops) {
    input = Mix64(input ^ (uint64_t{op.rank} << 8) ^
                  static_cast<uint64_t>(op.op));
  }
  report->Provenance("input_hash", input);
  CoreCalls calls;
  std::vector<Entry> buf(kScanLength);
  auto is_stored_value = [](uint64_t k, uint64_t v) {
    return v == PreloadValueFor(k) || v == UpdateValueFor(k);
  };

  const auto rounds = RunRounds(o, [&](RoundResult* res) {
    OpSamples samples;
    CoreCalls* traced_calls = res->traced ? &calls : nullptr;
    const uint64_t t0 = NowNanos();
    auto index = std::make_unique<Index>(ConfigFor(n));
    {
      ScopedSpan span(SpanName::kSetup);
      OpCount count(checker);
      for (size_t i = 0; i < n; i++) {
        const uint32_t weight =
            traced_calls != nullptr ? OneIn8(o.seed, i) : kUntimed;
        count.Ok(dytis::IsNewKey(Insert(*index, keys[i],
                                        PreloadValueFor(keys[i]), i, weight,
                                        nullptr, traced_calls)),
                 "preload insert", keys[i]);
      }
    }
    const uint64_t t1 = NowNanos();
    {
      ScopedSpan span(SpanName::kMeasure);
      OpCount count(checker);
      Samples* core_find = traced_calls != nullptr ? &calls.find : nullptr;
      Samples* core_scan = traced_calls != nullptr ? &calls.scan : nullptr;
      for (size_t i = 0; i < m; i++) {
        const LookupOp op = ops[i];
        const uint64_t key = sorted[op.rank];
        switch (op.op) {
          case OpType::kGet: {
            uint64_t v = 0;
            const bool found =
                Timed(OneIn8(o.seed, i), SpanName::kGet, i, &samples.get,
                      &samples.request, core_find,
                      [&] { return index->Find(key, &v); });
            count.Ok(found && is_stored_value(key, v), "find", key);
            break;
          }
          case OpType::kScan: {
            const size_t got = Timed(
                kEvery, SpanName::kScan, i, &samples.scan, &samples.request,
                core_scan,
                [&] { return index->Scan(key, kScanLength, buf.data()); });
            count.Ok(ScanMatches(buf.data(), got, sorted, op.rank,
                                 is_stored_value),
                     "scan", key);
            break;
          }
          default: {
            const bool updated = Timed(
                kEvery, SpanName::kUpdate, i, &samples.write,
                &samples.request, nullptr,
                [&] { return index->Update(key, UpdateValueFor(key)); });
            count.Ok(updated, "update", key);
            break;
          }
        }
      }
    }
    const uint64_t t2 = NowNanos();
    const auto invariants = index->CheckInvariants();
    if (!invariants.ok()) {
      checker->Fatal("lookup-rl invariants: " + invariants.Describe());
    }
    res->setup_s = static_cast<double>(t1 - t0) / 1e9;
    res->throughput_mops =
        static_cast<double>(m) * 1e3 / static_cast<double>(t2 - t1);
    res->state_hash = Digest(*index);
    res->bytes_per_key = static_cast<double>(index->MemoryBytes()) /
                         static_cast<double>(index->size());
    if (res->traced) {
      EmitCoreIndexLayer<Index>({index.get()}, t2 - t0, false, report);
    }
    Summarize(&samples, res);
  });
  EmitRounds(o, rounds, report, checker);
  if (o.traced) {
    EmitCoreCalls(&calls, report);
  }
}

// --- served-closed / served-open ---------------------------------------------
//
// DyTISServer over two shards, driven with the loadgen's mixed and
// read-mostly tenants: 16 session slots, batches of 64.

LoadGenOptions ServedOptions(uint64_t seed, size_t preload, size_t ops) {
  LoadGenOptions lo;
  lo.seed = seed;
  lo.preload_keys = preload;
  lo.total_ops = ops;
  lo.session_slots = 16;
  lo.batch_size = kBatch;
  dytis::server::TenantMix mixed;  // 50/25/15/5/5, Zipfian 0.99
  dytis::server::TenantMix read_mostly;
  read_mostly.get = 0.90;
  read_mostly.put = 0.05;
  read_mostly.update = 0.05;
  read_mostly.scan = 0.0;
  read_mostly.erase = 0.0;
  read_mostly.zipfian = false;
  lo.tenants = {mixed, read_mostly};
  return lo;
}

struct ServedInput {
  dytis::server::SlotStreams streams;
  std::vector<uint64_t> preload;                // sorted
  std::vector<std::vector<uint32_t>> scan_min;  // per slot, per op
  uint64_t hash = 0;
};

ServedInput MakeServedInput(uint64_t seed, size_t preload, size_t ops) {
  const LoadGenOptions lo = ServedOptions(seed, preload, ops);
  ServedInput in;
  in.streams = dytis::server::GenerateSlotStreams(lo);
  in.preload = dytis::server::PreloadKeys(lo);
  in.scan_min.resize(in.streams.slots.size());
  for (size_t s = 0; s < in.streams.slots.size(); s++) {
    for (const Request& r : in.streams.slots[s]) {
      in.scan_min[s].push_back(
          r.op == OpType::kScan ? ScanFloor(in.preload, r.key, r.scan_count)
                                : 0);
    }
  }
  in.hash = HashKeys(in.preload, dytis::server::StreamHash(in.streams));
  return in;
}

// The closed loop's batch order for one client owning every slot: one batch
// per slot per turn, slots in order.
LadderStream ServedLadder(const ServedInput& in) {
  LadderStream s;
  s.preload = PutRequests(in.preload, PreloadValueFor);
  std::vector<size_t> pos(in.streams.slots.size(), 0);
  for (bool any = true; any;) {
    any = false;
    for (size_t slot = 0; slot < in.streams.slots.size(); slot++) {
      const std::vector<Request>& stream = in.streams.slots[slot];
      const size_t end = std::min(stream.size(), pos[slot] + kBatch);
      for (size_t i = pos[slot]; i < end; i++) {
        s.ops.push_back(stream[i]);
        s.scan_min.push_back(in.scan_min[slot][i]);
      }
      any = any || end > pos[slot];
      pos[slot] = end;
    }
  }
  return s;
}

// Set-up of a served round: a fresh two-shard index and its preload,
// inserted directly into the owning shard.
std::unique_ptr<ServerIndex> BuildServed(const ServedInput& in, uint64_t seed,
                                         CoreCalls* calls, Checker* checker) {
  auto index = std::make_unique<ServerIndex>(
      kShards, dytis::server::ShardScaledConfig(
                   ConfigFor(in.preload.size()), kShards));
  OpCount count(checker);
  for (size_t i = 0; i < in.preload.size(); i++) {
    const uint64_t k = in.preload[i];
    auto& shard = index->shard(index->router().ShardFor(k));
    const uint32_t weight = calls != nullptr ? OneIn8(seed, i) : kUntimed;
    count.Ok(dytis::IsNewKey(Insert(shard, k, PreloadValueFor(k), i, weight,
                                    nullptr, calls)),
             "preload insert", k);
  }
  return index;
}

// Attributes a batch's latency to every op it carried.
void RecordBatch(const Request* q, size_t n, uint64_t ns, OpSamples* s) {
  uint32_t gets = 0;
  uint32_t writes = 0;
  uint32_t scans = 0;
  for (size_t i = 0; i < n; i++) {
    switch (q[i].op) {
      case OpType::kGet:
        gets++;
        break;
      case OpType::kScan:
        scans++;
        break;
      default:
        writes++;
        break;
    }
  }
  if (gets > 0) {
    s->get.Add(ns, gets);
  }
  if (writes > 0) {
    s->write.Add(ns, writes);
  }
  if (scans > 0) {
    s->scan.Add(ns, scans);
  }
  s->request.Add(ns, static_cast<uint32_t>(n));
}

void CheckBatch(const ServedInput& in, size_t slot, size_t pos,
                const Response* resp, size_t n, OpCount* count) {
  const Request* q = in.streams.slots[slot].data() + pos;
  for (size_t k = 0; k < n; k++) {
    count->Ok(ResponseOk(q[k], resp[k], in.scan_min[slot][pos + k]),
              "served response", q[k].key);
  }
}

// What a served round leaves for the layer report: shard epoch peaks and
// client-side batch times.
struct ServedSide {
  EpochPeak peak;
  Samples batch_ns;
};

void SampleEpochs(const ServerIndex& index, EpochPeak* peak) {
  uint64_t pending = 0;
  uint64_t lag = 0;
  for (uint32_t s = 0; s < index.num_shards(); s++) {
    const dytis::EpochStats e = index.shard(s).EpochInfo();
    pending += e.retired_pending;
    lag = std::max(lag, e.epoch_lag);
  }
  peak->Sample(pending, lag);
}

// Common tail of a served round: stop the server, run the checks, fill the
// round result and, for a traced round, the own-layer values.
void FinishServed(DyTISServer* server, ServerIndex* index, uint64_t busy_ns,
                  ServedSide* side, RoundResult* res, Report* report,
                  Checker* checker) {
  server->Stop();
  std::string error;
  if (!index->CheckShardingInvariants(&error)) {
    checker->Fatal("sharding invariants: " + error);
  }
  res->state_hash = Digest(*index);
  res->bytes_per_key = static_cast<double>(index->MemoryBytes()) /
                       static_cast<double>(index->size());
  if (!res->traced) {
    return;
  }
  EmitServerLayer(*server, &side->batch_ns, report);
  std::vector<const ServerIndex::Shard*> shards;
  dytis::EpochStats total;
  for (uint32_t s = 0; s < index->num_shards(); s++) {
    shards.push_back(&index->shard(s));
    const dytis::EpochStats e = index->shard(s).EpochInfo();
    total.retired_total += e.retired_total;
    total.reclaimed_total += e.reclaimed_total;
    total.retired_pending += e.retired_pending;
    total.advance_failures += e.advance_failures;
    total.epoch_lag = std::max(total.epoch_lag, e.epoch_lag);
  }
  EmitEpochLayer(side->peak, total, report);
  EmitCoreIndexLayer(shards, busy_ns, true, report);
}

// The closed loop: `clients` threads call ExecuteBatch; client c owns the
// slots s with s % clients == c and drives them round-robin, one batch per
// turn (the loadgen's closed loop).  Samples and side values of every
// client are merged into `samples` and `side`.
void ClosedLoop(const ServedInput& in, DyTISServer* server,
                const ServerIndex& index, int clients, bool traced,
                uint64_t parent, OpSamples* samples, ServedSide* side,
                Checker* checker) {
  std::vector<OpSamples> client_samples(clients);
  std::vector<ServedSide> client_side(clients);
  auto client = [&](int c) {
    Tracer::Get().Bind(c);
    OpCount count(checker);
    std::vector<size_t> slots;
    for (size_t s = c; s < in.streams.slots.size(); s += clients) {
      slots.push_back(s);
    }
    std::vector<size_t> pos(slots.size(), 0);
    std::vector<Response> resp(kBatch);
    uint64_t batches = 0;
    for (bool any = true; any;) {
      any = false;
      for (size_t j = 0; j < slots.size(); j++) {
        const std::vector<Request>& stream = in.streams.slots[slots[j]];
        if (pos[j] >= stream.size()) {
          continue;
        }
        const size_t m = std::min(kBatch, stream.size() - pos[j]);
        const Request* q = stream.data() + pos[j];
        uint64_t b0 = 0;
        uint64_t b1 = 0;
        {
          ScopedSpan batch(SpanName::kBatch,
                           (uint64_t{slots[j]} << 32) | pos[j], parent);
          b0 = NowNanos();
          server->ExecuteBatch(q, m, resp.data(),
                               dytis::obs::rtrace::RequestContext::Mint());
          b1 = NowNanos();
        }
        RecordBatch(q, m, b1 - b0, &client_samples[c]);
        CheckBatch(in, slots[j], pos[j], resp.data(), m, &count);
        if (traced) {
          client_side[c].batch_ns.Add(b1 - b0);
          if (c == 0 && ++batches % 64 == 0) {
            SampleEpochs(index, &client_side[0].peak);
          }
        }
        pos[j] += m;
        any = true;
      }
    }
  };
  std::vector<std::thread> others;
  for (int c = 1; c < clients; c++) {
    others.emplace_back(client, c);
  }
  client(0);
  for (std::thread& t : others) {
    t.join();
  }
  Tracer::Get().Bind(0);
  for (int c = 0; c < clients; c++) {
    samples->Merge(client_samples[c]);
    side->batch_ns.Merge(client_side[c].batch_ns);
  }
  side->peak = client_side[0].peak;
}

// served-closed: two closed-loop clients call ExecuteBatch over a preload
// larger than the L3 cache.
void ServedClosed(const Options& o, Report* report, Checker* checker) {
  const ServedInput in = MakeServedInput(o.seed, Scaled(o, 4'000'000),
                                         Scaled(o, 1'500'000));
  report->Provenance("input_hash", in.hash);
  CoreCalls calls;

  const auto rounds = RunRounds(o, [&](RoundResult* res) {
    const uint64_t t0 = NowNanos();
    std::unique_ptr<ServerIndex> index;
    std::unique_ptr<DyTISServer> server;
    {
      ScopedSpan span(SpanName::kSetup);
      index = BuildServed(in, o.seed, res->traced ? &calls : nullptr,
                          checker);
      server = std::make_unique<DyTISServer>(index.get());
    }
    const uint64_t t1 = NowNanos();
    OpSamples samples;
    ServedSide side;
    {
      ScopedSpan span(SpanName::kMeasure);
      ClosedLoop(in, server.get(), *index, kClients, res->traced, span.id(),
                 &samples, &side, checker);
    }
    const uint64_t t2 = NowNanos();
    res->setup_s = static_cast<double>(t1 - t0) / 1e9;
    res->throughput_mops = static_cast<double>(in.streams.total_ops) * 1e3 /
                           static_cast<double>(t2 - t1);
    FinishServed(server.get(), index.get(), t2 - t0, &side, res, report,
                 checker);
    Summarize(&samples, res);
  });
  EmitRounds(o, rounds, report, checker);
  if (!o.traced) {
    return;
  }
  EmitCoreCalls(&calls, report);
  // The ladder runs at a stated size, 1M preload keys and 500K ops.  In
  // each repeat the workload's own closed loop with a single client runs
  // the same stream first: the per-op cost the ladder's rows must account
  // for.
  const ServedInput small =
      MakeServedInput(o.seed, Scaled(o, 1'000'000), Scaled(o, 500'000));
  uint64_t rep = 0;
  auto single_client = [&] {
    ScopedSpan span(SpanName::kSingleClient, rep++);
    auto index = BuildServed(small, o.seed, nullptr, checker);
    DyTISServer server(index.get());
    OpSamples samples;
    ServedSide side;
    // No per-batch spans, as in the ladder rows.
    Tracer::Get().SetRecording(false);
    const uint64_t t0 = NowNanos();
    ClosedLoop(small, &server, *index, 1, false, span.id(), &samples, &side,
               checker);
    const uint64_t t1 = NowNanos();
    Tracer::Get().SetRecording(true);
    server.Stop();
    return static_cast<double>(t1 - t0) /
           static_cast<double>(small.streams.total_ops);
  };
  Tracer::Get().SetRecording(true);
  ServingLadder(o, ServedLadder(small), o.smoke ? 1 : kLadderRepeats,
                single_client, report, checker);
  Tracer::Get().SetRecording(false);
}

// served-open: the same traffic over a preload that fits in cache, offered
// on a fixed due-time schedule at kOpenRate ops/s: about a sixth of the
// two-shard closed-loop capacity at this size on a quiet host, and below
// the capacity a busy host leaves (near 1 Mops the server saturated).  Two
// dispatchers call ExecuteBatch; dispatcher d owns the slots s with
// s % 2 == d, so each slot's batches still run in order and the final state
// is deterministic.  Request latency runs from the batch's due time, so a
// stalled dispatcher's backlog counts.
constexpr double kOpenRate = 0.5e6;
// A round that completes less than this share of the offered rate is
// saturated.
constexpr double kMinAchieved = 0.98;

struct Scheduled {
  uint32_t slot;
  uint32_t pos;
  uint32_t count;
  uint64_t due_ns;  // from the schedule's start
};

// Sleeps until 50us before `target_ns` (steady clock), then spins.  Spinning
// through the whole gap, as the loadgen does, keeps every vCPU busy and
// starves the shard workers whenever the host is oversubscribed; the
// dispatchers set a 1us timer slack so the sleep ends close to its target.
void WaitUntil(uint64_t target_ns) {
  constexpr uint64_t kSpinNs = 50'000;
  if (target_ns > NowNanos() + kSpinNs) {
    const uint64_t wake = target_ns - kSpinNs;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wake / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wake % 1'000'000'000);
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
  }
  while (NowNanos() < target_ns) {
  }
}

void ServedOpen(const Options& o, Report* report, Checker* checker) {
  const ServedInput in =
      MakeServedInput(o.seed, Scaled(o, 200'000), Scaled(o, 500'000));
  report->Provenance("input_hash", in.hash);
  // Slot-major round-robin schedule, paced at the offered rate.
  std::vector<Scheduled> plan[kClients];
  {
    std::vector<size_t> pos(in.streams.slots.size(), 0);
    uint64_t cumulative = 0;
    for (bool any = true; any;) {
      any = false;
      for (size_t slot = 0; slot < in.streams.slots.size(); slot++) {
        const size_t size = in.streams.slots[slot].size();
        if (pos[slot] >= size) {
          continue;
        }
        const size_t m = std::min(kBatch, size - pos[slot]);
        plan[slot % kClients].push_back(Scheduled{
            static_cast<uint32_t>(slot), static_cast<uint32_t>(pos[slot]),
            static_cast<uint32_t>(m),
            static_cast<uint64_t>(static_cast<double>(cumulative) /
                                  kOpenRate * 1e9)});
        cumulative += m;
        pos[slot] += m;
        any = true;
      }
    }
  }
  CoreCalls calls;

  const auto rounds = RunRounds(o, [&](RoundResult* res) {
    const uint64_t t0 = NowNanos();
    std::unique_ptr<ServerIndex> index;
    std::unique_ptr<DyTISServer> server;
    {
      ScopedSpan span(SpanName::kSetup);
      index = BuildServed(in, o.seed, res->traced ? &calls : nullptr,
                          checker);
      server = std::make_unique<DyTISServer>(index.get());
    }
    const uint64_t t1 = NowNanos();
    OpSamples samples[kClients];
    ServedSide side[kClients];
    Samples lag[kClients];
    uint64_t last_done[kClients] = {};
    {
      ScopedSpan span(SpanName::kMeasure);
      const uint64_t parent = span.id();
      const uint64_t start = NowNanos() + 1'000'000;
      auto dispatcher = [&](int d) {
        Tracer::Get().Bind(d);
        prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
        OpCount count(checker);
        std::vector<Response> resp(kBatch);
        uint64_t batches = 0;
        for (const Scheduled& b : plan[d]) {
          const uint64_t due = start + b.due_ns;
          WaitUntil(due);
          const Request* q = in.streams.slots[b.slot].data() + b.pos;
          uint64_t b0 = 0;
          uint64_t b1 = 0;
          {
            ScopedSpan batch(SpanName::kBatch,
                             (uint64_t{b.slot} << 32) | b.pos, parent);
            b0 = NowNanos();
            server->ExecuteBatch(q, b.count, resp.data(),
                                 dytis::obs::rtrace::RequestContext::Mint());
            b1 = NowNanos();
          }
          lag[d].Add(b0 - due);
          RecordBatch(q, b.count, b1 - due, &samples[d]);
          CheckBatch(in, b.slot, b.pos, resp.data(), b.count, &count);
          if (res->traced) {
            side[d].batch_ns.Add(b1 - b0);
            if (d == 0 && ++batches % 64 == 0) {
              SampleEpochs(*index, &side[0].peak);
            }
          }
          last_done[d] = b1;
        }
      };
      std::thread second(dispatcher, 1);
      dispatcher(0);
      second.join();
      Tracer::Get().Bind(0);
      const uint64_t end = std::max(last_done[0], last_done[1]);
      res->throughput_mops = static_cast<double>(in.streams.total_ops) *
                             1e3 / static_cast<double>(end - start);
    }
    const uint64_t t2 = NowNanos();
    side[0].batch_ns.Merge(side[1].batch_ns);
    lag[0].Merge(lag[1]);
    samples[0].Merge(samples[1]);
    res->setup_s = static_cast<double>(t1 - t0) / 1e9;
    const double achieved = res->throughput_mops * 1e6 / kOpenRate;
    res->saturated = achieved < kMinAchieved;
    if (res->traced) {
      report->Layer("loadgen.lag_us.p50", lag[0].Quantile(0.50) / 1e3);
      report->Layer("loadgen.lag_us.p99", lag[0].Quantile(0.99) / 1e3);
      report->Layer("loadgen.achieved_ratio", achieved);
    }
    FinishServed(server.get(), index.get(), t2 - t0, &side[0], res, report,
                 checker);
    Summarize(&samples[0], res);
  });
  EmitRounds(o, rounds, report, checker);
  if (o.traced) {
    EmitCoreCalls(&calls, report);
  }
}

// --- durable-writes ----------------------------------------------------------
//
// DurableDyTIS with WAL fsync every 64 logged ops.  The set-up is crash
// recovery: Open() on a directory holding a checkpoint of 1M TX keys plus a
// WAL tail of 200K records.  The measured phase runs 50% new TX keys, 25%
// updates, 10% erases, 10% gets and 5% Scan(100) over the live keys, with a
// Checkpoint() every 200K ops.  Then the crash check: Sync() and record the
// digest and WAL length, run more ops, drop the index, cut the WAL back to
// the synced length (discarding what the crash would lose), Open() again
// and require the synced digest back.

struct DurableOp {
  uint64_t key;
  uint32_t expect;  // kScan: entries the scan must return
  OpType op;
};

// Live-key counts by key rank (Fenwick tree), for exact scan lengths.
class LiveRanks {
 public:
  explicit LiveRanks(size_t n) : tree_(n + 1, 0) {}
  void Add(size_t rank, int64_t delta) {
    for (size_t i = rank + 1; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] += delta;
    }
  }
  // Live keys with rank < `rank`.
  int64_t Below(size_t rank) const {
    int64_t sum = 0;
    for (size_t i = rank; i > 0; i -= i & (~i + 1)) {
      sum += tree_[i];
    }
    return sum;
  }

 private:
  std::vector<int64_t> tree_;
};

// `count` ops over a live set that starts as keys[0, live) and grows by
// inserting keys[live...] in order.
std::vector<DurableOp> DurableOps(const std::vector<uint64_t>& keys,
                                  size_t live, size_t count, uint64_t seed) {
  std::vector<uint64_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  auto rank = [&](uint64_t k) {
    return static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), k) - sorted.begin());
  };
  LiveRanks ranks(sorted.size());
  std::vector<uint64_t> live_keys(keys.begin(), keys.begin() + live);
  for (const uint64_t k : live_keys) {
    ranks.Add(rank(k), 1);
  }
  size_t next = live;
  dytis::Rng rng(Mix64(seed ^ 0xD0AB1EULL));
  std::vector<DurableOp> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; i++) {
    const uint64_t r = rng.NextBelow(100);
    DurableOp op{0, 0, OpType::kGet};
    if (r < 50 && next < keys.size()) {
      op.op = OpType::kPut;
      op.key = keys[next++];
      live_keys.push_back(op.key);
      ranks.Add(rank(op.key), 1);
    } else {
      const size_t pick = rng.NextBelow(live_keys.size());
      op.key = live_keys[pick];
      if (r < 75) {
        op.op = OpType::kUpdate;
      } else if (r < 85 && live_keys.size() > 1) {
        op.op = OpType::kErase;
        live_keys[pick] = live_keys.back();
        live_keys.pop_back();
        ranks.Add(rank(op.key), -1);
      } else if (r < 95) {
        op.op = OpType::kGet;
      } else {
        op.op = OpType::kScan;
        const int64_t above = static_cast<int64_t>(live_keys.size()) -
                              ranks.Below(rank(op.key));
        op.expect = static_cast<uint32_t>(
            std::min<int64_t>(kScanLength, above));
      }
    }
    ops.push_back(op);
  }
  return ops;
}

bool DurableScanOk(const Entry* out, size_t got, const DurableOp& op) {
  if (got != op.expect || got == 0 || out[0].first != op.key) {
    return false;
  }
  for (size_t i = 0; i < got; i++) {
    if ((i > 0 && out[i].first <= out[i - 1].first) ||
        !IsValueOf(out[i].first, out[i].second)) {
      return false;
    }
  }
  return true;
}

// Executes one durable-writes op, checks it, and counts the user bytes a
// write logs (key + value, or key alone for an erase).
void RunDurableOp(Durable& db, const DurableOp& op, uint64_t id, bool timed,
                  OpSamples* s, OpCount* count, std::vector<Entry>* buf,
                  uint64_t* user_bytes) {
  // Every op is timed: a logged op costs microseconds, so the clock reads
  // are noise, and the rarer gets and scans get enough samples.
  const uint32_t weight = timed ? kEvery : kUntimed;
  switch (op.op) {
    case OpType::kPut: {
      const dytis::InsertResult r =
          Timed(weight, SpanName::kInsert, id, &s->write, &s->request,
                nullptr,
                [&] { return db.PutEx(op.key, InsertValueFor(op.key)); });
      count->Ok(dytis::IsNewKey(r), "durable put", op.key);
      *user_bytes += 16;
      break;
    }
    case OpType::kUpdate: {
      const bool ok =
          Timed(weight, SpanName::kUpdate, id, &s->write, &s->request,
                nullptr,
                [&] { return db.Update(op.key, UpdateValueFor(op.key)); });
      count->Ok(ok, "durable update", op.key);
      *user_bytes += 16;
      break;
    }
    case OpType::kErase: {
      const bool ok = Timed(weight, SpanName::kErase, id, &s->write,
                            &s->request, nullptr,
                            [&] { return db.Erase(op.key); });
      count->Ok(ok, "durable erase", op.key);
      *user_bytes += 8;
      break;
    }
    case OpType::kGet: {
      uint64_t v = 0;
      const bool found =
          Timed(weight, SpanName::kGet, id, &s->get, &s->request, nullptr,
                [&] { return db.Find(op.key, &v); });
      count->Ok(found && IsValueOf(op.key, v), "durable get", op.key);
      break;
    }
    case OpType::kScan: {
      const size_t got =
          Timed(weight, SpanName::kScan, id, &s->scan, &s->request, nullptr,
                [&] { return db.Scan(op.key, kScanLength, buf->data()); });
      count->Ok(DurableScanOk(buf->data(), got, op), "durable scan", op.key);
      break;
    }
  }
}

LadderStream DurableLadder(const std::vector<uint64_t>& keys, size_t live,
                           size_t count, uint64_t seed) {
  LadderStream s;
  s.preload = PutRequests(
      std::vector<uint64_t>(keys.begin(), keys.begin() + live),
      PreloadValueFor);
  for (const DurableOp& op : DurableOps(keys, live, count, seed)) {
    Request r;
    r.op = op.op;
    r.key = op.key;
    if (op.op == OpType::kPut) {
      r.value = InsertValueFor(op.key);
    } else if (op.op == OpType::kUpdate) {
      r.value = UpdateValueFor(op.key);
    } else if (op.op == OpType::kScan) {
      r.scan_count = kScanLength;
    }
    s.ops.push_back(r);
    s.scan_min.push_back(op.expect);
  }
  return s;
}

void DurableWrites(const Options& o, Report* report, Checker* checker) {
  const size_t preload = Scaled(o, 1'000'000);
  const size_t tail = Scaled(o, 200'000);
  const size_t ops = Scaled(o, 500'000);
  const size_t crash_ops = Scaled(o, 10'000, 500);
  const size_t checkpoint_every = ops * 2 / 5;
  const std::vector<uint64_t> keys =
      dytis::MakeDataset(dytis::DatasetId::kTaxi,
                         preload + tail + ops + crash_ops, o.seed)
          .keys;
  const std::vector<DurableOp> stream =
      DurableOps(keys, preload + tail, ops + crash_ops, o.seed);
  uint64_t input = HashKeys(keys);
  for (const DurableOp& op : stream) {
    input = Mix64(input ^ Mix64(op.key) ^ static_cast<uint64_t>(op.op));
  }
  report->Provenance("input_hash", input);
  const dytis::DyTISConfig config = ConfigFor(keys.size());

  // The crashed directory every round recovers from, built once.
  dytis::recovery::RecoveryConfig fixture;
  fixture.dir = FreshDir(o, "durable-fixture");
  uint64_t fixture_digest = 0;
  {
    std::string error;
    auto db = Durable::Open(fixture, config, &error);
    bool ok = db != nullptr;
    for (size_t i = 0; ok && i < preload; i++) {
      ok = dytis::IsNewKey(db->PutEx(keys[i], PreloadValueFor(keys[i])));
    }
    ok = ok && db->Checkpoint(&error);
    for (size_t i = preload; ok && i < preload + tail; i++) {
      ok = dytis::IsNewKey(db->PutEx(keys[i], InsertValueFor(keys[i])));
    }
    ok = ok && db->Sync(&error);
    if (!ok) {
      checker->Fatal("durable-writes fixture: " + error);
      return;
    }
    fixture_digest = Digest(*db);
  }

  std::vector<Entry> buf(kScanLength);
  const auto rounds = RunRounds(o, [&](RoundResult* res) {
    OpSamples samples;
    dytis::recovery::RecoveryConfig rc;
    rc.dir = FreshDir(o, "durable-round");
    rc.wal_sync_every = kWalSyncEvery;
    std::filesystem::create_directories(rc.dir);
    std::filesystem::copy_file(fixture.CheckpointPath(), rc.CheckpointPath());
    std::filesystem::copy_file(fixture.WalPath(), rc.WalPath());
    std::string error;

    const uint64_t t0 = NowNanos();
    std::unique_ptr<Durable> db;
    {
      ScopedSpan span(SpanName::kOpen);
      db = Durable::Open(rc, config, &error);
    }
    const uint64_t t1 = NowNanos();
    if (db == nullptr || Digest(*db) != fixture_digest) {
      checker->Fatal("durable-writes recovery did not restore the fixture: " +
                     error);
      return;
    }
    RecoveryLayer rec;
    rec.open_ns = t1 - t0;
    rec.replayed_records = db->recovery_stats().wal_records_replayed;
    rec.open_keys =
        db->recovery_stats().checkpoint_entries + rec.replayed_records;
    // The fixture's WAL tail is still in the log until the first checkpoint.
    uint64_t logged = tail * 16;
    const dytis::LatencyRecorder fsync0 = RegistryHistogram("wal.fsync_ns");
    {
      ScopedSpan span(SpanName::kMeasure);
      OpCount count(checker);
      for (size_t i = 0; i < ops; i++) {
        if (i > 0 && i % checkpoint_every == 0) {
          bool ok = db->Sync(&error);
          rec.wal_bytes += FileBytes(rc.WalPath());
          rec.user_bytes += logged;
          logged = 0;
          ScopedSpan checkpoint(SpanName::kCheckpoint, i);
          const uint64_t c0 = NowNanos();
          ok = ok && db->Checkpoint(&error);
          rec.checkpoint_s.push_back(static_cast<double>(NowNanos() - c0) /
                                     1e9);
          rec.checkpoint_bytes += FileBytes(rc.CheckpointPath());
          if (!ok) {
            checker->Fatal("checkpoint: " + error);
          }
        }
        RunDurableOp(*db, stream[i], i, true, &samples, &count,
                     &buf, &logged);
      }
    }
    const uint64_t t2 = NowNanos();
    rec.fsync = HistogramDelta(fsync0, RegistryHistogram("wal.fsync_ns"));
    if (!db->Sync(&error)) {
      checker->Fatal("sync: " + error);
    }
    const uint64_t synced_digest = Digest(*db);
    const uint64_t synced_wal = FileBytes(rc.WalPath());
    res->state_hash = synced_digest;
    res->bytes_per_key = static_cast<double>(db->index().MemoryBytes()) /
                         static_cast<double>(db->size());
    if (res->traced) {
      EmitRecoveryLayer(rec, report);
      EmitCoreIndexLayer<Durable::Index>({&db->index()}, t2 - t0, false,
                                         report);
    }
    {
      ScopedSpan span(SpanName::kCrashCheck);
      OpCount count(checker);
      OpSamples discard;
      uint64_t ignored = 0;
      for (size_t i = ops; i < ops + crash_ops; i++) {
        RunDurableOp(*db, stream[i], i, false, &discard, &count, &buf,
                     &ignored);
      }
      db.reset();
      bool ok = dytis::recovery::TruncateFile(rc.WalPath(), synced_wal,
                                              &error);
      std::unique_ptr<Durable> reopened;
      if (ok) {
        ScopedSpan open(SpanName::kOpen);
        reopened = Durable::Open(rc, config, &error);
      }
      if (reopened == nullptr || Digest(*reopened) != synced_digest) {
        checker->Fatal("crash check: reopen did not return the synced state " +
                       error);
      }
    }
    RemoveDir(rc.dir);
    res->setup_s = static_cast<double>(t1 - t0) / 1e9;
    res->throughput_mops =
        static_cast<double>(ops) * 1e3 / static_cast<double>(t2 - t1);
    Summarize(&samples, res);
  });
  RemoveDir(fixture.dir);
  EmitRounds(o, rounds, report, checker);
  if (o.traced) {
    const size_t l = std::min(Scaled(o, 200'000), preload);
    const std::vector<uint64_t> prefix(keys.begin(), keys.begin() + 2 * l);
    Tracer::Get().SetRecording(true);
    DurabilityLadder(o, DurableLadder(prefix, l, l, o.seed),
                     o.smoke ? 1 : kLadderRepeats, report, checker);
    Tracer::Get().SetRecording(false);
  }
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"ingest-tx", IngestTx},       {"lookup-rl", LookupRl},
      {"served-closed", ServedClosed}, {"served-open", ServedOpen},
      {"durable-writes", DurableWrites},
  };
  return workloads;
}

}  // namespace dytisbench
