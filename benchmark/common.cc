// Samples, correctness accounting, the metric report and the span tracer.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "benchmark/bench.h"
#include "src/server/loadgen.h"
#include "src/util/json.h"

namespace dytisbench {

size_t Scaled(const Options& options, size_t full, size_t floor) {
  return options.smoke ? std::max(full / 50, floor) : full;
}

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashKeys(const std::vector<uint64_t>& keys, uint64_t h) {
  h = Mix64(h ^ keys.size());
  for (const uint64_t k : keys) {
    h = Mix64(h ^ Mix64(k));
  }
  return h;
}

bool IsValueOf(uint64_t key, uint64_t value) {
  return value == dytis::server::PreloadValueFor(key) ||
         value == dytis::server::InsertValueFor(key) ||
         value == dytis::server::UpdateValueFor(key);
}

dytis::DyTISConfig ConfigFor(size_t num_keys) {
  dytis::DyTISConfig config;
  int r = 0;
  while (r < 9 && (num_keys >> (r + 1)) >= 4'096) {
    r++;
  }
  config.first_level_bits = r;
  config.l_start = 4;
  return config;
}

bool ResponseOk(const dytis::server::Request& request,
                const dytis::server::Response& response, uint32_t scan_min) {
  using dytis::server::OpType;
  switch (request.op) {
    case OpType::kGet:
      return response.ok && IsValueOf(request.key, response.value);
    case OpType::kPut:
    case OpType::kUpdate:
    case OpType::kErase:
      return response.ok;
    case OpType::kScan:
      return response.ok && response.scan_len >= scan_min &&
             response.scan_len <= request.scan_count;
  }
  return false;
}

uint32_t ScanFloor(const std::vector<uint64_t>& sorted, uint64_t start,
                   uint32_t count) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), start);
  return static_cast<uint32_t>(
      std::min<size_t>(count, static_cast<size_t>(sorted.end() - it)));
}

std::string FreshDir(const Options& options, const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir) / "tmp" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir.parent_path());
  return dir.string();
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

uint64_t FileBytes(const std::string& path) {
  struct ::stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// --- Samples -----------------------------------------------------------------

void Samples::Add(uint64_t ns, uint32_t weight) {
  values_.emplace_back(ns, weight);
  total_weight_ += weight;
  sorted_ = false;
}

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  total_weight_ += other.total_weight_;
  sorted_ = false;
}

double Samples::Quantile(double q) {
  if (values_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // The clock rounds to whole nanoseconds, so a sample v stands for
  // [v - 0.5, v + 0.5): the quantile interpolates inside the rounding
  // interval that holds the target weight (the grouped-data median).
  // Without this a fast op's p50 would read as the same integer on every
  // run even when the distribution moved.
  const double target = q * static_cast<double>(total_weight_);
  double below = 0;
  size_t i = 0;
  for (;;) {
    size_t j = i;
    double w = 0;
    while (j < values_.size() && values_[j].first == values_[i].first) {
      w += values_[j].second;
      j++;
    }
    if (below + w >= target || j == values_.size()) {
      return static_cast<double>(values_[i].first) - 0.5 +
             std::min(1.0, (target - below) / w);
    }
    below += w;
    i = j;
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Checker -----------------------------------------------------------------

void Checker::Op(bool ok, const char* what, uint64_t key) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) {
    return;
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (reported_++ < 10) {
    std::fprintf(stderr, "dytisbench: failed op: %s key=%#llx\n", what,
                 static_cast<unsigned long long>(key));
  }
}

void Checker::Fatal(const std::string& what) {
  std::fprintf(stderr, "dytisbench: check failed: %s\n", what.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  fatal_.push_back(what);
}

bool Checker::fatal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !fatal_.empty();
}

// --- Report ------------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, note});
}

void Report::Provenance(const std::string& name, uint64_t value) {
  provenance_.emplace_back(name, value);
}

void Report::Layer(const std::string& name, double value) {
  layer_[name] = value;
}

void Report::Comment(const std::string& line) { comments_.push_back(line); }

bool Report::Print(bool traced, const Checker& checker) const {
  bool complete = true;
  std::vector<Metric> out;
  if (traced) {
    for (const MetricSpec& spec : PerLayerMetrics()) {
      const auto it = layer_.find(spec.name);
      // A layer the workload does not cross reads 0.
      out.push_back(Metric{spec.name, it != layer_.end() ? it->second : 0.0,
                           spec.unit,
                           it != layer_.end() ? "" : "not-crossed"});
    }
  } else {
    for (const MetricSpec& spec : EndToEndMetrics()) {
      const auto it =
          std::find_if(metrics_.begin(), metrics_.end(),
                       [&](const Metric& m) { return m.name == spec.name; });
      if (it == metrics_.end() || !std::isfinite(it->value) ||
          it->value <= 0.0) {
        std::fprintf(stderr, "dytisbench: no value for %s\n", spec.name);
        complete = false;
        out.push_back(Metric{spec.name, 0.0, spec.unit, "missing"});
      } else {
        out.push_back(*it);
      }
    }
  }
  for (const std::string& c : comments_) {
    std::printf("# %s\n", c.c_str());
  }
  for (const Metric& m : out) {
    std::printf("%s %.9g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : " ", m.note.c_str());
  }
  for (const auto& [name, value] : provenance_) {
    std::printf("%s %#018llx hash\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  const bool correct =
      complete && checker.failed() == 0 && !checker.fatal();
  dytis::JsonValue result = dytis::JsonValue::Object();
  result["correct"] = correct;
  result["attempted"] = std::max<uint64_t>(checker.attempted(), 1);
  result["failed"] = checker.failed();
  dytis::JsonValue& metrics = result["metrics"];
  metrics = dytis::JsonValue::Object();
  for (const Metric& m : out) {
    dytis::JsonValue& entry = metrics[m.name];
    entry["value"] = std::isfinite(m.value) ? m.value : 0.0;
    entry["unit"] = m.unit;
  }
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct;
}

// --- Tracer ------------------------------------------------------------------

namespace {

thread_local int tl_slot = 0;

constexpr int kSlotShift = 40;

uint64_t SpanId(int slot, size_t index) {
  return (static_cast<uint64_t>(slot) << kSlotShift) | (index + 1);
}

size_t SpanIndex(uint64_t id) {
  return static_cast<size_t>((id & ((uint64_t{1} << kSlotShift) - 1)) - 1);
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRound:
      return "round";
    case SpanName::kSetup:
      return "setup";
    case SpanName::kMeasure:
      return "measure";
    case SpanName::kVerify:
      return "verify";
    case SpanName::kGet:
      return "op.get";
    case SpanName::kInsert:
      return "op.insert";
    case SpanName::kUpdate:
      return "op.update";
    case SpanName::kErase:
      return "op.erase";
    case SpanName::kScan:
      return "op.scan";
    case SpanName::kBatch:
      return "batch";
    case SpanName::kCheckpoint:
      return "checkpoint";
    case SpanName::kOpen:
      return "open";
    case SpanName::kCrashCheck:
      return "crash_check";
    case SpanName::kLadderRow:
      return "ladder_row";
    case SpanName::kSingleClient:
      return "single_client";
  }
  return "?";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(size_t main_capacity, size_t client_capacity) {
  for (int s = 0; s < kSlots; s++) {
    buffers_[s].spans.reserve(s == 0 ? main_capacity : client_capacity);
    buffers_[s].open.reserve(64);
  }
}

void Tracer::Clear() {
  for (Buffer& b : buffers_) {
    b.spans.clear();
    b.open.clear();
    b.dropped = 0;
  }
}

void Tracer::Bind(int slot) { tl_slot = slot; }

uint64_t Tracer::Begin(SpanName name, uint64_t request, uint64_t parent) {
  if (!recording()) {
    return 0;
  }
  Buffer& b = buffers_[tl_slot];
  // Per-op spans stop at 95% of the buffer, so the rounds, phases, batches
  // and checkpoints that parent them are still recorded once it fills.
  const bool per_op = name >= SpanName::kGet && name <= SpanName::kScan;
  const size_t limit =
      b.spans.capacity() - (per_op ? b.spans.capacity() / 20 : 0);
  if (b.spans.size() >= limit) {
    b.dropped++;
    return 0;
  }
  if (parent == 0 && !b.open.empty()) {
    parent = b.open.back();
  }
  const uint64_t id = SpanId(tl_slot, b.spans.size());
  b.spans.push_back(Record{NowNanos(), 0, request, parent, name});
  b.open.push_back(id);
  return id;
}

const Tracer::Record& Tracer::Lookup(uint64_t span) const {
  return buffers_[span >> kSlotShift].spans[SpanIndex(span)];
}

void Tracer::End(uint64_t span) {
  Buffer& b = buffers_[span >> kSlotShift];
  b.spans[SpanIndex(span)].end_ns = NowNanos();
  if (!b.open.empty() && b.open.back() == span) {
    b.open.pop_back();
  }
}

uint64_t Tracer::recorded() const {
  uint64_t n = 0;
  for (const Buffer& b : buffers_) {
    n += b.spans.size();
  }
  return n;
}

uint64_t Tracer::dropped() const {
  uint64_t n = 0;
  for (const Buffer& b : buffers_) {
    n += b.dropped;
  }
  return n;
}

std::vector<Tracer::NameSummary> Tracer::Finish(
    const std::string& chrome_path) const {
  struct Flat {
    uint64_t id;
    const Record* rec;
  };
  std::vector<Flat> all;
  for (int s = 0; s < kSlots; s++) {
    for (size_t i = 0; i < buffers_[s].spans.size(); i++) {
      if (buffers_[s].spans[i].end_ns != 0) {
        all.push_back(Flat{SpanId(s, i), &buffers_[s].spans[i]});
      }
    }
  }
  // Self time: duration minus the union of the intervals its children cover
  // (children on other threads may overlap each other).
  std::vector<size_t> by_parent(all.size());
  for (size_t i = 0; i < all.size(); i++) {
    by_parent[i] = i;
  }
  std::sort(by_parent.begin(), by_parent.end(), [&](size_t a, size_t b) {
    if (all[a].rec->parent != all[b].rec->parent) {
      return all[a].rec->parent < all[b].rec->parent;
    }
    return all[a].rec->begin_ns < all[b].rec->begin_ns;
  });
  std::vector<uint64_t> covered[kSlots];
  for (int s = 0; s < kSlots; s++) {
    covered[s].assign(buffers_[s].spans.size(), 0);
  }
  for (size_t k = 0; k < by_parent.size();) {
    const uint64_t parent = all[by_parent[k]].rec->parent;
    size_t end = k;
    while (end < by_parent.size() &&
           all[by_parent[end]].rec->parent == parent) {
      end++;
    }
    if (parent != 0) {
      const Record& pr = Lookup(parent);
      uint64_t cov = 0;
      uint64_t cur_lo = 0;
      uint64_t cur_hi = 0;
      for (size_t j = k; j < end; j++) {
        const Record& c = *all[by_parent[j]].rec;
        const uint64_t lo = std::max(c.begin_ns, pr.begin_ns);
        const uint64_t hi = std::min(c.end_ns, pr.end_ns);
        if (hi <= lo) {
          continue;
        }
        if (lo > cur_hi) {
          cov += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered[parent >> kSlotShift][SpanIndex(parent)] = cov + cur_hi - cur_lo;
    }
    k = end;
  }

  std::map<SpanName, NameSummary> summary;
  std::map<SpanName, Samples> durations;
  for (const Flat& f : all) {
    const Record& r = *f.rec;
    const uint64_t dur = r.end_ns - r.begin_ns;
    const uint64_t cov = covered[f.id >> kSlotShift][SpanIndex(f.id)];
    NameSummary& s = summary[r.name];
    s.name = SpanNameString(r.name);
    s.count++;
    s.total_ns += static_cast<double>(dur);
    s.self_ns += static_cast<double>(dur - std::min(dur, cov));
    durations[r.name].Add(dur);
  }
  std::vector<NameSummary> rows;
  for (auto& [name, s] : summary) {
    Samples& d = durations[name];
    s.p50_ns = d.Quantile(0.50);
    s.p99_ns = d.Quantile(0.99);
    s.p999_ns = d.Quantile(0.999);
    rows.push_back(s);
  }

  // Chrome trace: the first 100K spans by start time plus every span above
  // its name's p99.9, so the tail exemplars survive the bound.
  std::vector<size_t> order(all.size());
  for (size_t i = 0; i < all.size(); i++) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return all[a].rec->begin_ns < all[b].rec->begin_ns;
  });
  const uint64_t t0 = order.empty() ? 0 : all[order[0]].rec->begin_ns;
  std::ofstream out(chrome_path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  for (size_t k = 0; k < order.size(); k++) {
    const Flat& f = all[order[k]];
    const Record& r = *f.rec;
    const uint64_t dur = r.end_ns - r.begin_ns;
    if (k >= 100'000 &&
        static_cast<double>(dur) <= summary[r.name].p999_ns) {
      continue;
    }
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
        "\"parent\": %llu, \"request\": %llu}}",
        first ? "" : ",\n", SpanNameString(r.name),
        static_cast<unsigned long long>(f.id >> kSlotShift),
        static_cast<double>(r.begin_ns - t0) / 1e3,
        static_cast<double>(dur) / 1e3,
        static_cast<unsigned long long>(f.id),
        static_cast<unsigned long long>(r.parent),
        static_cast<unsigned long long>(r.request));
    out << line;
    first = false;
  }
  out << "\n]}\n";
  return rows;
}

}  // namespace dytisbench
