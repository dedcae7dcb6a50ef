#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace rpe {
namespace obs {

namespace internal {

uint32_t ThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return shard;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Histogram buckets
//
// Values < kSub get one exact bucket each. Above, a value with highest
// set bit e (e >= kSubBits) falls into octave block (e - kSubBits + 1)
// and sub-bucket (next kSubBits bits below the leading one), so the
// bucket width is 2^(e - kSubBits) — at most lower_bound / kSub.

uint32_t Histogram::BucketIndex(uint64_t v) {
  if (v < kSub) return static_cast<uint32_t>(v);
  uint32_t e = 63u - static_cast<uint32_t>(__builtin_clzll(v));
  uint32_t sub =
      static_cast<uint32_t>(v >> (e - kSubBits)) & (kSub - 1);
  return (e - kSubBits + 1) * kSub + sub;
}

uint64_t Histogram::BucketLower(uint32_t i) {
  if (i < kSub) return i;
  const uint32_t block = i / kSub;    // >= 1
  const uint32_t sub = i % kSub;
  return static_cast<uint64_t>(kSub + sub) << (block - 1);
}

uint64_t Histogram::BucketUpper(uint32_t i) {
  if (i < kSub) return i + 1;
  const uint32_t block = i / kSub;
  return BucketLower(i) + (uint64_t{1} << (block - 1));
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Nearest-rank with interpolation inside the bucket: rank r in
  // [1, count], find the bucket whose cumulative count reaches r, place
  // the estimate proportionally between its bounds.
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  uint64_t cum = 0;
  for (uint32_t i = 0; i < counts.size(); ++i) {
    const uint64_t c = counts[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= rank) {
      const double lower = static_cast<double>(Histogram::BucketLower(i));
      const double upper = static_cast<double>(Histogram::BucketUpper(i));
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(c);
      return lower + (upper - lower) * std::min(1.0, frac);
    }
    cum += c;
  }
  return static_cast<double>(Histogram::BucketUpper(
      static_cast<uint32_t>(counts.size()) - 1));
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.counts.assign(kBuckets, 0);
  for (const Shard& sh : shards_) {
    for (uint32_t i = 0; i < kBuckets; ++i) {
      s.counts[i] += sh.counts[i].load(std::memory_order_relaxed);
    }
    s.sum += sh.sum.load(std::memory_order_relaxed);
  }
  for (uint64_t c : s.counts) s.count += c;
  return s;
}

// ---------------------------------------------------------------------------
// Samples

Sample Sample::CounterSample(std::string name, double value,
                             std::string table_label, std::string labels) {
  Sample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.table_label = std::move(table_label);
  s.value = value;
  s.kind = Kind::kCounter;
  return s;
}

Sample Sample::GaugeSample(std::string name, double value,
                           std::string table_label, std::string labels) {
  Sample s = CounterSample(std::move(name), value, std::move(table_label),
                           std::move(labels));
  s.kind = Kind::kGauge;
  return s;
}

// ---------------------------------------------------------------------------
// Registry

MetricsRegistry::Family& MetricsRegistry::FamilyLocked(
    std::string_view name, std::string_view table_label) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    it = families_.emplace(std::string(name), Family{}).first;
    order_.push_back(it->first);
  }
  if (it->second.table_label.empty()) {
    it->second.table_label = std::string(table_label);
  }
  return it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view table_label) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = FamilyLocked(name, table_label);
  if (!fam.counter) fam.counter = std::make_unique<Counter>();
  return fam.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view table_label) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = FamilyLocked(name, table_label);
  if (!fam.gauge) fam.gauge = std::make_unique<Gauge>();
  return fam.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = FamilyLocked(name, "");
  if (!fam.histogram) fam.histogram = std::make_unique<Histogram>();
  return fam.histogram.get();
}

int MetricsRegistry::AddCollector(Collector fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::RemoveCollector(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(
      std::remove_if(collectors_.begin(), collectors_.end(),
                     [id](const auto& c) { return c.first == id; }),
      collectors_.end());
}

std::vector<Sample> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  for (const std::string& name : order_) {
    const Family& fam = families_.at(name);
    if (fam.counter) {
      out.push_back(Sample::CounterSample(
          name, static_cast<double>(fam.counter->Value()),
          fam.table_label));
    }
    if (fam.gauge) {
      out.push_back(Sample::GaugeSample(
          name, static_cast<double>(fam.gauge->Value()), fam.table_label));
    }
  }
  for (const auto& [id, fn] : collectors_) fn(&out);
  return out;
}

namespace {

void AppendValue(std::string* out, double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%" PRId64,
                  static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", v);
  }
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  const std::vector<Sample> samples = Collect();
  // The exposition format wants one TYPE line per family with the
  // family's samples contiguous; a collector may interleave families
  // (hits/trips per failpoint), so group them in first-appearance order.
  std::vector<std::vector<const Sample*>> families;
  std::map<std::string_view, size_t> family_of;
  for (const Sample& s : samples) {
    auto [it, inserted] = family_of.emplace(s.name, families.size());
    if (inserted) families.emplace_back();
    families[it->second].push_back(&s);
  }
  std::string out;
  out.reserve(4096);
  for (const std::vector<const Sample*>& family : families) {
    const Sample& head = *family.front();
    out += "# TYPE " + head.name + " " +
           (head.kind == Sample::Kind::kCounter ? "counter" : "gauge") + "\n";
    for (const Sample* s : family) {
      out += s->name;
      if (!s->labels.empty()) out += "{" + s->labels + "}";
      out += " ";
      AppendValue(&out, s->value);
      out += "\n";
    }
  }
  // Owned histograms: cumulative buckets at octave granularity (one `le`
  // per power of two touched), in seconds per Prometheus convention —
  // recorded values are nanoseconds.
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : order_) {
    const Family& fam = families_.at(name);
    if (!fam.histogram) continue;
    const Histogram::Snapshot snap = fam.histogram->Snap();
    out += "# TYPE " + name + " histogram\n";
    uint64_t cum = 0;
    uint64_t octave_end = 1;  // exclusive value bound of the octave
    uint64_t in_octave = 0;
    uint32_t top = 0;
    for (uint32_t i = 0; i < snap.counts.size(); ++i) {
      if (snap.counts[i] != 0) top = i;
    }
    for (uint32_t i = 0; i <= top; ++i) {
      while (Histogram::BucketLower(i) >= octave_end) {
        if (in_octave > 0 || cum > 0) {
          cum += in_octave;
          in_octave = 0;
          out += name + "_bucket{le=\"";
          AppendValue(&out, static_cast<double>(octave_end) / 1e9);
          out += "\"} ";
          AppendValue(&out, static_cast<double>(cum));
          out += "\n";
        }
        octave_end <<= 1;
      }
      in_octave += snap.counts[i];
    }
    cum += in_octave;
    if (snap.count > 0) {
      out += name + "_bucket{le=\"";
      AppendValue(&out, static_cast<double>(octave_end) / 1e9);
      out += "\"} ";
      AppendValue(&out, static_cast<double>(cum));
      out += "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} ";
    AppendValue(&out, static_cast<double>(snap.count));
    out += "\n" + name + "_sum ";
    AppendValue(&out, static_cast<double>(snap.sum) / 1e9);
    out += "\n" + name + "_count ";
    AppendValue(&out, static_cast<double>(snap.count));
    out += "\n";
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

}  // namespace obs
}  // namespace rpe
