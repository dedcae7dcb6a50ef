// Low-overhead metrics registry for the serving tier: named counters,
// gauges, and log-bucketed latency histograms, exposed as Prometheus
// text (docs/OBSERVABILITY.md is the metric catalog).
//
// Hot-path contract: an increment is ONE relaxed fetch_add on a
// cache-line-padded, per-thread-sharded atomic cell — no lock, no
// branch on registry state, no allocation. Aggregation (summing the
// shards) happens only on scrape, so instrumenting the scoring and
// training paths cannot perturb their determinism or their timing in
// any way that matters: the instruction stream is identical for every
// thread count.
//
// Ownership: a MetricsRegistry owns its metrics for its lifetime;
// GetCounter/GetGauge/GetHistogram register on first use and return
// stable pointers that callers may cache and hit lock-free forever
// after. The serving tier's counters all live here; values that exist
// only at scrape time (rates, quantiles, per-shard gauges) or outside
// the registry (failpoint counters, SIMD tier) are exported through
// scrape-time collectors (AddCollector): a collector appends Samples
// when — and only when — someone scrapes, so it costs nothing between
// scrapes. Samples carry an optional table label, which is what
// the registry-driven CLI stats table (table_printer.h: MetricsTable)
// renders; the same Collect() feeds the /metrics endpoint, the
// kMetricsDump wire frame, and the exit-time tables — one source of
// truth.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rpe {
namespace obs {

/// Per-thread shard count of every sharded metric (power of two). 16
/// cells × 64 B keeps a counter at one cache line per concurrent writer
/// for any realistic IO-thread count while bounding scrape work.
inline constexpr uint32_t kMetricShards = 16;

namespace internal {
/// Stable per-thread shard index: threads take increasing ids from a
/// process-global counter, folded into the shard range. Two threads can
/// alias the same cell after kMetricShards spawns — correctness is
/// unaffected (the cell is atomic), only write locality degrades.
uint32_t ThreadShard();
}  // namespace internal

/// \brief Monotonic counter. Inc is one relaxed fetch_add; Value sums
/// the shards (scrape-time only).
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    cells_[internal::ThreadShard()].v.fetch_add(n,
                                                std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kMetricShards];
};

/// \brief Last-write-wins signed gauge (queue depths, generations).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Log-bucketed histogram of nonnegative integer values
/// (latencies in nanoseconds, sizes in bytes). Buckets are base-2 with
/// kHistSubBuckets linear sub-buckets per octave, so any recorded value
/// lands in a bucket whose width is at most 1/kHistSubBuckets of its
/// lower bound — quantile estimates carry a bounded ~12.5% relative
/// error. Record is two relaxed fetch_adds on the caller's shard.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 3;
  static constexpr uint32_t kSub = 1u << kSubBits;  ///< sub-buckets/octave
  /// Bucket count: kSub exact buckets for values < kSub, then kSub per
  /// octave up to 2^64.
  static constexpr uint32_t kBuckets = (64 - kSubBits + 1) * kSub;

  /// Index of the bucket holding `v`. Values < kSub get exact buckets.
  static uint32_t BucketIndex(uint64_t v);
  /// Inclusive lower bound of bucket `i`.
  static uint64_t BucketLower(uint32_t i);
  /// Exclusive upper bound of bucket `i` (0 means 2^64, the top).
  static uint64_t BucketUpper(uint32_t i);

  void Record(uint64_t v) {
    // ThreadShard() ranges over kMetricShards; fold it into the smaller
    // histogram shard count (both powers of two).
    Shard& s = shards_[internal::ThreadShard() & (kHistShards - 1)];
    s.counts[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  /// \brief Scrape-time aggregate of one histogram.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<uint64_t> counts;  ///< kBuckets entries

    /// Quantile estimate (q in [0,1]) by linear interpolation inside the
    /// bucket holding the rank — exact for values < kSub, within the
    /// bucket's ~12.5% width above. 0 when empty.
    double Quantile(double q) const;
  };
  Snapshot Snap() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> counts[kBuckets];
    std::atomic<uint64_t> sum{0};
  };
  // Histograms are an order of magnitude bigger than counters; shard
  // them less aggressively (4 × ~4 KiB) — Record is still contention-free
  // for up to 4 concurrent writers per histogram.
  static constexpr uint32_t kHistShards = 4;
  Shard shards_[kHistShards] = {};

  friend class MetricsRegistry;
};

/// \brief One scrape-time scalar sample. Histograms do not flow through
/// Sample — the registry renders them natively — but a collector may
/// derive gauges (p50/p95) from one.
struct Sample {
  std::string name;         ///< Prometheus metric name (no braces)
  std::string labels;       ///< rendered inside {...}; may be empty
  std::string table_label;  ///< CLI stats-table row; empty = not a row
  double value = 0.0;
  enum class Kind { kCounter, kGauge } kind = Kind::kCounter;

  static Sample CounterSample(std::string name, double value,
                              std::string table_label = "",
                              std::string labels = "");
  static Sample GaugeSample(std::string name, double value,
                            std::string table_label = "",
                            std::string labels = "");
};

/// \brief Registry of owned metrics plus scrape-time collectors. Metric
/// lookup/registration and scraping serialize on one mutex; the returned
/// metric objects are lock-free and stay valid until the registry dies.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. A non-empty table_label makes the metric a row of
  /// the CLI stats table; the first non-empty label wins, so a reader
  /// that looks a cell up before its owner registers it costs no row.
  Counter* GetCounter(std::string_view name,
                      std::string_view table_label = "");
  Gauge* GetGauge(std::string_view name, std::string_view table_label = "");
  Histogram* GetHistogram(std::string_view name);

  /// Scrape-time exporter for state owned elsewhere; returns an id for
  /// RemoveCollector. Collectors run under the registry mutex in
  /// registration order — keep them allocation-light and lock-shallow
  /// (they may take subsystem locks, e.g. a service stats mutex).
  using Collector = std::function<void(std::vector<Sample>*)>;
  int AddCollector(Collector fn);
  void RemoveCollector(int id);

  /// Owned scalars (registration order) followed by collector output.
  std::vector<Sample> Collect() const;

  /// Prometheus text exposition (version 0.0.4): Collect() grouped into
  /// contiguous families (first-appearance order, one TYPE line each),
  /// plus owned histograms (seconds-unit `le` bounds from the nanosecond
  /// buckets).
  std::string RenderPrometheus() const;

  /// Process-global default registry (used when a subsystem is not handed
  /// an explicit one). Tests that need isolation construct their own.
  static MetricsRegistry& Global();

 private:
  struct Family {
    std::string table_label;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  /// Find-or-add `name` (caller holds mu_).
  Family& FamilyLocked(std::string_view name, std::string_view table_label);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
  std::vector<std::string> order_;  ///< registration order of families_
  std::vector<std::pair<int, Collector>> collectors_;
  int next_collector_id_ = 1;
};

}  // namespace obs
}  // namespace rpe
