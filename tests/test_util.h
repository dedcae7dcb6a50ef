// Shared fixtures for the test suite: a tiny deterministic catalog with
// known contents so operator results can be checked against brute force,
// and a helper that steps serving sessions and checks them bit for bit
// against the sequential monitor.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "mart/dataset.h"
#include "mart/mart.h"
#include "obs/metrics.h"
#include "selection/monitor.h"
#include "selection/record.h"
#include "serving/shard_router.h"
#include "storage/catalog.h"
#include "storage/datagen.h"

namespace rpe::testing {

/// Random PipelineRecords at full schema arity (features uniform in
/// [0, 1), l1/l2 for every estimator kind): the fixture for
/// persistence/serving tests and benches that need structurally valid
/// records but no learnable labels.
inline std::vector<PipelineRecord> RandomRecords(size_t n, uint64_t seed) {
  const FeatureSchema& schema = FeatureSchema::Get();
  Rng rng(seed);
  std::vector<PipelineRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PipelineRecord r;
    r.workload = "synthetic";
    r.query = "q" + std::to_string(i % 7);
    r.pipeline_id = static_cast<int>(i % 3);
    r.tag = i % 2 == 0 ? "even" : "odd";
    r.total_n = 100.0 + rng.NextDouble() * 1000.0;
    r.features.reserve(schema.num_features());
    for (size_t f = 0; f < schema.num_features(); ++f) {
      r.features.push_back(rng.NextDouble());
    }
    for (int e = 0; e < kNumEstimatorKinds; ++e) {
      r.l1.push_back(rng.NextDouble() * 0.3);
      r.l2.push_back(rng.NextDouble() * 0.3);
    }
    records.push_back(std::move(r));
  }
  return records;
}

/// The per-candidate models EstimatorSelector::Train compiles for `pool`
/// in one feature mode. Training is deterministic, so these are exactly
/// the trees behind a selector's tables (a selector keeps no trees).
inline std::vector<MartModel> TrainSelectorModels(
    const std::vector<PipelineRecord>& records,
    const std::vector<size_t>& pool, bool use_dynamic,
    const MartParams& params) {
  const FeatureSchema& schema = FeatureSchema::Get();
  const size_t inputs =
      use_dynamic ? schema.num_features() : schema.num_static_features();
  std::vector<MartModel> models;
  for (const size_t est : pool) {
    Dataset data(inputs);
    for (const PipelineRecord& r : records) {
      RPE_CHECK_OK(data.AddExample(
          std::vector<double>(r.features.begin(),
                              r.features.begin() +
                                  static_cast<std::ptrdiff_t>(inputs)),
          r.l1[est]));
    }
    models.push_back(MartModel::Train(data, params));
  }
  return models;
}

/// Build a catalog with two small tables:
///   t_fact(f_id, f_fk, f_val)   — 1000 rows, f_fk in [0,100), f_val [0,50)
///   t_dim(d_id, d_attr)         — 100 rows, d_id = 0..99
/// plus indexes on t_dim.d_id and t_fact.f_fk.
inline std::unique_ptr<Catalog> MakeSmallCatalog(uint64_t seed = 5) {
  auto catalog = std::make_unique<Catalog>();
  Rng rng(seed);
  {
    TableGenSpec spec;
    spec.name = "t_dim";
    spec.num_rows = 100;
    spec.columns = {{"d_id", 8}, {"d_attr", 8}};
    spec.generators = {ColumnGen::Sequential(), ColumnGen::Uniform(0, 9)};
    auto table = GenerateTable(spec, &rng);
    RPE_CHECK(table.ok());
    RPE_CHECK_OK(catalog->AddTable(std::move(table).ValueOrDie()));
  }
  {
    TableGenSpec spec;
    spec.name = "t_fact";
    spec.num_rows = 1000;
    spec.columns = {{"f_id", 8}, {"f_fk", 8}, {"f_val", 8}};
    spec.generators = {ColumnGen::Sequential(), ColumnGen::FkZipf(100, 1.0),
                       ColumnGen::Uniform(0, 49)};
    auto table = GenerateTable(spec, &rng);
    RPE_CHECK(table.ok());
    RPE_CHECK_OK(catalog->AddTable(std::move(table).ValueOrDie()));
  }
  RPE_CHECK_OK(catalog->CreateIndex("t_dim", "d_id"));
  RPE_CHECK_OK(catalog->CreateIndex("t_fact", "f_fk"));
  return catalog;
}

/// One observation as owned arrays, for tests that build or edit runs by
/// hand: copy one out with CopyObservation, change it, and add it to a
/// store with AppendObservation.
struct ObservationRows {
  double vtime = 0.0;
  std::vector<double> k, e, lb, ub, bytes_read, bytes_written;
};

inline ObservationRows CopyObservation(const Observation& obs) {
  const auto copy = [](std::span<const double> values) {
    return std::vector<double>(values.begin(), values.end());
  };
  ObservationRows rows;
  rows.vtime = obs.vtime;
  rows.k = copy(obs.k);
  rows.e = copy(obs.e);
  rows.lb = copy(obs.lb);
  rows.ub = copy(obs.ub);
  rows.bytes_read = copy(obs.bytes_read);
  rows.bytes_written = copy(obs.bytes_written);
  return rows;
}

/// Append `obs` to `store`: the one way tests add an observation by hand.
/// Every array must hold one value per plan node.
inline void AppendObservation(ObservationStore* store,
                              const ObservationRows& obs) {
  const size_t n = store->num_nodes();
  const std::span<double> row = store->Append(obs.vtime);
  size_t offset = 0;
  for (const std::vector<double>* field :
       {&obs.k, &obs.e, &obs.lb, &obs.ub, &obs.bytes_read,
        &obs.bytes_written}) {
    RPE_CHECK_EQ(field->size(), n);
    std::copy(field->begin(), field->end(), row.begin() + offset);
    offset += n;
  }
}

/// Replace `run`'s observations with copies of its first `count`, each
/// passed through `edit` (given the observation index) before it is
/// appended back.
inline void RebuildObservations(
    QueryRunResult* run, size_t count,
    const std::function<void(size_t, ObservationRows*)>& edit) {
  ObservationStore rebuilt(run->observations.num_nodes());
  for (size_t oi = 0; oi < count; ++oi) {
    ObservationRows rows = CopyObservation(run->observations[oi]);
    edit(oi, &rows);
    AppendObservation(&rebuilt, rows);
  }
  run->observations = std::move(rebuilt);
}

/// 64-bit FNV-1a over the bytes of the values fed in: the digest the
/// pinned-output tests compare runs and records with.
class Fnv64 {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Double(double v) { Bytes(&v, sizeof(v)); }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void String(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  template <typename Values>
  void Doubles(const Values& values) {
    Int(static_cast<int64_t>(values.size()));
    for (size_t i = 0; i < values.size(); ++i) Double(values[i]);
  }
  /// Every observation: its count, then per observation the virtual time
  /// and the six per-node arrays.
  void Observations(const ObservationStore& store) {
    Int(static_cast<int64_t>(store.size()));
    for (size_t oi = 0; oi < store.size(); ++oi) {
      const Observation obs = store[oi];
      Double(obs.vtime);
      Doubles(obs.k);
      Doubles(obs.e);
      Doubles(obs.lb);
      Doubles(obs.ub);
      Doubles(obs.bytes_read);
      Doubles(obs.bytes_written);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Current value of the counter `name` in `registry` (0 if nothing has
/// accrued into it yet).
inline uint64_t CounterValue(obs::MetricsRegistry& registry,
                             std::string_view name) {
  return registry.GetCounter(name)->Value();
}

/// Value of the first sample named `name` in a full Collect() — gauges
/// and scrape-time collector samples included. Aborts when absent.
inline double SampleValue(const obs::MetricsRegistry& registry,
                          std::string_view name) {
  for (const obs::Sample& s : registry.Collect()) {
    if (s.name == name) return s.value;
  }
  RPE_CHECK(false) << "no sample named " << name;
  return 0.0;
}

/// The session counters a MonitorService accrues into its registry.
struct SessionCounts {
  uint64_t opened = 0;
  uint64_t completed = 0;
  uint64_t decisions = 0;
  uint64_t observations = 0;
  uint64_t latencies = 0;  ///< rpe_replay_latency_seconds sample count
  bool operator==(const SessionCounts&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const SessionCounts& c) {
    return os << "{opened " << c.opened << ", completed " << c.completed
              << ", decisions " << c.decisions << ", observations "
              << c.observations << ", latencies " << c.latencies << "}";
  }
};

inline SessionCounts ReadSessionCounts(obs::MetricsRegistry& registry) {
  return {CounterValue(registry, "rpe_sessions_opened_total"),
          CounterValue(registry, "rpe_sessions_completed_total"),
          CounterValue(registry, "rpe_decisions_total"),
          CounterValue(registry, "rpe_observations_scored_total"),
          registry.GetHistogram("rpe_replay_latency_seconds")->Snap().count};
}

/// What opening one session per entry of `runs`, stepping it to the end
/// and closing it must accrue, with decisions made by `monitor`.
inline SessionCounts ExpectedSessionCounts(
    const ProgressMonitor& monitor,
    std::span<const QueryRunResult* const> runs) {
  SessionCounts c;
  c.opened = c.completed = c.latencies = runs.size();
  for (const QueryRunResult* run : runs) {
    for (const auto& d : monitor.DecideForRun(*run)) {
      c.decisions += 1 + (d.revised_choice.has_value() ? 1 : 0);
    }
    c.observations += run->observations.size();
  }
  return c;
}

/// Steps session s over *runs[s] through the one serving path —
/// OpenSession, one Advance per observation, CloseSession — with the
/// sessions spread over `threads` caller threads by ParallelFor. Every
/// served value must equal expected(s) bit for bit, the done flag must
/// turn on at the last step only, and one more Advance must report the
/// stream exhausted. Returns the number of sessions that broke any of
/// that (0 = all bit-identical).
inline size_t DriveSessions(
    ShardedMonitorService& service,
    std::span<const QueryRunResult* const> runs,
    const std::function<const std::vector<double>&(size_t)>& expected,
    int threads) {
  ThreadPool pool(threads);
  std::atomic<size_t> broken{0};
  pool.ParallelFor(runs.size(), [&](size_t s) {
    const std::vector<double>& want = expected(s);
    const auto id = service.OpenSession(runs[s]);
    bool same = id.ok() && want.size() == runs[s]->observations.size();
    for (size_t oi = 0; same && oi < want.size(); ++oi) {
      bool done = false;
      const auto got = service.Advance(*id, &done);
      same = got.ok() &&
             std::bit_cast<uint64_t>(*got) ==
                 std::bit_cast<uint64_t>(want[oi]) &&
             done == (oi + 1 == want.size());
    }
    same = same &&
           service.Advance(*id).status().code() == StatusCode::kOutOfRange &&
           service.CloseSession(*id).ok();
    if (!same) broken.fetch_add(1);
  });
  return broken.load();
}

}  // namespace rpe::testing
