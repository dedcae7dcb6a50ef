// Shared fixtures for the test suite: a tiny deterministic catalog with
// known contents so operator results can be checked against brute force.
#pragma once

#include <memory>
#include <set>
#include <string_view>

#include "common/logging.h"
#include "obs/metrics.h"
#include "selection/record.h"
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

}  // namespace rpe::testing
