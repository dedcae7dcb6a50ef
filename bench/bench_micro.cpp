// Micro-benchmarks (google-benchmark): executor throughput per operator
// and over a small workload, feature extraction, MART training internals
// (leaf-histogram build one-pass vs. rescan, sibling subtraction, tree
// fit) and prediction,
// Zipf sampling, histogram construction, and the serving layer (record and
// model snapshot encode/decode, zero-copy mmap model load vs. the
// read+decode path, the session Open/Advance/Close step path,
// ingest push throughput and TrainerLoop retrain+publish latency) — the
// building blocks whose cost determines the (low) overhead the paper
// requires of progress estimation.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>

#include "common/crc32.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "harness/runner.h"
#include "mart/flat_ensemble.h"
#include "mart/tree.h"
#include "mart/mart.h"
#include "obs/metrics.h"
#include "optimizer/histogram.h"
#include "selection/features.h"
#include "serving/mmap_arena.h"
#include "serving/monitor_service.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/trainer_loop.h"
#include "serving/wire.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

std::unique_ptr<Catalog>& SharedCatalog() {
  static auto catalog = rpe::testing::MakeSmallCatalog();
  return catalog;
}

void BM_TableScan(benchmark::State& state) {
  auto& catalog = SharedCatalog();
  for (auto _ : state) {
    auto plan = FinalizePlan(MakeTableScan("t_fact"), *catalog);
    auto run = ExecutePlan(**plan, *catalog);
    benchmark::DoNotOptimize(run->rows_out);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TableScan);

void BM_HashJoin(benchmark::State& state) {
  auto& catalog = SharedCatalog();
  for (auto _ : state) {
    auto plan = FinalizePlan(
        MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0, 1),
        *catalog);
    auto run = ExecutePlan(**plan, *catalog);
    benchmark::DoNotOptimize(run->rows_out);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_HashJoin);

void BM_IndexNestedLoop(benchmark::State& state) {
  auto& catalog = SharedCatalog();
  for (auto _ : state) {
    auto plan = FinalizePlan(
        MakeNestedLoopJoin(MakeTableScan("t_fact"),
                           MakeIndexSeek("t_dim", "d_id"), 1),
        *catalog);
    auto run = ExecutePlan(**plan, *catalog);
    benchmark::DoNotOptimize(run->rows_out);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IndexNestedLoop);

// Executes a fixed small TPC-H workload (scale 2, 20 queries, planned
// once) on one thread; items = queries. The whole executor path per
// query: operator tree, row handling, counter sampling, pipeline windows.
void BM_ExecuteWorkload(benchmark::State& state) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kTpch;
  config.scale = 2.0;
  config.num_queries = 20;
  config.seed = 1;
  static const Workload workload = BuildWorkload(config).ValueOrDie();
  static const std::vector<std::unique_ptr<PhysicalPlan>> plans = [] {
    CardinalityEstimator card(workload.catalog.get());
    Planner planner(workload.catalog.get(), &card, PlannerOptions{});
    std::vector<std::unique_ptr<PhysicalPlan>> out;
    for (const QuerySpec& spec : workload.queries) {
      out.push_back(planner.Plan(spec).ValueOrDie());
    }
    return out;
  }();
  for (auto _ : state) {
    for (const auto& plan : plans) {
      auto run = ExecutePlan(*plan, *workload.catalog);
      benchmark::DoNotOptimize(run->rows_out);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plans.size()));
}
BENCHMARK(BM_ExecuteWorkload);

void BM_FeatureExtraction(benchmark::State& state) {
  auto& catalog = SharedCatalog();
  auto plan = FinalizePlan(
      MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0, 1),
      *catalog);
  auto run = ExecutePlan(**plan, *catalog);
  PipelineView view{&run.ValueOrDie(), &run->pipelines[0]};
  for (auto _ : state) {
    auto features = ExtractAllFeatures(view);
    benchmark::DoNotOptimize(features);
  }
}
BENCHMARK(BM_FeatureExtraction);

// Leaf-histogram construction, the inner loop of RegressionTree::Fit:
// the one-pass column-major builder vs. the pre-refactor per-feature
// rescan over a row-major bin matrix. Items = leaf rows, so the reported
// rate is rows/s across all features (ns/row = inverse). Arg(0) builds a
// dense (root-like) leaf, Arg(1) a sparse one (every third example).
struct HistFixture {
  HistFixture() : data(100) {
    Rng rng(13);
    std::vector<double> x(100);
    for (size_t i = 0; i < 20000; ++i) {
      for (auto& v : x) v = rng.NextDouble();
      RPE_CHECK_OK(data.AddExample(x, x[0]));
    }
    binned = std::make_unique<BinnedDataset>(data);
    rows = binned->RowMajorBins();
    residuals.resize(data.num_examples());
    for (auto& r : residuals) r = rng.NextGaussian();
    dense.resize(data.num_examples());
    std::iota(dense.begin(), dense.end(), 0u);
    for (uint32_t i = 0; i < data.num_examples(); i += 3) {
      sparse.push_back(i);
    }
  }
  Dataset data;
  std::unique_ptr<BinnedDataset> binned;
  std::vector<uint8_t> rows;  // row-major bins, the rescan baseline layout
  std::vector<double> residuals;
  std::vector<uint32_t> dense, sparse;
};

HistFixture& Hist() {
  static HistFixture fixture;
  return fixture;
}

void BM_LeafHistBuildRescan(benchmark::State& state) {
  auto& fx = Hist();
  const auto& indices = state.range(0) == 0 ? fx.dense : fx.sparse;
  const size_t nf = fx.data.num_features();
  std::vector<double> sum(fx.binned->total_bins());
  std::vector<uint32_t> cnt(fx.binned->total_bins());
  for (auto _ : state) {
    // The pre-refactor access pattern: one rescan of the leaf's indices
    // per feature, striding across the row-major bin matrix.
    for (size_t f = 0; f < nf; ++f) {
      const size_t off = fx.binned->hist_offset(f);
      std::fill(sum.begin() + static_cast<ptrdiff_t>(off),
                sum.begin() + static_cast<ptrdiff_t>(off +
                                                     fx.binned->num_bins(f)),
                0.0);
      std::fill(cnt.begin() + static_cast<ptrdiff_t>(off),
                cnt.begin() + static_cast<ptrdiff_t>(off +
                                                     fx.binned->num_bins(f)),
                0u);
      for (const uint32_t idx : indices) {
        const uint8_t b = fx.rows[idx * nf + f];
        sum[off + b] += fx.residuals[idx];
        cnt[off + b] += 1;
      }
    }
    benchmark::DoNotOptimize(sum.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(indices.size()));
}
BENCHMARK(BM_LeafHistBuildRescan)->Arg(0)->Arg(1);

void BM_LeafHistBuildOnePass(benchmark::State& state) {
  auto& fx = Hist();
  const auto& indices = state.range(0) == 0 ? fx.dense : fx.sparse;
  HistogramSet hist(*fx.binned);
  for (auto _ : state) {
    BuildLeafHistograms(*fx.binned, fx.residuals, indices, &hist, nullptr);
    benchmark::DoNotOptimize(hist.sums().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(indices.size()));
}
BENCHMARK(BM_LeafHistBuildOnePass)->Arg(0)->Arg(1);

// The sibling-derivation alternative to building the larger child at all:
// one elementwise pass over the slabs, independent of the leaf size. The
// timed loop includes a slab copy (Fit reuses the parent's slabs in place
// instead), so this is an upper bound on the derivation cost.
void BM_LeafHistSubtract(benchmark::State& state) {
  auto& fx = Hist();
  HistogramSet parent(*fx.binned), child(*fx.binned);
  BuildLeafHistograms(*fx.binned, fx.residuals, fx.dense, &parent, nullptr);
  BuildLeafHistograms(*fx.binned, fx.residuals, fx.sparse, &child, nullptr);
  HistogramSet scratch(*fx.binned);
  for (auto _ : state) {
    scratch = parent;
    scratch.SubtractChild(child);
    benchmark::DoNotOptimize(scratch.sums().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.binned->total_bins()));
}
BENCHMARK(BM_LeafHistSubtract);

// The serving corpus's shape: 321 records × 203 features, every column
// with more distinct values than bins (so 255 bins each). No leaf pays
// for subtraction here, and most leaves below the root have fewer rows
// than bins — the occupied-bin sweep's case.
struct ServingFitFixture {
  ServingFitFixture() : data(203) {
    Rng rng(17);
    std::vector<double> x(203);
    for (size_t i = 0; i < 321; ++i) {
      for (auto& v : x) v = rng.NextDouble();
      RPE_CHECK_OK(data.AddExample(
          x, x[0] * 0.7 + (x[1] > 0.4 ? 0.5 : -0.2) + x[2] * x[3]));
    }
    binned = std::make_unique<BinnedDataset>(data);
    residuals = data.targets();
  }
  Dataset data;
  std::unique_ptr<BinnedDataset> binned;
  std::vector<double> residuals;
};

// One full tree fit over the histogram pipeline (30 leaves, the paper's
// shape) — the unit the TrainerLoop pays per boosting iteration. /0 and
// /1 fit the 20k × 100 fixture on the global pool, with and without
// subtraction; /2 fits the serving-shaped 321 × 203 fixture on one thread,
// so its CPU time is the whole fit's.
void BM_TreeFit(benchmark::State& state) {
  static ServingFitFixture serving;
  static ThreadPool one_thread(1);
  auto& fx = Hist();
  const bool small = state.range(0) == 2;
  const BinnedDataset& binned = small ? *serving.binned : *fx.binned;
  const std::vector<double>& residuals =
      small ? serving.residuals : fx.residuals;
  TreeParams params;
  params.max_leaves = 30;
  params.force_direct_histograms = state.range(0) == 1;
  for (auto _ : state) {
    RegressionTree tree =
        RegressionTree::Fit(binned, residuals, {}, params, nullptr,
                            small ? &one_thread : nullptr);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(binned.num_examples()));
}
BENCHMARK(BM_TreeFit)->Arg(0)->Arg(1)->Arg(2);

void BM_MartTrain1k(benchmark::State& state) {
  Dataset data(50);
  Rng rng(3);
  std::vector<double> x(50);
  for (size_t i = 0; i < 1000; ++i) {
    for (auto& v : x) v = rng.NextDouble();
    RPE_CHECK_OK(data.AddExample(x, x[0] * 0.5 + (x[1] > 0.3 ? 0.2 : 0.0)));
  }
  MartParams params;
  params.num_trees = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MartModel model = MartModel::Train(data, params);
    benchmark::DoNotOptimize(model.num_trees());
  }
}
BENCHMARK(BM_MartTrain1k)->Arg(10)->Arg(50);

// Shared fixture for the inference benchmarks: a 500x50 dataset and a
// 100-tree model (plus an 8-model set mirroring the selection pool).
struct InferenceFixture {
  InferenceFixture() : data(50) {
    Rng rng(3);
    std::vector<double> x(50);
    for (size_t i = 0; i < 500; ++i) {
      for (auto& v : x) v = rng.NextDouble();
      RPE_CHECK_OK(data.AddExample(x, x[0]));
    }
    probe = x;
    MartParams params;
    params.num_trees = 100;
    model = MartModel::Train(data, params);
    // The deployed selection configuration of the paper (Fig. 3): eight
    // candidate regressors at M = 200 boosting iterations each.
    params.num_trees = 200;
    for (int m = 0; m < 8; ++m) {
      params.seed = static_cast<uint64_t>(m + 1);
      pool_models.push_back(MartModel::Train(data, params));
    }
    pool_set = FlatEnsembleSet::Compile(pool_models);
  }
  Dataset data;
  std::vector<double> probe;
  MartModel model;
  std::vector<MartModel> pool_models;  // the per-candidate selection pool
  FlatEnsembleSet pool_set;
};

InferenceFixture& Inference() {
  static InferenceFixture fixture;
  return fixture;
}

void BM_MartPredict(benchmark::State& state) {
  auto& fx = Inference();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model.Predict(fx.probe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MartPredict);

// Multi-model scoring, one feature vector per decision: the per-decision
// cost of the selection stack (8 candidate regressors), seed loop vs.
// compiled set. The probe row rotates so the walk pattern varies between
// decisions the way real selection traffic does — repeating one row would
// let the branch predictor memorize the seed path.
void BM_MultiModelPredictSeed(benchmark::State& state) {
  auto& fx = Inference();
  std::vector<double> out(fx.pool_models.size());
  size_t row = 0;
  for (auto _ : state) {
    const auto x = fx.data.ExampleSpan(row);
    row = (row + 1) % fx.data.num_examples();
    for (size_t m = 0; m < fx.pool_models.size(); ++m) {
      out[m] = fx.pool_models[m].Predict(x);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_MultiModelPredictSeed);

void BM_MultiModelPredictFlat(benchmark::State& state) {
  auto& fx = Inference();
  std::vector<double> out(fx.pool_set.num_models());
  size_t row = 0;
  for (auto _ : state) {
    fx.pool_set.PredictAll(fx.data.ExampleSpan(row), out);
    row = (row + 1) % fx.data.num_examples();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_MultiModelPredictFlat);

// SIMD kernel rows (common/simd.h): each benchmark runs once forced to
// the scalar tier and once at the host's detected tier, so a report
// shows the dispatch win side by side. The vector paths are pinned
// bit-identical to scalar by tests/simd_test.cpp; these rows measure the
// only thing a tier is allowed to change — throughput. All SIMD rows are
// allowlisted in scripts/check_bench.py: the detected tier differs
// between the baseline host and CI runners, so their ratios are
// environment, not regressions.
void BM_PredictAllBatch(benchmark::State& state) {
  auto& fx = Inference();
  const simd::Tier prev = simd::ActiveTier();
  simd::ForceTier(state.range(0) != 0 ? simd::DetectedTier()
                                      : simd::Tier::kScalar);
  const size_t n = fx.data.num_examples();
  std::vector<const double*> rows(n);
  for (size_t r = 0; r < n; ++r) {
    rows[r] = fx.data.ExampleSpan(r).data();
  }
  std::vector<double> out(n * fx.pool_set.num_models());
  for (auto _ : state) {
    fx.pool_set.PredictAllBatch(rows, out);
    benchmark::DoNotOptimize(out.data());
  }
  simd::ForceTier(prev);
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(n * fx.pool_set.num_models()));
}
BENCHMARK(BM_PredictAllBatch)->Arg(0)->Arg(1);

// Args: (tier, column shape) — shape 0 is a random column (run detection
// must not lose), shape 1 a sorted/binned-monotone column (long uniform
// runs, where the register-accumulator path wins).
void BM_AccumulateColumnDense(benchmark::State& state) {
  const size_t n = size_t{1} << 16;
  const bool sorted = state.range(1) != 0;
  std::vector<uint8_t> col(n);
  std::vector<double> res(n);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    res[i] = rng.NextGaussian();
    col[i] = sorted ? static_cast<uint8_t>((i * 256) / n)
                    : static_cast<uint8_t>(rng.NextDouble() * 256.0);
  }
  std::vector<double> sum(256, 0.0);
  std::vector<uint32_t> cnt(256, 0);
  const simd::Tier prev = simd::ActiveTier();
  simd::ForceTier(state.range(0) != 0 ? simd::DetectedTier()
                                      : simd::Tier::kScalar);
  for (auto _ : state) {
    AccumulateColumnDense(col.data(), res.data(), n, sum.data(),
                          cnt.data());
    benchmark::DoNotOptimize(sum.data());
  }
  simd::ForceTier(prev);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AccumulateColumnDense)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

// The snapshot-checksum kernel over a 1 MiB buffer: SW is the slicing-
// by-8 scalar reference, HW the dispatched (PCLMUL-folded) path.
void Crc32Bench(benchmark::State& state, simd::Tier tier) {
  std::vector<unsigned char> buf(size_t{1} << 20);
  Rng rng(5);
  for (auto& b : buf) {
    b = static_cast<unsigned char>(rng.NextDouble() * 256.0);
  }
  const simd::Tier prev = simd::ActiveTier();
  simd::ForceTier(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf.data(), buf.size()));
  }
  simd::ForceTier(prev);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
void BM_Crc32SW(benchmark::State& state) {
  Crc32Bench(state, simd::Tier::kScalar);
}
BENCHMARK(BM_Crc32SW);
void BM_Crc32HW(benchmark::State& state) {
  Crc32Bench(state, simd::DetectedTier());
}
BENCHMARK(BM_Crc32HW);

// Observability hot paths: what one serving-tier accrual costs. Batches
// of 64 ops per iteration amortize the benchmark loop overhead so the
// per-op figure is the fetch_add itself, not the harness.
void BM_MetricsIncrement(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench_hits_total");
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) counter->Inc();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MetricsIncrement);

void BM_HistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram("bench_latency_seconds");
  uint64_t v = 12345;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      hist->Record(v);
      v = v * 2862933555777941757ull + 3037000493ull;  // span the octaves
      v &= (1u << 24) - 1;
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HistogramRecord);

// Serving-layer fixture: a synthetic record set at full schema arity, a
// trained selector stack, and a few executed runs to replay — the
// ingredients of the snapshot and MonitorService benchmarks.
struct ServingFixture {
  ServingFixture() : records(rpe::testing::RandomRecords(200, 17)) {
    records_snapshot = EncodeRecordBatch(records).ValueOrDie();

    MartParams params;
    params.num_trees = 20;
    params.tree.max_leaves = 16;
    stack = std::make_shared<const SelectorStack>(
        SelectorStack::Train(records, PoolOriginalThree(), params));
    stack_snapshot = EncodeSelectorStack(*stack);
    // Per-process name: concurrent or cross-user runs must not collide
    // on a shared temp file (writer-vs-mmap races, stale ownership).
    stack_path = std::filesystem::temp_directory_path().string() +
                 "/rpe_bench_micro_stack." + std::to_string(::getpid()) +
                 ".rpsn";
    RPE_CHECK_OK(SaveSelectorStack(*stack, stack_path));

    auto& catalog = SharedCatalog();
    auto add_run = [&](std::unique_ptr<PlanNode> root) {
      auto plan = FinalizePlan(std::move(root), *catalog);
      auto run = ExecutePlan(**plan, *catalog);
      plans.push_back(std::move(plan).ValueOrDie());
      runs.push_back(std::move(run).ValueOrDie());
    };
    add_run(MakeTableScan("t_fact"));
    add_run(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                         1));
    add_run(MakeNestedLoopJoin(MakeTableScan("t_fact"),
                               MakeIndexSeek("t_dim", "d_id"), 1));
  }

  ~ServingFixture() { std::remove(stack_path.c_str()); }

  std::vector<PipelineRecord> records;
  std::string records_snapshot;
  std::shared_ptr<const SelectorStack> stack;
  std::string stack_snapshot;
  std::string stack_path;
  std::vector<std::unique_ptr<PhysicalPlan>> plans;
  std::vector<QueryRunResult> runs;
};

ServingFixture& Serving() {
  static ServingFixture fixture;
  return fixture;
}

// The "including read/write" cost of Table 7: record persistence through
// the .rpsn record batch.
void BM_RecordsSnapshotEncode(benchmark::State& state) {
  auto& fx = Serving();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeRecordBatch(fx.records));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.records.size()));
}
BENCHMARK(BM_RecordsSnapshotEncode);

void BM_RecordsSnapshotDecode(benchmark::State& state) {
  auto& fx = Serving();
  for (auto _ : state) {
    auto records = DecodeRecordBatch(fx.records_snapshot);
    benchmark::DoNotOptimize(records->size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.records.size()));
}
BENCHMARK(BM_RecordsSnapshotDecode);

// Model (re)load for warm restarts: one binary snapshot decode (owned copy
// + borrowing the compiled tables in place).
void BM_SelectorStackSnapshotDecode(benchmark::State& state) {
  auto& fx = Serving();
  for (auto _ : state) {
    auto stack = DecodeSelectorStack(fx.stack_snapshot);
    RPE_CHECK(stack.ok());
    benchmark::DoNotOptimize((*stack)->static_selector.pool().size());
  }
}
BENCHMARK(BM_SelectorStackSnapshotDecode);

// Model load for warm restarts from a file: map + CRC + schema check +
// borrowing the compiled tables in place — the per-publish load cost the
// serving tier pays.
void BM_SnapshotMmapLoad(benchmark::State& state) {
  auto& fx = Serving();
  for (auto _ : state) {
    auto loaded = LoadSelectorStack(fx.stack_path);
    RPE_CHECK(loaded.ok());
    benchmark::DoNotOptimize((*loaded)->static_selector.pool().size());
  }
}
BENCHMARK(BM_SnapshotMmapLoad);

// The session step path in the replay-open call pattern: 128 sessions of
// the fixture's runs open at once, each stepped to its end by one
// Advance(kMaxAdvanceSteps), then all closed. time_per_step divides the
// whole cycle (decide at open included) by the steps taken.
void BM_SessionOpenAdvanceClose128(benchmark::State& state) {
  auto& fx = Serving();
  ShardedMonitorService::Options options;
  options.num_shards = 2;
  ShardedMonitorService service(fx.stack, options);
  constexpr size_t kSessions = 128;
  std::vector<ShardedMonitorService::SessionId> ids(kSessions);
  int64_t steps = 0;
  for (auto _ : state) {
    for (size_t s = 0; s < kSessions; ++s) {
      ids[s] = *service.OpenSessionOnShard(&fx.runs[s % fx.runs.size()],
                                           s % options.num_shards);
    }
    steps = 0;
    for (const auto id : ids) {
      uint32_t taken = 0;
      bool done = false;
      benchmark::DoNotOptimize(
          *service.Advance(id, kMaxAdvanceSteps, &taken, &done));
      steps += taken;
    }
    for (const auto id : ids) RPE_CHECK_OK(service.CloseSession(id));
  }
  state.counters["time_per_step"] = benchmark::Counter(
      static_cast<double>(steps),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SessionOpenAdvanceClose128);

// The session step path in the poll-pipelined call pattern: 64 sessions
// held as values, the way a TCP connection holds them, each stepped one
// observation per round through MonitorService::Step (no lock, no map
// lookup). A session at the end of its run rewinds to its first
// observation. time_per_step divides a round by its 64 steps.
void BM_SessionAdvance1x64(benchmark::State& state) {
  auto& fx = Serving();
  MonitorService service(fx.stack);
  constexpr size_t kSessions = 64;
  std::vector<MonitorService::Session> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.push_back(
        std::move(service.Open(&fx.runs[s % fx.runs.size()])).ValueOrDie());
  }
  for (auto _ : state) {
    for (MonitorService::Session& session : sessions) {
      if (session.done()) session.next_obs = 0;
      uint32_t taken = 0;
      bool done = false;
      benchmark::DoNotOptimize(
          *MonitorService::Step(&session, 1, &taken, &done));
    }
  }
  state.counters["time_per_step"] = benchmark::Counter(
      static_cast<double>(kSessions),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SessionAdvance1x64);

// Online-learning loop: producer-side ingest throughput (Push with a
// consumer keeping the queue drained) — the per-record overhead a running
// executor pays to stream training data out.
void BM_IngestQueuePush(benchmark::State& state) {
  auto& fx = Serving();
  RecordIngestQueue queue(4096);
  std::vector<PipelineRecord> drain;
  size_t i = 0;
  for (auto _ : state) {
    const size_t idx = i++ % fx.records.size();
    if (!queue.Push(fx.records[idx])) {
      // Queue full: batch-drain (amortized consumer cost) and retry the
      // dropped record.
      drain.clear();
      queue.DrainBatch(&drain, 4096);
      queue.Push(fx.records[idx]);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IngestQueuePush);

// One full retrain + publish cycle of the TrainerLoop (drain a
// threshold's worth of records, retrain the selector stack, hot-swap it
// into the service) — the latency budget of keeping models current.
void BM_TrainerLoopRetrain(benchmark::State& state) {
  auto& fx = Serving();
  MonitorService service(fx.stack);
  RecordIngestQueue queue(4096);
  TrainerLoop::Options options;
  options.retrain_min_records = 64;
  options.min_corpus = 64;
  options.max_corpus = 512;
  options.pool = PoolOriginalThree();
  options.params.num_trees = 20;
  options.params.tree.max_leaves = 16;
  TrainerLoop trainer(&queue, &service, options);
  size_t i = 0;
  for (auto _ : state) {
    for (size_t k = 0; k < options.retrain_min_records; ++k) {
      queue.Push(fx.records[i++ % fx.records.size()]);
    }
    trainer.RunOnce();  // drains the batch, retrains, publishes
    benchmark::DoNotOptimize(service.model_generation());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(options.retrain_min_records));
}
BENCHMARK(BM_TrainerLoopRetrain);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(100000, 1.0);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_HistogramBuild(benchmark::State& state) {
  auto& catalog = SharedCatalog();
  const Table* fact = *catalog->GetTable("t_fact");
  for (auto _ : state) {
    EquiDepthHistogram hist(*fact, 1);
    benchmark::DoNotOptimize(hist.distinct_count());
  }
}
BENCHMARK(BM_HistogramBuild);

}  // namespace
}  // namespace rpe

BENCHMARK_MAIN();
