// Pins the executor's output bit for bit: a 64-bit FNV-1a digest of every
// record and of every kept run (observation stream, pipeline windows,
// ground truth) of a small TPC-H and a small TPC-DS workload, at 1 and 4
// pool threads, plus one run whose tiny observation cap forces the
// sampler's halving path. A change to how the executor or the run data is
// stored must leave every digest as it is. The constants hold for the
// default build flags (no -march=native, whose FMA contraction may change
// the last bits of a double).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "harness/runner.h"

namespace rpe {
namespace {

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
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Digest {
  uint64_t records = 0;
  uint64_t runs = 0;
  size_t num_records = 0;
  size_t num_observations = 0;
};

Digest Execute(const WorkloadConfig& config, int threads,
               int max_observations) {
  auto workload = BuildWorkload(config);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  RunOptions options;
  options.exec.max_observations = max_observations;
  const int saved = ThreadPool::Global().num_threads();
  ThreadPool::SetGlobalThreads(threads);
  const WorkloadRun run = PlanAndExecuteWorkload(*workload, options, "pin",
                                                 /*keep_runs=*/true);
  ThreadPool::SetGlobalThreads(saved);
  EXPECT_EQ(run.failed, 0u);

  Digest d;
  Fnv64 records;
  for (const PipelineRecord& r : run.records) {
    records.String(r.workload);
    records.String(r.query);
    records.Int(r.pipeline_id);
    records.String(r.tag);
    records.Double(r.total_n);
    records.Doubles(r.features);
    records.Doubles(r.l1);
    records.Doubles(r.l2);
  }
  d.records = records.value();
  d.num_records = run.records.size();

  Fnv64 runs;
  for (const OwnedRun& owned : run.runs) {
    const QueryRunResult& result = owned.result;
    runs.Int(static_cast<int64_t>(result.observations.size()));
    for (size_t oi = 0; oi < result.observations.size(); ++oi) {
      const auto& obs = result.observations[oi];
      runs.Double(obs.vtime);
      runs.Doubles(obs.k);
      runs.Doubles(obs.e);
      runs.Doubles(obs.lb);
      runs.Doubles(obs.ub);
      runs.Doubles(obs.bytes_read);
      runs.Doubles(obs.bytes_written);
    }
    d.num_observations += result.observations.size();
    runs.Int(static_cast<int64_t>(result.pipelines.size()));
    for (const Pipeline& p : result.pipelines) {
      runs.Int(p.first_obs);
      runs.Int(p.last_obs);
      runs.Double(p.start_time);
      runs.Double(p.end_time);
    }
    runs.Doubles(result.true_n);
    runs.Doubles(result.final_bytes_read);
    runs.Doubles(result.final_bytes_written);
    runs.Double(result.total_time);
    runs.Int(static_cast<int64_t>(result.rows_out));
  }
  d.runs = runs.value();
  return d;
}

WorkloadConfig Config(WorkloadKind kind, const std::string& name,
                      double scale, size_t queries) {
  WorkloadConfig config;
  config.kind = kind;
  config.name = name;
  config.scale = scale;
  config.num_queries = queries;
  config.seed = 11;
  return config;
}

void ExpectDigest(const Digest& got, const Digest& want,
                  const std::string& label) {
  EXPECT_EQ(got.num_records, want.num_records) << label;
  EXPECT_EQ(got.num_observations, want.num_observations) << label;
  EXPECT_EQ(got.records, want.records)
      << label << " records digest 0x" << std::hex << got.records;
  EXPECT_EQ(got.runs, want.runs)
      << label << " runs digest 0x" << std::hex << got.runs;
}

const int kDefaultCap = ExecOptions().max_observations;

TEST(PinnedExecOutputTest, TpchAtOneAndFourThreads) {
  const WorkloadConfig config = Config(WorkloadKind::kTpch, "tpch", 3.0, 40);
  const Digest want{0x5730159f9836fb70ULL, 0x3a189a7697fb2155ULL, 68, 8701};
  for (const int threads : {1, 4}) {
    ExpectDigest(Execute(config, threads, kDefaultCap), want,
                 "tpch threads " + std::to_string(threads));
  }
}

TEST(PinnedExecOutputTest, TpcdsAtOneAndFourThreads) {
  const WorkloadConfig config =
      Config(WorkloadKind::kTpcds, "tpcds", 3.0, 30);
  const Digest want{0xc5acf48daea81271ULL, 0x604383510e3374f7ULL, 52, 8582};
  for (const int threads : {1, 4}) {
    ExpectDigest(Execute(config, threads, kDefaultCap), want,
                 "tpcds threads " + std::to_string(threads));
  }
}

TEST(PinnedExecOutputTest, TinyObservationCapHalvesTheStream) {
  // A cap of 16 observations halves the stream several times per query.
  const WorkloadConfig config = Config(WorkloadKind::kTpch, "tpch", 2.0, 12);
  const Digest want{0x35a2713ae4615acaULL, 0xda345c9028a7f75fULL, 14, 157};
  for (const int threads : {1, 4}) {
    ExpectDigest(Execute(config, threads, 16), want,
                 "halving threads " + std::to_string(threads));
  }
}

}  // namespace
}  // namespace rpe
