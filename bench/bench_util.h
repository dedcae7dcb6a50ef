// Shared infrastructure for the paper-reproduction bench binaries: cached
// record sets for the six evaluation workloads and the TPC-H sensitivity
// variants, plus the MART parameters used in the experiments.
//
// All bench binaries are standalone executables that print the paper's
// tables/figures as aligned text; expensive workload executions are cached
// as .rpsn record batches under RPE_CACHE_DIR (default ./rpe_record_cache),
// so the first binary pays the cost and the rest reuse it.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/table_printer.h"
#include "harness/experiment.h"
#include "harness/runner.h"

namespace rpe::bench {

/// MART parameters for the experiment benches: the paper's 30-leaf trees
/// with a reduced number of boosting iterations (the accuracy plateau is
/// reached well before M=200 on these dataset sizes; Table 7 still sweeps
/// the full M range for the training-time reproduction).
inline MartParams ExperimentParams() {
  MartParams params;
  params.num_trees = 100;
  params.tree.max_leaves = 30;
  params.learning_rate = 0.1;
  return params;
}

inline RunOptions DefaultRunOptions() {
  RunOptions options;
  options.progress_every = 200;
  return options;
}

/// Records of all six paper workloads (cached), workload label preserved.
inline std::vector<PipelineRecord> AllPaperRecords() {
  std::vector<PipelineRecord> all;
  for (const WorkloadConfig& config : PaperWorkloadConfigs()) {
    std::cerr << "== workload " << config.name << " ==\n";
    auto records =
        CachedRecords("paper_" + config.name, config, DefaultRunOptions());
    RPE_CHECK(records.ok()) << records.status().ToString();
    all.insert(all.end(), records->begin(), records->end());
  }
  return all;
}

inline std::vector<std::string> PaperWorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadConfig& config : PaperWorkloadConfigs()) {
    names.push_back(config.name);
  }
  return names;
}

/// TPC-H variant records for the sensitivity experiments; `dimension` is
/// "design", "skew" or "size". Records are tagged with the variant label.
inline std::vector<PipelineRecord> TpchVariantRecords(
    const std::string& dimension) {
  struct Variant {
    std::string tag;
    double scale;
    double zipf;
    TuningLevel tuning;
    uint64_t seed;
  };
  std::vector<Variant> variants;
  if (dimension == "design") {
    variants = {{"fully", 10.0, 1.0, TuningLevel::kFullyTuned, 51},
                {"partially", 10.0, 1.0, TuningLevel::kPartiallyTuned, 52},
                {"untuned", 10.0, 1.0, TuningLevel::kUntuned, 53}};
  } else if (dimension == "skew") {
    variants = {{"z0", 10.0, 0.0, TuningLevel::kPartiallyTuned, 61},
                {"z1", 10.0, 1.0, TuningLevel::kPartiallyTuned, 62},
                {"z2", 10.0, 2.0, TuningLevel::kPartiallyTuned, 63}};
  } else if (dimension == "size") {
    variants = {{"sf2", 2.0, 1.0, TuningLevel::kPartiallyTuned, 71},
                {"sf5", 5.0, 1.0, TuningLevel::kPartiallyTuned, 72},
                {"sf10", 10.0, 1.0, TuningLevel::kPartiallyTuned, 73}};
  } else {
    RPE_CHECK(false) << "unknown sensitivity dimension " << dimension;
  }
  std::vector<PipelineRecord> all;
  for (const Variant& v : variants) {
    WorkloadConfig config;
    config.kind = WorkloadKind::kTpch;
    config.name = "tpch-" + dimension + "-" + v.tag;
    config.scale = v.scale;
    config.zipf = v.zipf;
    config.tuning = v.tuning;
    config.num_queries = 300;
    config.seed = v.seed;
    std::cerr << "== workload " << config.name << " ==\n";
    auto records = CachedRecords("sens_" + config.name, config,
                                 DefaultRunOptions(), v.tag);
    RPE_CHECK(records.ok()) << records.status().ToString();
    all.insert(all.end(), records->begin(), records->end());
  }
  return all;
}

/// \brief The §6.2 ad-hoc experiment: leave one workload out, train the
/// selector on the other five, evaluate on the held-out one. Choices are
/// aligned with `records` order (every record is tested exactly once, when
/// its workload is held out).
struct AdHocResult {
  std::vector<PipelineRecord> records;
  std::vector<size_t> static3;   ///< static features, {DNE,TGN,LUO} pool
  std::vector<size_t> dynamic3;  ///< + dynamic features
  std::vector<size_t> static6;   ///< static features, six-estimator pool
  std::vector<size_t> dynamic6;  ///< + dynamic features
};

inline AdHocResult RunAdHocExperiment() {
  AdHocResult result;
  result.records = AllPaperRecords();
  const size_t n = result.records.size();
  result.static3.assign(n, 0);
  result.dynamic3.assign(n, 0);
  result.static6.assign(n, 0);
  result.dynamic6.assign(n, 0);

  for (const std::string& name : PaperWorkloadNames()) {
    std::vector<size_t> test_idx;
    std::vector<PipelineRecord> train, test;
    for (size_t i = 0; i < n; ++i) {
      if (result.records[i].workload == name) {
        test_idx.push_back(i);
        test.push_back(result.records[i]);
      } else {
        train.push_back(result.records[i]);
      }
    }
    if (test.empty()) continue;
    std::cerr << "ad-hoc: holding out " << name << " (" << test.size()
              << " test pipelines)\n";
    struct Config {
      std::vector<size_t>* out;
      std::vector<size_t> pool;
      bool dynamic;
    };
    const Config configs[] = {
        {&result.static3, PoolOriginalThree(), false},
        {&result.dynamic3, PoolOriginalThree(), true},
        {&result.static6, PoolSix(), false},
        {&result.dynamic6, PoolSix(), true},
    };
    for (const Config& c : configs) {
      auto eval = TrainAndEvaluate(train, test, c.pool, c.dynamic,
                                   ExperimentParams());
      for (size_t j = 0; j < test_idx.size(); ++j) {
        (*c.out)[test_idx[j]] = eval.choices[j];
      }
    }
  }
  return result;
}

/// One leave-one-tag-out sensitivity experiment (Tables 3/4/5 pattern):
/// for each tag, train the selector on the other tags and report the
/// %-optimal of DNE/TGN/LUO and of selection on the held-out tag.
inline void RunSensitivityTable(const std::string& dimension,
                                const std::vector<std::string>& tags,
                                const std::vector<PipelineRecord>& records,
                                const std::string& caption) {
  std::cout << caption << "\n";
  TablePrinter table({"Estimator", "test: " + tags[0], "test: " + tags[1],
                      "test: " + tags[2]});
  const std::vector<size_t> pool = PoolOriginalThree();
  std::vector<std::vector<std::string>> rows(4);
  rows[0].push_back("DNE");
  rows[1].push_back("TGN");
  rows[2].push_back("LUO");
  rows[3].push_back("EST. SEL.");
  for (const std::string& tag : tags) {
    auto test = FilterByTag(records, tag);
    auto train = FilterByTag(records, tag, /*invert=*/true);
    for (size_t i = 0; i < 3; ++i) {
      rows[i].push_back(TablePrinter::Pct(FractionOptimal(test, pool[i], pool)));
    }
    auto eval = TrainAndEvaluate(train, test, pool, /*use_dynamic=*/false,
                                 ExperimentParams());
    rows[3].push_back(TablePrinter::Pct(eval.metrics.pct_optimal));
  }
  for (auto& r : rows) table.AddRow(std::move(r));
  table.Print();
  std::cout << "(" << dimension
            << " sensitivity: selection trained on the two other variants)\n";
}

}  // namespace rpe::bench
