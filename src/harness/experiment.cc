#include "harness/experiment.h"

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>

#include "common/logging.h"

namespace rpe {

SelectionEvaluation TrainAndEvaluate(const std::vector<PipelineRecord>& train,
                                     const std::vector<PipelineRecord>& test,
                                     const std::vector<size_t>& pool,
                                     bool use_dynamic_features,
                                     const MartParams& params) {
  EstimatorSelector selector =
      EstimatorSelector::Train(train, pool, use_dynamic_features, params);
  SelectionEvaluation eval;
  eval.choices.reserve(test.size());
  for (const auto& r : test) {
    eval.choices.push_back(selector.SelectForRecord(r));
  }
  eval.metrics = EvaluateChoices(test, eval.choices, pool);
  return eval;
}

AdHocResult RunAdHoc(const std::vector<PipelineRecord>& records,
                     const MartParams& params) {
  const size_t n = records.size();
  AdHocResult result;
  result.static3.assign(n, 0);
  result.dynamic3.assign(n, 0);
  result.static6.assign(n, 0);
  result.dynamic6.assign(n, 0);
  std::vector<std::string> labels;
  for (const auto& r : records) {
    if (std::find(labels.begin(), labels.end(), r.workload) == labels.end()) {
      labels.push_back(r.workload);
    }
  }
  for (const std::string& label : labels) {
    std::vector<size_t> test_idx;
    std::vector<PipelineRecord> train, test;
    for (size_t i = 0; i < n; ++i) {
      if (records[i].workload == label) {
        test_idx.push_back(i);
        test.push_back(records[i]);
      } else {
        train.push_back(records[i]);
      }
    }
    std::cerr << "ad-hoc: holding out " << label << " (" << test.size()
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
      const SelectionEvaluation eval =
          TrainAndEvaluate(train, test, c.pool, c.dynamic, params);
      for (size_t j = 0; j < test_idx.size(); ++j) {
        (*c.out)[test_idx[j]] = eval.choices[j];
      }
    }
  }
  return result;
}

std::string PipelineSignature(const PipelineRecord& record) {
  // The Count_op static features occupy positions op*5 in the layout of
  // FeatureSchema (Count, Card, SelAt, SelAbove, SelBelow per op).
  std::ostringstream sig;
  for (size_t op = 0; op < kNumOpTypes; ++op) {
    const double count = record.features[op * 5];
    sig << static_cast<int>(count) << ":";
  }
  return sig.str();
}

std::vector<int> SelectivityBuckets(const std::vector<PipelineRecord>& records,
                                    size_t min_group) {
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < records.size(); ++i) {
    groups[PipelineSignature(records[i])].push_back(i);
  }
  std::vector<int> buckets(records.size(), -1);
  for (auto& [sig, idxs] : groups) {
    if (idxs.size() < min_group) continue;
    std::sort(idxs.begin(), idxs.end(), [&](size_t a, size_t b) {
      return records[a].total_n < records[b].total_n;
    });
    const size_t third = idxs.size() / 3;
    for (size_t pos = 0; pos < idxs.size(); ++pos) {
      int bucket = 1;
      if (pos < third) {
        bucket = 0;
      } else if (pos >= idxs.size() - third) {
        bucket = 2;
      }
      buckets[idxs[pos]] = bucket;
    }
  }
  return buckets;
}

std::vector<PipelineRecord> FilterByBucket(
    const std::vector<PipelineRecord>& records,
    const std::vector<int>& buckets, int bucket, bool invert) {
  RPE_CHECK_EQ(records.size(), buckets.size());
  std::vector<PipelineRecord> out;
  for (size_t i = 0; i < records.size(); ++i) {
    if (buckets[i] < 0) continue;
    if ((buckets[i] == bucket) != invert) out.push_back(records[i]);
  }
  return out;
}

}  // namespace rpe
