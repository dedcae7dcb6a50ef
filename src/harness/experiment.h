// Shared experiment drivers: train-and-evaluate for one split, the §6.2
// ad-hoc (leave-one-workload-out) split, and the selectivity-bucket
// grouping of the Table 2 sensitivity experiment.
#pragma once

#include <string>
#include <vector>

#include "harness/metrics.h"
#include "selection/selector.h"

namespace rpe {

/// \brief Result of training a selector on one split and testing on another.
struct SelectionEvaluation {
  AggregateMetrics metrics;
  std::vector<size_t> choices;  ///< per test record
};

/// Train on `train`, choose per record of `test`, evaluate.
SelectionEvaluation TrainAndEvaluate(
    const std::vector<PipelineRecord>& train,
    const std::vector<PipelineRecord>& test, const std::vector<size_t>& pool,
    bool use_dynamic_features,
    const MartParams& params = EstimatorSelector::DefaultParams());

/// \brief Choices of the §6.2 ad-hoc experiment, aligned with the records
/// it was run on: every record is chosen for exactly once, by selectors
/// trained on the records of every other workload label.
struct AdHocResult {
  std::vector<size_t> static3;   ///< static features, {DNE,TGN,LUO} pool
  std::vector<size_t> dynamic3;  ///< + dynamic features
  std::vector<size_t> static6;   ///< static features, six-estimator pool
  std::vector<size_t> dynamic6;  ///< + dynamic features
};

/// The ad-hoc split: each distinct `workload` label, in order of first
/// appearance, is held out in turn, and static- and dynamic-feature
/// selectors over both pools, trained on the other labels' records,
/// choose for the held-out ones.
AdHocResult RunAdHoc(const std::vector<PipelineRecord>& records,
                     const MartParams& params);

/// Structural signature of a pipeline (its operator multiset), used to group
/// "instances of the same operator pipeline" for Table 2.
std::string PipelineSignature(const PipelineRecord& record);

/// Table 2 grouping: within every signature occurring at least `min_group`
/// times, sort instances by total GetNext calls and split into three
/// equal-sized buckets (0 = small, 1 = medium, 2 = large). Records in rarer
/// signatures get bucket -1 (excluded).
std::vector<int> SelectivityBuckets(const std::vector<PipelineRecord>& records,
                                    size_t min_group = 6);

/// Records whose bucket equals (or differs from) `bucket`.
std::vector<PipelineRecord> FilterByBucket(
    const std::vector<PipelineRecord>& records, const std::vector<int>& buckets,
    int bucket, bool invert = false);

}  // namespace rpe
