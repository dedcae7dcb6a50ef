// The paper's central result (§6.2, Fig. 5 and Table 6) as a deterministic
// gate: per-pipeline estimator selection beats every single estimator of its
// pool in mean L1/L2, dynamic features beat static ones, and selection
// shrinks the >2x/>5x error tails. It runs the ad-hoc split (RunAdHoc)
// on the six paper workloads at half their query counts and data scale 2,
// with 30 trees x 30 leaves: about 1.7k records, built in process (never
// from a record cache).
//
// Full-scale anchor (`bench_paper --only fig5,table6`: paper configs, 100
// trees, 3,082 records). Fig. 5 L1: DNE 0.0783, TGN 0.0810, LUO 0.0888,
// BATCHDNE 0.0775, DNESEEK 0.0765, TGNINT 0.0672; static-3 0.0666,
// dynamic-3 0.0610, static-6 0.0639, dynamic-6 0.0579; oracle-3 0.0506,
// oracle-6 0.0462. Table 6 (>2x / >5x / >10x): DNE 29.5 / 11.6 / 5.3%,
// TGN 21.3 / 10.0 / 5.3%, LUO 39.3 / 16.5 / 8.0%, static 18.5 / 7.1 / 3.0%,
// dynamic 14.4 / 4.5 / 1.8%.
//
// Do not re-seed or resize this configuration to keep an ordering green: a
// change that flips one is a finding about the change.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/runner.h"

namespace rpe {
namespace {

struct PolicyNumbers {
  const char* name;
  double l1;
  double l2;
  double gt2;  ///< fraction of records beyond 2x the best of {DNE,TGN,LUO}
  double gt5;  ///< ... beyond 5x
};

// The half-scale numbers. A change that moves them by more than the
// tolerances below changed records, models or decisions, and says so.
constexpr PolicyNumbers kExpected[] = {
    {"DNE", 0.05816, 0.06783, 0.2717, 0.1216},
    {"TGN", 0.05356, 0.06204, 0.2141, 0.0867},
    {"LUO", 0.06270, 0.07542, 0.4258, 0.1763},
    {"BATCHDNE", 0.05559, 0.06475, 0.2408, 0.0948},
    {"DNESEEK", 0.05151, 0.05995, 0.2147, 0.0686},
    {"TGNINT", 0.04564, 0.05435, 0.2624, 0.0832},
    {"static-3", 0.04868, 0.057472, 0.1745, 0.0692},
    {"dynamic-3", 0.04441, 0.052528, 0.1518, 0.0442},
    {"static-6", 0.04552, 0.053833, 0.1896, 0.0611},
    {"dynamic-6", 0.04201, 0.049859, 0.1955, 0.0512},
};
constexpr double kErrorTolerance = 1e-4;  // mean L1/L2, absolute
constexpr double kTailTolerance = 1e-3;   // tail fractions, absolute

// Indices into kExpected / the measured rows.
enum Row : size_t {
  kDne,
  kTgn,
  kLuo,
  kBatchDne,
  kDneSeek,
  kTgnInt,
  kStatic3,
  kDynamic3,
  kStatic6,
  kDynamic6,
  kNumRows
};
constexpr Row kPool3[] = {kDne, kTgn, kLuo};
constexpr Row kPool6[] = {kDne, kTgn, kLuo, kBatchDne, kDneSeek, kTgnInt};

std::vector<PipelineRecord> HalfScaleRecords() {
  std::vector<PipelineRecord> all;
  for (WorkloadConfig config : PaperWorkloadConfigs()) {
    config.num_queries /= 2;
    config.scale = 2.0;
    auto records = BuildAndRun(config);
    EXPECT_TRUE(records.ok()) << records.status().ToString();
    if (!records.ok()) return {};
    all.insert(all.end(), records->begin(), records->end());
  }
  return all;
}

TEST(QualityGate, SelectionBeatsEverySingleEstimatorAtHalfScale) {
  const std::vector<PipelineRecord> records = HalfScaleRecords();
  ASSERT_GT(records.size(), 1000u);
  MartParams params;
  params.num_trees = 30;
  params.tree.max_leaves = 30;
  params.learning_rate = 0.1;
  const AdHocResult adhoc = RunAdHoc(records, params);

  std::vector<std::vector<size_t>> choices;
  for (size_t est : PoolSix()) choices.push_back(FixedChoice(records, est));
  choices.push_back(adhoc.static3);
  choices.push_back(adhoc.dynamic3);
  choices.push_back(adhoc.static6);
  choices.push_back(adhoc.dynamic6);
  ASSERT_EQ(choices.size(), static_cast<size_t>(kNumRows));

  std::vector<PolicyNumbers> got;
  std::printf("%zu records\n%-10s %9s %9s %8s %8s\n", records.size(),
              "policy", "L1", "L2", ">2x", ">5x");
  for (size_t i = 0; i < kNumRows; ++i) {
    const AggregateMetrics m =
        EvaluateChoices(records, choices[i], PoolOriginalThree());
    got.push_back({kExpected[i].name, m.avg_l1, m.avg_l2, m.frac_ratio_gt2,
                   m.frac_ratio_gt5});
    std::printf("%-10s %9.6f %9.6f %7.3f%% %7.3f%%\n", got[i].name,
                got[i].l1, got[i].l2, 100 * got[i].gt2, 100 * got[i].gt5);
    EXPECT_NEAR(got[i].l1, kExpected[i].l1, kErrorTolerance) << got[i].name;
    EXPECT_NEAR(got[i].l2, kExpected[i].l2, kErrorTolerance) << got[i].name;
    EXPECT_NEAR(got[i].gt2, kExpected[i].gt2, kTailTolerance) << got[i].name;
    EXPECT_NEAR(got[i].gt5, kExpected[i].gt5, kTailTolerance) << got[i].name;
  }

  // Selection is at most every single estimator of its pool in mean error.
  auto beats_pool = [&](Row policy, const auto& pool) {
    for (Row est : pool) {
      EXPECT_LE(got[policy].l1, got[est].l1)
          << got[policy].name << " vs " << got[est].name;
      EXPECT_LE(got[policy].l2, got[est].l2)
          << got[policy].name << " vs " << got[est].name;
    }
  };
  beats_pool(kStatic3, kPool3);
  beats_pool(kDynamic3, kPool3);
  beats_pool(kStatic6, kPool6);
  beats_pool(kDynamic6, kPool6);

  // Dynamic features help over static ones, in each pool.
  EXPECT_LE(got[kDynamic3].l1, got[kStatic3].l1);
  EXPECT_LE(got[kDynamic3].l2, got[kStatic3].l2);
  EXPECT_LE(got[kDynamic6].l1, got[kStatic6].l1);
  EXPECT_LE(got[kDynamic6].l2, got[kStatic6].l2);

  // Selection over {DNE,TGN,LUO} shrinks the error-ratio tails below every
  // estimator of that pool.
  for (Row policy : {kStatic3, kDynamic3}) {
    for (Row est : kPool3) {
      EXPECT_LT(got[policy].gt2, got[est].gt2)
          << got[policy].name << " vs " << got[est].name;
      EXPECT_LT(got[policy].gt5, got[est].gt5)
          << got[policy].name << " vs " << got[est].name;
    }
  }

  // Two orderings the paper's claim would suggest do not hold at this
  // scale; they are expected values above, not assertions.
  std::printf(
      "not asserted: static-3 >5x %.3f%% vs DNESEEK %.3f%% (expected "
      "above); dynamic-6 >2x %.3f%% vs static-6 %.3f%% (expected above)\n",
      100 * got[kStatic3].gt5, 100 * got[kDneSeek].gt5,
      100 * got[kDynamic6].gt2, 100 * got[kStatic6].gt2);
  // The thinnest asserted margin; a change to model bytes reports it.
  std::printf("thinnest margin: static-6 L1 below TGNINT by %.2f%%\n",
              100 * (got[kTgnInt].l1 - got[kStatic6].l1) / got[kTgnInt].l1);
}

}  // namespace
}  // namespace rpe
