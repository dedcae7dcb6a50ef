// Progress monitor: the paper's end-to-end story. Train the estimator
// selector on a workload, then "monitor" a long-running query: at each
// progress checkpoint print the selected estimator's progress bar next to
// the truth, revising the selection once dynamic features become available
// at the 20% driver marker (§4.4).
//
//   $ ./examples/monitor_query
#include <iostream>
#include <string>

#include "harness/runner.h"
#include "selection/selector.h"

using namespace rpe;

namespace {

std::string Bar(double fraction, int width = 40) {
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string bar = "[";
  for (int i = 0; i < width; ++i) bar += i < filled ? '#' : '.';
  bar += "]";
  return bar;
}

}  // namespace

int main() {
  // 1. Build a training workload and capture pipeline records.
  WorkloadConfig train_config;
  train_config.kind = WorkloadKind::kTpch;
  train_config.name = "monitor-train";
  train_config.scale = 5.0;
  train_config.zipf = 1.0;
  train_config.tuning = TuningLevel::kFullyTuned;
  train_config.num_queries = 120;
  train_config.seed = 17;
  auto train_workload = BuildWorkload(train_config);
  if (!train_workload.ok()) {
    std::cerr << train_workload.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Training the selector on " << train_config.num_queries
            << " queries...\n";
  auto train_records = RunWorkload(*train_workload);
  if (!train_records.ok()) {
    std::cerr << train_records.status().ToString() << "\n";
    return 1;
  }
  MartParams params;
  params.num_trees = 60;
  EstimatorSelector static_selector = EstimatorSelector::Train(
      *train_records, PoolSix(), /*use_dynamic=*/false, params);
  EstimatorSelector dynamic_selector = EstimatorSelector::Train(
      *train_records, PoolSix(), /*use_dynamic=*/true, params);
  std::cout << "Trained " << static_selector.pool().size()
            << " static + " << dynamic_selector.pool().size()
            << " dynamic error regressors on " << train_records->size()
            << " pipeline examples.\n\n";

  // 2. The "long-running" query to monitor: a 3-way join with nested
  //    iteration and aggregation.
  QuerySpec spec;
  spec.name = "monitored";
  spec.tables = {"orders", "lineitem", "part"};
  JoinEdge j1;
  j1.left_idx = 0;
  j1.left_col = "o_orderkey";
  j1.right_col = "l_orderkey";
  spec.joins.push_back(j1);
  JoinEdge j2;
  j2.left_idx = 1;
  j2.left_col = "l_partkey";
  j2.right_col = "p_partkey";
  j2.hint = JoinHint::kNestedLoop;
  spec.joins.push_back(j2);
  AggSpec agg;
  agg.group_cols = {{2, "p_brand"}};
  spec.agg = agg;

  auto run = RunQuery(*train_workload, spec);
  if (!run.ok()) {
    std::cerr << run.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Monitored plan:\n" << run->plan->ToString() << "\n";

  // 3. Replay the execution as if live: per pipeline, select an estimator
  //    from static features, revise at the 20% driver marker, and print
  //    the progress trace.
  for (const Pipeline& pipeline : run->result.pipelines) {
    if (pipeline.first_obs < 0 || pipeline.last_obs - pipeline.first_obs < 8) {
      continue;
    }
    PipelineView view{&run->result, &pipeline};
    // Static features are a prefix of the full vector; the static
    // selector reads exactly that prefix, no padding needed.
    const size_t initial_choice =
        static_selector.Select(ExtractStaticFeatures(view));
    const auto all_features = ExtractAllFeatures(view);
    const size_t revised_choice = dynamic_selector.Select(all_features);
    const int revision_obs = MarkerObservation(view, 20.0);

    std::cout << "--- pipeline P" << pipeline.id << ": initial choice "
              << EstimatorName(static_cast<EstimatorKind>(initial_choice))
              << ", revised to "
              << EstimatorName(static_cast<EstimatorKind>(revised_choice))
              << " at the 20% driver marker ---\n";
    const int steps = 12;
    for (int i = 0; i <= steps; ++i) {
      const size_t oi = static_cast<size_t>(
          pipeline.first_obs +
          (pipeline.last_obs - pipeline.first_obs) * i / steps);
      const bool revised =
          revision_obs >= 0 && static_cast<int>(oi) >= revision_obs;
      const size_t choice = revised ? revised_choice : initial_choice;
      const double est = GetEstimator(static_cast<EstimatorKind>(choice))
                             .Estimate(view, oi);
      const double truth = view.TrueProgress(oi);
      std::printf("  est %s %5.1f%%  (true %5.1f%%)  [%s]\n",
                  Bar(est).c_str(), est * 100.0, truth * 100.0,
                  EstimatorName(static_cast<EstimatorKind>(choice)));
    }
  }
  return 0;
}
