// Ad-hoc generalization (the paper's central robustness claim): train the
// selector on one benchmark family (TPC-H) and apply it to a completely
// different database and workload (the Real-1 sales schema). Prints the
// per-policy average errors plus the selector stack round-tripped through
// its binary snapshot (as a deployment would persist it).
//
//   $ ./examples/adhoc_model
#include <iostream>

#include "common/table_printer.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "serving/snapshot.h"

using namespace rpe;

int main() {
  // Train workload: TPC-H, z = 1, partially tuned.
  WorkloadConfig train_config;
  train_config.kind = WorkloadKind::kTpch;
  train_config.name = "adhoc-train-tpch";
  train_config.scale = 5.0;
  train_config.zipf = 1.0;
  train_config.tuning = TuningLevel::kPartiallyTuned;
  train_config.num_queries = 150;
  train_config.seed = 23;

  // Test workload: the Real-1 sales/reporting schema — different tables,
  // different join shapes, different operator mix.
  WorkloadConfig test_config;
  test_config.kind = WorkloadKind::kReal1;
  test_config.name = "adhoc-test-real1";
  test_config.scale = 5.0;
  test_config.zipf = 1.2;
  test_config.tuning = TuningLevel::kPartiallyTuned;
  test_config.num_queries = 80;
  test_config.seed = 29;

  std::cout << "Running training workload (TPC-H)...\n";
  auto train = BuildAndRun(train_config);
  if (!train.ok()) {
    std::cerr << train.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Running test workload (Real-1)...\n";
  auto test = BuildAndRun(test_config);
  if (!test.ok()) {
    std::cerr << test.status().ToString() << "\n";
    return 1;
  }
  std::cout << train->size() << " training pipelines, " << test->size()
            << " ad-hoc test pipelines\n\n";

  MartParams params;
  params.num_trees = 80;
  const SelectorStack stack = SelectorStack::Train(*train, PoolSix(), params);
  const EstimatorSelector& selector = stack.dynamic_selector;

  // Round-trip a selector stack through the binary snapshot format to
  // show the persistence path a deployment would use: the compiled
  // scoring tables are stored, and the decoded stack chooses exactly as
  // the trained one.
  const std::string blob = EncodeSelectorStack(stack);
  auto restored = DecodeSelectorStack(blob);
  bool same = restored.ok();
  for (size_t i = 0; same && i < test->size(); ++i) {
    same = (*restored)->dynamic_selector.SelectForRecord((*test)[i]) ==
           selector.SelectForRecord((*test)[i]);
  }
  std::cout << "Selector stack snapshot: " << blob.size() << " bytes, "
            << (same ? "round-trip OK" : "round-trip FAILED") << "\n\n";

  // Evaluate: each single estimator vs. the cross-schema selector.
  std::vector<size_t> choices;
  for (const auto& r : *test) choices.push_back(selector.SelectForRecord(r));

  TablePrinter table({"Policy", "avg L1", "% optimal", ">5x tail"});
  const std::vector<size_t> pool = PoolSix();
  const char* names[] = {"DNE", "TGN", "LUO", "BATCHDNE", "DNESEEK",
                         "TGNINT"};
  for (size_t i = 0; i < pool.size(); ++i) {
    const auto m = EvaluateChoices(*test, FixedChoice(*test, pool[i]), pool);
    table.AddRow({names[i], TablePrinter::Fmt(m.avg_l1, 4),
                  TablePrinter::Pct(m.pct_optimal),
                  TablePrinter::Pct(m.frac_ratio_gt5)});
  }
  const auto sel = EvaluateChoices(*test, choices, pool);
  table.AddRow({"Est. Selection (trained on TPC-H)",
                TablePrinter::Fmt(sel.avg_l1, 4),
                TablePrinter::Pct(sel.pct_optimal),
                TablePrinter::Pct(sel.frac_ratio_gt5)});
  const auto oracle = EvaluateChoices(*test, OracleChoice(*test), pool);
  table.AddRow({"Oracle selection", TablePrinter::Fmt(oracle.avg_l1, 4),
                TablePrinter::Pct(oracle.pct_optimal), "0.0%"});
  table.Print();
  std::cout << "\nThe selector has never seen the Real-1 schema, yet its\n"
               "average error should approach the oracle floor — the\n"
               "paper's generalization claim.\n";
  return 0;
}
