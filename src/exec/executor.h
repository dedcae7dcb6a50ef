// Runs a physical plan to completion over a catalog, producing the full
// observation stream (counter snapshots on the virtual clock) plus the
// post-hoc ground truth (true N_i, pipeline activity windows) that the
// progress-estimation layer evaluates against.
#pragma once

#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/pipeline.h"
#include "exec/plan.h"
#include "storage/catalog.h"

namespace rpe {

/// \brief Everything recorded about one query execution.
struct QueryRunResult {
  const PhysicalPlan* plan = nullptr;
  ObservationStore observations;
  /// Pipelines with their observation/virtual-time activity windows filled.
  std::vector<Pipeline> pipelines;
  /// True total GetNext calls per node (N_i of §3.1), i.e. final K_i.
  std::vector<double> true_n;
  std::vector<double> final_bytes_read;
  std::vector<double> final_bytes_written;
  double total_time = 0.0;
  uint64_t rows_out = 0;
};

/// Execute a schema-resolved plan against `catalog`. The plan's est_rows
/// annotations seed the E_i estimates.
Result<QueryRunResult> ExecutePlan(const PhysicalPlan& plan,
                                   const Catalog& catalog,
                                   const ExecOptions& options = {});

/// Convenience for tests/examples: resolve schemas on a hand-built plan tree
/// and finalize it into a PhysicalPlan.
Result<std::unique_ptr<PhysicalPlan>> FinalizePlan(
    std::unique_ptr<PlanNode> root, const Catalog& catalog);

}  // namespace rpe
