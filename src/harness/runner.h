// Experiment runner: plans and executes whole workloads, turning every
// qualifying pipeline execution into a featurized, error-labeled
// PipelineRecord (the unit of training/evaluation throughout §6).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness/metrics.h"
#include "optimizer/planner.h"
#include "selection/record.h"
#include "workload/workload.h"

namespace rpe {

/// \brief One planned + executed query with its plan kept alive.
struct OwnedRun {
  std::unique_ptr<PhysicalPlan> plan;
  QueryRunResult result;
};

/// \brief Runner knobs.
struct RunOptions {
  ExecOptions exec;
  PlannerOptions planner;
  /// Pipelines with fewer observations than this are not recorded.
  size_t min_observations = 5;
  /// Print one progress line per N queries (0 = silent).
  size_t progress_every = 0;
  /// Record emission hook: invoked for every record a workload run
  /// produces, before it is appended to the returned batch — wire it to
  /// RecordIngestQueue::Push to stream training data out of a running
  /// workload (the online-learning tap). Called on the calling thread, in
  /// query order, once the workload's queries have executed; must not
  /// throw. (exec.on_run_complete, by contrast, runs on pool workers,
  /// possibly concurrently, when reached through a workload run.)
  std::function<void(const PipelineRecord&)> on_record;
};

/// \brief Everything one workload run produced.
struct WorkloadRun {
  /// Records of the successful queries, in query then pipeline order.
  std::vector<PipelineRecord> records;
  /// The successful runs in query order; empty unless kept.
  std::vector<OwnedRun> runs;
  /// Queries that failed to plan or to execute.
  size_t failed = 0;
  double plan_seconds = 0.0;
  double execute_seconds = 0.0;
};

/// Plan and execute a single query of a workload.
Result<OwnedRun> RunQuery(const Workload& workload, const QuerySpec& spec,
                          const RunOptions& options = {});

/// The one loop that runs a whole workload. Plans every query serially
/// with one CardinalityEstimator (statistics are per database, not per
/// query), executes the plans in parallel on ThreadPool::Global(), then
/// merges in query order on the caller: records, on_record, progress
/// lines and the failure count. Execution runs on a virtual clock, so
/// the result is identical at every pool size. Runs are kept only when
/// `keep_runs` is set. Applies no failure threshold.
WorkloadRun PlanAndExecuteWorkload(const Workload& workload,
                                   const RunOptions& options,
                                   const std::string& tag, bool keep_runs);

/// Run the full workload, labeling records with the workload name and
/// `tag`. Fails when more than a quarter of the queries fail.
Result<std::vector<PipelineRecord>> RunWorkload(
    const Workload& workload, const RunOptions& options = {},
    const std::string& tag = "");

/// Build the workload from `config` and run it (convenience).
Result<std::vector<PipelineRecord>> BuildAndRun(
    const WorkloadConfig& config, const RunOptions& options = {},
    const std::string& tag = "");

/// Disk-cached variant: loads the record batch `<cache_dir>/<name>.v3.rpsn`
/// when it decodes, otherwise builds + runs + saves it. cache_dir defaults
/// to $RPE_CACHE_DIR or "rpe_record_cache" under the current directory.
Result<std::vector<PipelineRecord>> CachedRecords(
    const std::string& name, const WorkloadConfig& config,
    const RunOptions& options = {}, const std::string& tag = "");

/// The cache directory currently in effect (created on demand).
std::string RecordCacheDir();

}  // namespace rpe
