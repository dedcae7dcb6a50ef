#include "harness/runner.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "serving/snapshot.h"

namespace rpe {

Result<OwnedRun> RunQuery(const Workload& workload, const QuerySpec& spec,
                          const RunOptions& options) {
  CardinalityEstimator card(workload.catalog.get());
  Planner planner(workload.catalog.get(), &card, options.planner);
  RPE_ASSIGN_OR_RETURN(auto plan, planner.Plan(spec));
  RPE_ASSIGN_OR_RETURN(
      QueryRunResult result,
      ExecutePlan(*plan, *workload.catalog, options.exec));
  OwnedRun run;
  run.plan = std::move(plan);
  run.result = std::move(result);
  run.result.plan = run.plan.get();
  return run;
}

WorkloadRun PlanAndExecuteWorkload(const Workload& workload,
                                   const RunOptions& options,
                                   const std::string& tag, bool keep_runs) {
  using Clock = std::chrono::steady_clock;
  const size_t n = workload.queries.size();
  WorkloadRun out;

  // Plan serially: the estimator's lazy histogram cache is unsynchronised.
  const auto plan_start = Clock::now();
  std::vector<std::unique_ptr<PhysicalPlan>> plans(n);
  {
    CardinalityEstimator card(workload.catalog.get());
    Planner planner(workload.catalog.get(), &card, options.planner);
    for (size_t qi = 0; qi < n; ++qi) {
      auto plan = planner.Plan(workload.queries[qi]);
      if (plan.ok()) plans[qi] = std::move(plan).ValueOrDie();
    }
  }
  const auto exec_start = Clock::now();

  // Execute in parallel; each index writes only its own slot.
  struct Slot {
    bool ok = false;
    std::vector<PipelineRecord> records;
    OwnedRun run;
  };
  std::vector<Slot> slots(n);
  ThreadPool::Global().ParallelFor(n, [&](size_t qi) {
    if (plans[qi] == nullptr) return;
    auto result = ExecutePlan(*plans[qi], *workload.catalog, options.exec);
    if (!result.ok()) return;
    Slot& slot = slots[qi];
    slot.ok = true;
    slot.run.plan = std::move(plans[qi]);
    slot.run.result = std::move(result).ValueOrDie();
    slot.run.result.plan = slot.run.plan.get();
    for (const Pipeline& pipeline : slot.run.result.pipelines) {
      PipelineView view{&slot.run.result, &pipeline};
      PipelineRecord record;
      if (MakeRecord(view, workload.config.name, workload.queries[qi].name,
                     tag, &record, options.min_observations)) {
        slot.records.push_back(std::move(record));
      }
    }
    if (!keep_runs) slot.run = OwnedRun();
  });
#if defined(__GLIBC__)
  // Hand the freed execution memory of the parallel phase back to the OS.
  malloc_trim(0);
#endif
  const auto exec_end = Clock::now();
  out.plan_seconds =
      std::chrono::duration<double>(exec_start - plan_start).count();
  out.execute_seconds =
      std::chrono::duration<double>(exec_end - exec_start).count();

  for (size_t qi = 0; qi < n; ++qi) {
    Slot& slot = slots[qi];
    if (slot.ok) {
      for (PipelineRecord& record : slot.records) {
        if (options.on_record) options.on_record(record);
        out.records.push_back(std::move(record));
      }
      if (keep_runs) out.runs.push_back(std::move(slot.run));
    } else {
      ++out.failed;
    }
    if (options.progress_every > 0 && (qi + 1) % options.progress_every == 0) {
      std::cerr << "[" << workload.config.name << "] " << (qi + 1) << "/"
                << n << " queries, " << out.records.size() << " records\n";
    }
  }
  return out;
}

Result<std::vector<PipelineRecord>> RunWorkload(const Workload& workload,
                                                const RunOptions& options,
                                                const std::string& tag) {
  WorkloadRun run =
      PlanAndExecuteWorkload(workload, options, tag, /*keep_runs=*/false);
  if (run.failed > workload.queries.size() / 4) {
    return Status::Internal("too many query failures in workload " +
                            workload.config.name + ": " +
                            std::to_string(run.failed));
  }
  return std::move(run.records);
}

Result<std::vector<PipelineRecord>> BuildAndRun(const WorkloadConfig& config,
                                                const RunOptions& options,
                                                const std::string& tag) {
  RPE_ASSIGN_OR_RETURN(Workload workload, BuildWorkload(config));
  return RunWorkload(workload, options, tag);
}

std::string RecordCacheDir() {
  const char* env = std::getenv("RPE_CACHE_DIR");
  std::string dir = env != nullptr ? env : "rpe_record_cache";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

Result<std::vector<PipelineRecord>> CachedRecords(const std::string& name,
                                                  const WorkloadConfig& config,
                                                  const RunOptions& options,
                                                  const std::string& tag) {
  // One .rpsn record batch, written by temp file + rename: a run killed
  // mid-write leaves no short file under this name, and a file that fails
  // its frame checks anyway (cut, corrupt, another format version) is
  // recomputed, never loaded short. Older ".v2.csv" caches are not read.
  const std::string path = RecordCacheDir() + "/" + name + ".v3.rpsn";
  auto loaded = LoadRecordBatch(path);
  if (loaded.ok()) return loaded;
  RPE_ASSIGN_OR_RETURN(std::vector<PipelineRecord> records,
                       BuildAndRun(config, options, tag));
  RPE_RETURN_NOT_OK(SaveRecordBatch(records, path));
  return records;
}

}  // namespace rpe
