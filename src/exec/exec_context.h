// Shared execution state: the virtual clock, the per-node counter array,
// the observation sampler, and the online cardinality-refinement pass
// (paper §3.3, bound-based refinement of [6]).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/counters.h"
#include "exec/plan.h"
#include "storage/catalog.h"

namespace rpe {

struct QueryRunResult;

/// \brief Executor knobs.
struct ExecOptions {
  /// Memory budget for blocking operators; exceeding it triggers the spill
  /// model (extra bytes written/read + extra GetNext calls, §3.1 (1)).
  double memory_limit_bytes = 2.0 * 1024 * 1024;
  /// Desired number of counter observations per query.
  int target_observations = 220;
  /// Hard cap; when reached, the sampler halves its resolution.
  int max_observations = 1200;
  /// Emission hook: invoked with the fully assembled run (observations,
  /// pipelines, ground truth) just before ExecutePlan returns — the tap
  /// the online-learning loop uses to capture training data from a
  /// running system. Called on the executing thread — a pool worker,
  /// possibly concurrently with other queries, when reached through
  /// RunWorkload or PlanAndExecuteWorkload — and must not throw. The
  /// referenced result is only valid for the duration of the call.
  std::function<void(const QueryRunResult&)> on_run_complete;
};

/// \brief Per-query execution state shared by all operators.
class ExecContext {
 public:
  ExecContext(const PhysicalPlan* plan, const Catalog* catalog,
              const ExecOptions& options);

  const Catalog& catalog() const { return *catalog_; }
  const ExecOptions& options() const { return options_; }
  const PhysicalPlan& plan() const { return *plan_; }

  NodeCounters& counters(int id) { return counters_[static_cast<size_t>(id)]; }
  const std::vector<NodeCounters>& all_counters() const { return counters_; }

  double vtime() const { return vtime_; }

  /// Advance the virtual clock; may take a counter observation.
  void Charge(double cost);
  /// Record `bytes` read at node `id` and charge read I/O time.
  void ChargeRead(int id, double bytes);
  /// Record `bytes` written at node `id` and charge write I/O time.
  void ChargeWrite(int id, double bytes);
  /// Account one produced row at node `id`: K_i += 1, R_i += width, CPU cost.
  void OnRowProduced(int id, OpType op, double width);

  /// Correlated parameter passed from a nested-loop join to its inner side.
  void SetCorrelatedKey(int64_t key) { correlated_key_ = key; }
  int64_t correlated_key() const { return correlated_key_; }

  /// Take a final observation (always called at query end).
  void SampleNow();

  /// Move the collected observations out, trimmed to exact size.
  ObservationStore TakeObservations() {
    observations_.ShrinkToFit();
    return std::move(observations_);
  }
  size_t num_observations() const { return observations_.size(); }

 private:
  void MaybeSample();
  /// Bottom-up pass refining LB/UB and clamping E into [LB, UB] (§3.3).
  void RefineBounds();

  const PhysicalPlan* plan_;
  const Catalog* catalog_;
  ExecOptions options_;
  std::vector<NodeCounters> counters_;
  double vtime_ = 0.0;
  double next_sample_ = 0.0;
  double sample_interval_ = 1.0;
  int64_t correlated_key_ = 0;
  ObservationStore observations_;
};

}  // namespace rpe
