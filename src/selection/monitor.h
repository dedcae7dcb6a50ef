// ProgressMonitor: the deployed architecture of paper Figure 3. Holds the
// trained static + dynamic selection models and, for a running query,
// produces the live progress report: per pipeline it selects an estimator
// from static features before execution, revises the choice once the
// dynamic features become available at the 20% driver marker (§4.4), and
// combines pipelines into query-level progress (Eq. 5).
//
// The engine in this repository executes queries synchronously, so the
// monitor exposes a *replay* interface over the recorded observation
// stream: ReplayQueryProgress(oi) returns exactly what a live monitor
// would have reported at observation oi using only information available
// at that time.
//
// Every per-observation report runs one kernel, ProgressMonitor::Stepper:
// a run's decisions compiled once into per-pipeline steps (activity
// window, revision observation, the before/after estimators resolved to
// pointers) plus the Eq. 5 weight scratch, so a step allocates nothing.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "selection/selector.h"

namespace rpe {

/// \brief Live (replayed) progress reporting with online estimator
/// selection.
class ProgressMonitor {
 public:
  /// Both selectors must be trained on the same estimator pool. The static
  /// selector is used before the revision marker (t{20}, the last of
  /// kMarkerPercents); the dynamic one after.
  ProgressMonitor(const EstimatorSelector* static_selector,
                  const EstimatorSelector* dynamic_selector);

  /// Per-pipeline estimator decisions for one run.
  struct PipelineDecision {
    int pipeline_id = 0;
    size_t initial_choice = 0;  ///< SelectableEstimators index (static)
    std::optional<size_t> revised_choice;  ///< set once the marker is hit
    int revision_obs = -1;      ///< observation index of the revision
  };

  /// Decide (and record) the estimator choices for every pipeline of `run`:
  /// DecideForRuns over this one run.
  std::vector<PipelineDecision> DecideForRun(const QueryRunResult& run) const;

  /// Decisions for every pipeline of every run. Each pipeline's features
  /// are extracted once: the static prefix for the initial choice,
  /// completed with the dynamic block for the revision. Every static
  /// choice scores through one EstimatorSelector::SelectBatch call and
  /// every dynamic revision through another, so the SIMD tile kernel
  /// (common/simd.h) sees full batches even when each run has only a few
  /// pipelines; SelectBatch equals per-row Select (same first-on-ties
  /// argmin), so batching never changes a decision. The serving tier's
  /// session-open and replay paths feed this (serving/monitor_service.h).
  std::vector<std::vector<PipelineDecision>> DecideForRuns(
      std::span<const QueryRunResult* const> runs) const;

  /// \brief A run's decisions compiled into a replay plan: the Eq. 5
  /// step kernel every progress report runs. Built once per run (one
  /// allocation, sized to the run's pipelines); ProgressAt then steps
  /// without allocating. `run` must outlive the stepper.
  class Stepper {
   public:
    Stepper() = default;
    /// `decisions` as DecideForRun returns them: one per pipeline, in
    /// pipeline order.
    Stepper(const QueryRunResult& run,
            std::span<const PipelineDecision> decisions);

    /// Recompile for another run in place; storage only grows, so a warm
    /// stepper reset to a run no larger than before allocates nothing.
    void Reset(const QueryRunResult& run,
               std::span<const PipelineDecision> decisions);

    /// Query-level progress at observation oi (estimate-weighted pipeline
    /// combination; completed pipelines report 1, unstarted ones 0).
    double ProgressAt(size_t oi);

   private:
    struct Step {
      PipelineView view;  ///< the pipeline the estimators read
      int first_obs = -1;
      int last_obs = -1;
      /// From this observation on `after` reports; equal to `before` when
      /// the choice is never revised.
      int revision_obs = -1;
      const ProgressEstimator* before = nullptr;
      const ProgressEstimator* after = nullptr;
      double weight = 0.0;  ///< Eq. 5 scratch: ΣE_i at the current step
    };
    const QueryRunResult* run_ = nullptr;
    std::vector<Step> steps_;
  };

  /// Query-level progress at observation oi: Stepper::ProgressAt through
  /// a per-thread stepper recompiled in place, so a warm call allocates
  /// nothing. Replaying a whole run is cheaper through one Stepper.
  double QueryProgressAt(const QueryRunResult& run,
                         const std::vector<PipelineDecision>& decisions,
                         size_t oi) const;

  /// Full replayed progress series (one value per observation).
  std::vector<double> ReplayQueryProgress(const QueryRunResult& run) const;

  /// Average absolute error of the replayed series against true progress
  /// (elapsed virtual time fraction).
  double ReplayL1Error(const QueryRunResult& run) const;

 private:
  const EstimatorSelector* static_selector_;
  const EstimatorSelector* dynamic_selector_;
};

}  // namespace rpe
