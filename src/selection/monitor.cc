#include "selection/monitor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "selection/features.h"

namespace rpe {

ProgressMonitor::ProgressMonitor(const EstimatorSelector* static_selector,
                                 const EstimatorSelector* dynamic_selector)
    : static_selector_(static_selector), dynamic_selector_(dynamic_selector) {
  RPE_CHECK(static_selector_ != nullptr);
  RPE_CHECK(dynamic_selector_ != nullptr);
  RPE_CHECK(!static_selector_->uses_dynamic_features());
  RPE_CHECK(dynamic_selector_->uses_dynamic_features());
}

std::vector<ProgressMonitor::PipelineDecision> ProgressMonitor::DecideForRun(
    const QueryRunResult& run) const {
  const QueryRunResult* runs[] = {&run};
  return std::move(DecideForRuns(runs).front());
}

std::vector<std::vector<ProgressMonitor::PipelineDecision>>
ProgressMonitor::DecideForRuns(
    std::span<const QueryRunResult* const> runs) const {
  std::vector<std::vector<PipelineDecision>> all(runs.size());
  // Gather pass: the decision skeletons plus one feature row per started
  // pipeline. The static choice is available before the pipeline starts
  // and reads only the static prefix; the row is completed with the
  // dynamic block when the pipeline reaches the revision marker (t{20}).
  struct Slot {
    size_t run;
    size_t pipe;
  };
  std::vector<std::vector<double>> rows;
  std::vector<Slot> slots;
  std::vector<size_t> revised_rows;  ///< indices into rows
  for (size_t r = 0; r < runs.size(); ++r) {
    const QueryRunResult& run = *runs[r];
    all[r].reserve(run.pipelines.size());
    for (const Pipeline& pipeline : run.pipelines) {
      PipelineDecision d;
      d.pipeline_id = pipeline.id;
      if (pipeline.first_obs >= 0) {
        PipelineView view{&run, &pipeline};
        slots.push_back({r, all[r].size()});
        rows.push_back(ExtractStaticFeatures(view));
        const MarkerTable markers = ResolveMarkers(view);
        d.revision_obs = markers.revision();
        if (d.revision_obs >= 0) {
          revised_rows.push_back(rows.size() - 1);
          AppendDynamicFeatures(view, markers, &rows.back());
        }
      }
      all[r].push_back(d);
    }
  }
  // Scatter pass: two batched scoring calls, choices back to their slots.
  // The static selector reads only each row's static prefix.
  std::vector<const std::vector<double>*> batch(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) batch[i] = &rows[i];
  std::vector<size_t> choices(batch.size());
  static_selector_->SelectBatch(batch, choices);
  for (size_t i = 0; i < slots.size(); ++i) {
    all[slots[i].run][slots[i].pipe].initial_choice = choices[i];
  }
  batch.resize(revised_rows.size());
  for (size_t i = 0; i < revised_rows.size(); ++i) {
    batch[i] = &rows[revised_rows[i]];
  }
  choices.resize(batch.size());
  dynamic_selector_->SelectBatch(batch, choices);
  for (size_t i = 0; i < revised_rows.size(); ++i) {
    const Slot& slot = slots[revised_rows[i]];
    all[slot.run][slot.pipe].revised_choice = choices[i];
  }
  return all;
}

ProgressMonitor::Stepper::Stepper(const QueryRunResult& run,
                                  std::span<const PipelineDecision> decisions) {
  Reset(run, decisions);
}

void ProgressMonitor::Stepper::Reset(
    const QueryRunResult& run, std::span<const PipelineDecision> decisions) {
  RPE_CHECK_EQ(decisions.size(), run.pipelines.size());
  run_ = &run;
  steps_.resize(run.pipelines.size());
  for (size_t p = 0; p < steps_.size(); ++p) {
    const Pipeline& pipeline = run.pipelines[p];
    const PipelineDecision& d = decisions[p];
    RPE_CHECK_EQ(d.pipeline_id, pipeline.id);
    Step& step = steps_[p];
    step.view = PipelineView{&run, &pipeline};
    step.first_obs = pipeline.first_obs;
    step.last_obs = pipeline.last_obs;
    step.before = &GetEstimator(static_cast<EstimatorKind>(d.initial_choice));
    step.after = step.before;
    if (d.revised_choice.has_value()) {
      step.after = &GetEstimator(static_cast<EstimatorKind>(*d.revised_choice));
    }
    step.revision_obs = d.revision_obs;
  }
}

double ProgressMonitor::Stepper::ProgressAt(size_t oi) {
  const Observation& obs = run_->observations[oi];
  const int o = static_cast<int>(oi);
  double total_e = 0.0;
  for (Step& step : steps_) {
    double e = 0.0;
    for (int id : step.view.pipeline->nodes) {
      e += obs.e[static_cast<size_t>(id)];
    }
    step.weight = e;
    total_e += e;
  }
  if (total_e <= 0.0) return 0.0;
  double progress = 0.0;
  for (const Step& step : steps_) {
    double value;
    if (step.first_obs < 0 || o < step.first_obs) {
      value = 0.0;
    } else if (o > step.last_obs) {
      value = 1.0;
    } else {
      const ProgressEstimator* estimator =
          o >= step.revision_obs ? step.after : step.before;
      value = estimator->Estimate(step.view, oi);
    }
    progress += value * (step.weight / total_e);
  }
  return std::clamp(progress, 0.0, 1.0);
}

double ProgressMonitor::QueryProgressAt(
    const QueryRunResult& run,
    const std::vector<PipelineDecision>& decisions, size_t oi) const {
  thread_local Stepper stepper;
  stepper.Reset(run, decisions);
  return stepper.ProgressAt(oi);
}

std::vector<double> ProgressMonitor::ReplayQueryProgress(
    const QueryRunResult& run) const {
  Stepper stepper(run, DecideForRun(run));
  std::vector<double> series;
  series.reserve(run.observations.size());
  for (size_t oi = 0; oi < run.observations.size(); ++oi) {
    series.push_back(stepper.ProgressAt(oi));
  }
  return series;
}

double ProgressMonitor::ReplayL1Error(const QueryRunResult& run) const {
  if (run.observations.empty() || run.total_time <= 0.0) return 0.0;
  const auto series = ReplayQueryProgress(run);
  double sum = 0.0;
  for (size_t oi = 0; oi < series.size(); ++oi) {
    const double truth = run.observations[oi].vtime / run.total_time;
    sum += std::abs(series[oi] - std::clamp(truth, 0.0, 1.0));
  }
  return sum / static_cast<double>(series.size());
}

}  // namespace rpe
