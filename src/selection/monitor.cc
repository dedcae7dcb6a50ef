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

double ProgressMonitor::PipelineProgress(const QueryRunResult& run,
                                         const PipelineDecision& decision,
                                         size_t oi) const {
  const Pipeline& pipeline =
      run.pipelines[static_cast<size_t>(decision.pipeline_id)];
  if (pipeline.first_obs < 0) return 0.0;
  PipelineView view{&run, &pipeline};
  const bool revised = decision.revised_choice.has_value() &&
                       static_cast<int>(oi) >= decision.revision_obs;
  const size_t choice =
      revised ? *decision.revised_choice : decision.initial_choice;
  return GetEstimator(static_cast<EstimatorKind>(choice)).Estimate(view, oi);
}

double ProgressMonitor::QueryProgressAt(
    const QueryRunResult& run,
    const std::vector<PipelineDecision>& decisions, size_t oi) const {
  RPE_CHECK_EQ(decisions.size(), run.pipelines.size());
  const Observation& obs = run.observations[oi];
  double total_e = 0.0;
  std::vector<double> weights(run.pipelines.size(), 0.0);
  for (size_t p = 0; p < run.pipelines.size(); ++p) {
    double e = 0.0;
    for (int id : run.pipelines[p].nodes) {
      e += obs.e[static_cast<size_t>(id)];
    }
    weights[p] = e;
    total_e += e;
  }
  if (total_e <= 0.0) return 0.0;
  double progress = 0.0;
  for (size_t p = 0; p < run.pipelines.size(); ++p) {
    const Pipeline& pipeline = run.pipelines[p];
    double value;
    if (pipeline.first_obs < 0 ||
        static_cast<int>(oi) < pipeline.first_obs) {
      value = 0.0;
    } else if (static_cast<int>(oi) > pipeline.last_obs) {
      value = 1.0;
    } else {
      value = PipelineProgress(run, decisions[p], oi);
    }
    progress += value * (weights[p] / total_e);
  }
  return std::clamp(progress, 0.0, 1.0);
}

std::vector<double> ProgressMonitor::ReplayQueryProgress(
    const QueryRunResult& run) const {
  const auto decisions = DecideForRun(run);
  std::vector<double> series;
  series.reserve(run.observations.size());
  for (size_t oi = 0; oi < run.observations.size(); ++oi) {
    series.push_back(QueryProgressAt(run, decisions, oi));
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
