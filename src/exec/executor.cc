#include "exec/executor.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/operators.h"
#include "exec/plan_resolver.h"

namespace rpe {

namespace {

/// Fill each pipeline's activity window from the observation stream: an
/// observation belongs to a pipeline if any of the pipeline's node counters
/// (K, R, W) advanced since the previous observation.
void ComputePipelineWindows(const ObservationStore& obs,
                            std::vector<Pipeline>* pipelines) {
  for (auto& p : *pipelines) {
    p.first_obs = -1;
    p.last_obs = -1;
    auto activity = [&](size_t oi) {
      const Observation o = obs[oi];
      double total = 0.0;
      for (int nid : p.nodes) {
        const size_t i = static_cast<size_t>(nid);
        total += o.k[i] + o.bytes_read[i] + o.bytes_written[i];
      }
      return total;
    };
    double prev = 0.0;
    for (size_t oi = 0; oi < obs.size(); ++oi) {
      const double cur = activity(oi);
      if (cur > prev) {
        if (p.first_obs < 0) p.first_obs = static_cast<int>(oi);
        p.last_obs = static_cast<int>(oi);
      }
      prev = cur;
    }
    if (p.first_obs >= 0) {
      // The window starts just before the first observed activity.
      p.start_time = p.first_obs > 0
                         ? obs[static_cast<size_t>(p.first_obs - 1)].vtime
                         : 0.0;
      p.end_time = obs[static_cast<size_t>(p.last_obs)].vtime;
    }
  }
}

}  // namespace

Result<QueryRunResult> ExecutePlan(const PhysicalPlan& plan,
                                   const Catalog& catalog,
                                   const ExecOptions& options) {
  ExecContext ctx(&plan, &catalog, options);
  auto root_op = Operator::Create(plan.root(), &ctx);

  root_op->Open();
  Row row;
  uint64_t rows_out = 0;
  while (root_op->Next(&row)) ++rows_out;
  root_op->Close();
  ctx.SampleNow();  // final observation at query end

  QueryRunResult result;
  result.plan = &plan;
  result.rows_out = rows_out;
  result.total_time = ctx.vtime();
  const auto& final_counters = ctx.all_counters();
  result.true_n.reserve(final_counters.size());
  for (const auto& c : final_counters) {
    result.true_n.push_back(c.k);
    result.final_bytes_read.push_back(c.bytes_read);
    result.final_bytes_written.push_back(c.bytes_written);
  }
  result.observations = ctx.TakeObservations();
  result.pipelines = DecomposePipelines(plan);
  ComputePipelineWindows(result.observations, &result.pipelines);
  if (options.on_run_complete) options.on_run_complete(result);
  return result;
}

Result<std::unique_ptr<PhysicalPlan>> FinalizePlan(
    std::unique_ptr<PlanNode> root, const Catalog& catalog) {
  RPE_RETURN_NOT_OK(ResolvePlanSchemas(root.get(), catalog));
  return std::make_unique<PhysicalPlan>(std::move(root));
}

}  // namespace rpe
