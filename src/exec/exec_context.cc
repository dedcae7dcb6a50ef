#include "exec/exec_context.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/cost_model.h"

namespace rpe {

ExecContext::ExecContext(const PhysicalPlan* plan, const Catalog* catalog,
                         const ExecOptions& options)
    : plan_(plan),
      catalog_(catalog),
      options_(options),
      observations_(plan->num_nodes()) {
  counters_.resize(plan->num_nodes());
  double est_total_time = 0.0;
  for (const PlanNode* n : plan->nodes()) {
    NodeCounters& c = counters_[static_cast<size_t>(n->id)];
    c.e0 = n->est_rows;
    c.e = n->est_rows;
    c.row_width = static_cast<double>(n->output_schema.row_width_bytes());
    c.est_bytes = n->est_rows * c.row_width;
    est_total_time += EstimateNodeTime(n->op, n->est_rows, c.row_width);
  }
  sample_interval_ =
      std::max(1.0, est_total_time /
                        std::max(1, options_.target_observations));
  next_sample_ = sample_interval_;
}

void ExecContext::Charge(double cost) {
  RPE_DCHECK(cost >= 0.0);
  vtime_ += cost;
  MaybeSample();
}

void ExecContext::ChargeRead(int id, double bytes) {
  counters_[static_cast<size_t>(id)].bytes_read += bytes;
  Charge(bytes * kReadCostPerByte);
}

void ExecContext::ChargeWrite(int id, double bytes) {
  counters_[static_cast<size_t>(id)].bytes_written += bytes;
  Charge(bytes * kWriteCostPerByte);
}

void ExecContext::OnRowProduced(int id, OpType op, double width) {
  NodeCounters& c = counters_[static_cast<size_t>(id)];
  c.k += 1.0;
  c.bytes_read += width;
  Charge(CpuCostPerRow(op));
}

void ExecContext::MaybeSample() {
  if (vtime_ < next_sample_) return;
  SampleNow();
  next_sample_ = vtime_ + sample_interval_;
  if (static_cast<int>(observations_.size()) >=
      options_.max_observations) {
    // Halve resolution: keep every other observation, double the interval.
    observations_.KeepEveryOther();
    sample_interval_ *= 2.0;
    next_sample_ = vtime_ + sample_interval_;
  }
}

void ExecContext::SampleNow() {
  RefineBounds();
  const std::span<double> row = observations_.Append(vtime_);
  const size_t n = counters_.size();
  for (size_t i = 0; i < n; ++i) {
    const NodeCounters& c = counters_[i];
    row[i] = c.k;
    row[n + i] = c.e;
    row[2 * n + i] = c.lb;
    row[3 * n + i] = c.ub;
    row[4 * n + i] = c.bytes_read;
    row[5 * n + i] = c.bytes_written;
  }
}

void ExecContext::RefineBounds() {
  // Preorder ids: every descendant has a larger id than its ancestor, so a
  // descending sweep visits children before parents.
  const auto& nodes = plan_->nodes();
  for (size_t idx = nodes.size(); idx-- > 0;) {
    const PlanNode* n = nodes[idx];
    NodeCounters& c = counters_[static_cast<size_t>(n->id)];
    c.lb = c.k;
    auto child_counters = [&](size_t i) -> NodeCounters& {
      return counters_[static_cast<size_t>(n->child(i)->id)];
    };
    auto remaining = [](const NodeCounters& cc) {
      return std::max(0.0, cc.ub - cc.k);
    };
    switch (n->op) {
      case OpType::kTableScan:
      case OpType::kIndexScan:
      case OpType::kIndexSeek: {
        // Non-inner scans: input size known exactly once the operator opened
        // (operators set e = lb = ub = N at open); nothing further to do.
        // Inner side of a nested iteration: total calls depend on the outer
        // cardinality; only the trivial bound K <= N applies (paper §6.3:
        // bounds "offer no meaningful bounds" for nested iteration).
        break;
      }
      case OpType::kFilter: {
        // A filter buffers nothing: output cannot exceed what it already
        // produced plus what the input can still deliver.
        c.ub = std::min(c.ub, c.k + remaining(child_counters(0)));
        break;
      }
      case OpType::kStreamAggregate: {
        // One group may be pending in the accumulator (+1).
        c.ub = std::min(c.ub, c.k + remaining(child_counters(0)) + 1.0);
        break;
      }
      case OpType::kHashAggregate: {
        if (c.input_done) break;  // exact group count published at open end
        // Groups accumulated so far are bounded by rows consumed so far:
        // total output <= input consumed + input still possible.
        const NodeCounters& child = child_counters(0);
        c.ub = std::min(c.ub, c.k + child.k + remaining(child));
        break;
      }
      case OpType::kBatchSort: {
        // Up to batch_size consumed rows may sit unemitted in the buffer.
        c.ub = std::min(c.ub, c.k + remaining(child_counters(0)) +
                                  static_cast<double>(n->batch_size));
        break;
      }
      case OpType::kTop: {
        c.ub = std::min({c.ub, static_cast<double>(n->limit),
                         c.k + remaining(child_counters(0))});
        break;
      }
      case OpType::kSort: {
        if (c.input_done) {
          // Exact: the sort consumed its entire input; N is known.
          break;
        }
        // The whole consumed input is buffered and will be emitted.
        const NodeCounters& child = child_counters(0);
        c.ub = std::min(c.ub, c.k + child.k + remaining(child));
        break;
      }
      case OpType::kNestedLoopJoin: {
        const NodeCounters& outer = child_counters(0);
        const double per_outer = c.max_join_group > 0.0
                                     ? c.max_join_group
                                     : kCardinalityInf;
        const double bound = c.k + (remaining(outer) + 1.0) * per_outer;
        c.ub = std::min({c.ub, kCardinalityInf, bound});
        break;
      }
      case OpType::kHashJoin: {
        const NodeCounters& probe = child_counters(1);
        if (c.input_done) {
          const double per_probe =
              c.max_join_group > 0.0 ? c.max_join_group : 0.0;
          c.ub = std::min(c.ub, c.k + (remaining(probe) + 1.0) * per_probe);
        }
        break;
      }
      case OpType::kMergeJoin: {
        const NodeCounters& l = child_counters(0);
        const NodeCounters& r = child_counters(1);
        const double bound =
            c.k + (remaining(l) + 1.0) * (remaining(r) + 1.0);
        c.ub = std::min({c.ub, kCardinalityInf, bound});
        break;
      }
    }
    c.ub = std::max(c.ub, c.lb);
    // Clamp E into [LB, UB] — the refinement strategy of [6].
    c.e = std::clamp(c.e, c.lb, c.ub);
  }
}

}  // namespace rpe
