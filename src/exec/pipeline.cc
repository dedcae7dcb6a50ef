#include "exec/pipeline.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace rpe {

bool Pipeline::ContainsNode(int node_id) const {
  return std::find(nodes.begin(), nodes.end(), node_id) != nodes.end();
}

bool Pipeline::IsDriver(int node_id) const {
  return std::find(driver_nodes.begin(), driver_nodes.end(), node_id) !=
         driver_nodes.end();
}

namespace {

void Assign(const PlanNode* node, size_t pipeline, bool nlj_inner,
            std::vector<Pipeline>* out) {
  (*out)[pipeline].nodes.push_back(node->id);
  switch (node->op) {
    case OpType::kSort:
    case OpType::kHashAggregate: {
      // The blocking operator's emission phase belongs to the current
      // pipeline, where it acts as a tuple source (driver) with exactly
      // known output size. Its input subtree forms separate pipeline(s).
      if (!nlj_inner) (*out)[pipeline].driver_nodes.push_back(node->id);
      Pipeline child;
      child.id = static_cast<int>(out->size());
      child.sink = node->child(0)->id;
      out->push_back(child);
      Assign(node->child(0), out->size() - 1, false, out);
      break;
    }
    case OpType::kHashJoin: {
      // Build side (child 0) is a separate pipeline; probe side streams
      // through the join within the current pipeline.
      Pipeline build;
      build.id = static_cast<int>(out->size());
      build.sink = node->child(0)->id;
      out->push_back(build);
      const size_t build_idx = out->size() - 1;
      Assign(node->child(0), build_idx, false, out);
      Assign(node->child(1), pipeline, nlj_inner, out);
      break;
    }
    case OpType::kNestedLoopJoin: {
      Assign(node->child(0), pipeline, nlj_inner, out);
      // Inner subtree executes within this pipeline but its leaves are not
      // driver nodes (paper §3.2: "excluding the inner subtree of nested
      // loop operators").
      Assign(node->child(1), pipeline, true, out);
      break;
    }
    case OpType::kMergeJoin: {
      Assign(node->child(0), pipeline, nlj_inner, out);
      Assign(node->child(1), pipeline, nlj_inner, out);
      break;
    }
    case OpType::kTableScan:
    case OpType::kIndexScan:
    case OpType::kIndexSeek: {
      if (!nlj_inner && node->op != OpType::kIndexSeek) {
        (*out)[pipeline].driver_nodes.push_back(node->id);
      }
      break;
    }
    case OpType::kFilter:
    case OpType::kBatchSort:
    case OpType::kStreamAggregate:
    case OpType::kTop: {
      Assign(node->child(0), pipeline, nlj_inner, out);
      break;
    }
  }
}

}  // namespace

std::vector<Pipeline> DecomposePipelines(const PhysicalPlan& plan) {
  std::vector<Pipeline> out;
  Pipeline root;
  root.id = 0;
  root.sink = plan.root()->id;
  out.push_back(root);
  Assign(plan.root(), 0, false, &out);
  for (auto& p : out) {
    std::sort(p.nodes.begin(), p.nodes.end());
    std::sort(p.driver_nodes.begin(), p.driver_nodes.end());
    RPE_CHECK(!p.nodes.empty());
    const auto drivers_plus = [&](OpType extra) {
      std::vector<int> nodes = p.driver_nodes;
      for (int id : p.nodes) {
        if (plan.node(id)->op == extra && !p.IsDriver(id)) {
          nodes.push_back(id);
        }
      }
      return nodes;
    };
    p.batch_sort_drivers = drivers_plus(OpType::kBatchSort);
    p.index_seek_drivers = drivers_plus(OpType::kIndexSeek);
  }
  return out;
}

std::string PipelinesToString(const std::vector<Pipeline>& pipelines) {
  std::ostringstream out;
  for (const auto& p : pipelines) {
    out << "P" << p.id << "{nodes=[";
    for (size_t i = 0; i < p.nodes.size(); ++i) {
      if (i) out << ",";
      out << p.nodes[i];
    }
    out << "] drivers=[";
    for (size_t i = 0; i < p.driver_nodes.size(); ++i) {
      if (i) out << ",";
      out << p.driver_nodes[i];
    }
    out << "] sink=" << p.sink << "}\n";
  }
  return out.str();
}

}  // namespace rpe
