// Pipeline / segment decomposition (paper §3.2, following [6] and [13]):
// maximal subtrees of concurrently executing nodes, split at fully blocking
// operators (Sort, HashAggregate) and at the build side of hash joins.
// The sources feeding a pipeline — leaf scans outside nested-loop inner
// subtrees, plus blocking operators emitting into it — are its driver nodes
// ("dominant inputs").
#pragma once

#include <string>
#include <vector>

#include "exec/plan.h"

namespace rpe {

/// \brief One pipeline: a set of plan-node ids executing concurrently.
struct Pipeline {
  int id = 0;
  std::vector<int> nodes;         ///< all member node ids
  std::vector<int> driver_nodes;  ///< DNodes(P) — see Eq. 4
  int sink = -1;                  ///< topmost node id of the pipeline
  /// Extended driver sets of Eq. 6 (BATCHDNE: plus BatchSort nodes) and
  /// Eq. 7 (DNESEEK: plus IndexSeek nodes): driver_nodes, then the member
  /// nodes of that operator type that are not drivers, in `nodes` order.
  /// Filled once by DecomposePipelines, so estimates never rebuild them.
  std::vector<int> batch_sort_drivers;
  std::vector<int> index_seek_drivers;

  /// Filled post-execution from the observation stream: the half-open range
  /// of observation indices during which the pipeline was active, and the
  /// virtual-time window.
  int first_obs = -1;
  int last_obs = -1;
  double start_time = 0.0;
  double end_time = 0.0;

  bool ContainsNode(int node_id) const;
  bool IsDriver(int node_id) const;
};

/// Decompose a plan into pipelines. Pipelines are returned in discovery
/// (preorder) order; the pipeline containing the plan root is first. Node
/// and driver lists are sorted and the extended driver sets filled.
std::vector<Pipeline> DecomposePipelines(const PhysicalPlan& plan);

/// Debug rendering: "P0{nodes=[...] drivers=[...]}".
std::string PipelinesToString(const std::vector<Pipeline>& pipelines);

}  // namespace rpe
