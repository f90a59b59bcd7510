// Immutable detection models.
//
// A serving session must keep detecting while a retrained model (drift
// adaptation via `update_cpts`, or a full re-mine) is rolled out. The
// unit of rollout is a ModelSnapshot: the DIG plus its calibrated score
// threshold, frozen at publication. DetectionService::swap_model hands
// a snapshot to the tenant's shard worker through the shard FIFO; the
// worker adopts it when it dequeues that control, which is an event
// boundary by construction (see DESIGN.md §3c). The queue's mutex
// orders every write that built the snapshot before the worker's read,
// the snapshot is never mutated after publication, and the shared_ptr
// refcount retires the old model once its last holder drops it.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "causaliot/graph/dig.hpp"

namespace causaliot::serve {

struct ModelSnapshot {
  graph::InteractionGraph graph;
  /// Score threshold c calibrated for this graph (Definition 2).
  double score_threshold = 1.0;
  /// CPT Laplace smoothing used at detection time.
  double laplace_alpha = 0.0;
  /// Publisher-assigned monotonic version, carried on alarms for
  /// observability ("which model raised this?").
  std::uint64_t version = 0;
};

inline std::shared_ptr<const ModelSnapshot> make_snapshot(
    graph::InteractionGraph graph, double score_threshold,
    double laplace_alpha = 0.0, std::uint64_t version = 0) {
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->graph = std::move(graph);
  snapshot->score_threshold = score_threshold;
  snapshot->laplace_alpha = laplace_alpha;
  snapshot->version = version;
  return snapshot;
}

}  // namespace causaliot::serve
