// DIG analysis utilities: degree statistics (the max-degree k that bounds
// TemporalPC's O(n^k) test count, §V-D) and structural diffing between two
// mined graphs — the ops-facing primitive for detecting behavioural drift
// ("the interaction graph is outdated", the paper's main false-alarm
// source) by periodically re-mining and comparing.
#pragma once

#include <string>
#include <vector>

#include "causaliot/graph/dig.hpp"

namespace causaliot::graph {

struct GraphSummary {
  std::size_t device_count = 0;
  std::size_t edge_count = 0;
  /// Device-level interactions (lagged edges collapsed per (cause, child)).
  std::size_t interaction_count = 0;
  std::size_t self_loop_count = 0;
  /// Max in-degree over children (number of lagged causes) — the k in the
  /// paper's O(n^k) complexity bound.
  std::size_t max_in_degree = 0;
  double mean_in_degree = 0.0;
  /// Devices with no causes at all (purely marginal behaviour).
  std::size_t orphan_count = 0;
  /// Total CPT assignments stored across all devices (model size).
  std::size_t cpt_assignment_count = 0;
  /// Byte accounting (see MemoryFootprint): immutable structure vs.
  /// behaviour tables — the split that fleet-scale template sharing
  /// exploits.
  std::size_t skeleton_bytes = 0;
  std::size_t cpt_bytes = 0;
};

GraphSummary summarize(const InteractionGraph& graph);

/// Estimated resident bytes of one InteractionGraph, split along the
/// sharing boundary. The skeleton and base are reference-held: the graph
/// uniquely owns only its delta, and N tenants of one template pay
/// skeleton + base once.
/// Estimates follow Cpt::approx_bytes / Skeleton::approx_bytes — they
/// are compared against each other (dedup ratios, gauge deltas), never
/// against an allocator's ground truth.
struct MemoryFootprint {
  /// Structure: the Skeleton object and its cause lists.
  std::size_t skeleton_bytes = 0;
  /// The base behaviour tables.
  std::size_t base_cpt_bytes = 0;
  /// Copy-on-write overlay uniquely owned by this graph (slot vector +
  /// personalized tables).
  std::size_t delta_cpt_bytes = 0;

  /// Full model bytes — what one unshared copy of this model costs.
  std::size_t total_bytes() const {
    return skeleton_bytes + base_cpt_bytes + delta_cpt_bytes;
  }
};

MemoryFootprint memory_footprint(const InteractionGraph& graph);

/// Structural difference between two DIGs over the same device set.
struct GraphDiff {
  /// Lagged edges present in `after` but not `before`.
  std::vector<Edge> added;
  /// Lagged edges present in `before` but not `after`.
  std::vector<Edge> removed;
  /// Jaccard similarity of the lagged edge sets (1 = identical).
  double edge_jaccard = 1.0;

  bool identical() const { return added.empty() && removed.empty(); }
};

/// CHECKs if the two graphs disagree on device count.
GraphDiff diff(const InteractionGraph& before, const InteractionGraph& after);

/// One-line rendering of a diff for logs:
/// "drift: +3 edges, -1 edge, jaccard 0.87".
std::string describe_diff(const GraphDiff& diff);

}  // namespace causaliot::graph
