#include "causaliot/graph/analysis.hpp"

#include <algorithm>
#include <set>

#include "causaliot/util/strings.hpp"

namespace causaliot::graph {

GraphSummary summarize(const InteractionGraph& graph) {
  GraphSummary summary;
  summary.device_count = graph.device_count();
  summary.edge_count = graph.edge_count();

  std::set<std::pair<telemetry::DeviceId, telemetry::DeviceId>> pairs;
  std::size_t degree_total = 0;
  for (telemetry::DeviceId child = 0; child < graph.device_count(); ++child) {
    const auto& causes = graph.causes(child);
    degree_total += causes.size();
    summary.max_in_degree = std::max(summary.max_in_degree, causes.size());
    if (causes.empty()) ++summary.orphan_count;
    for (const LaggedNode& cause : causes) {
      pairs.insert({cause.device, child});
    }
    summary.cpt_assignment_count += graph.cpt(child).assignment_count();
  }
  const MemoryFootprint footprint = memory_footprint(graph);
  summary.skeleton_bytes = footprint.skeleton_bytes;
  summary.cpt_bytes = footprint.base_cpt_bytes + footprint.delta_cpt_bytes;
  summary.interaction_count = pairs.size();
  summary.self_loop_count = static_cast<std::size_t>(
      std::count_if(pairs.begin(), pairs.end(),
                    [](const auto& pair) { return pair.first == pair.second; }));
  summary.mean_in_degree =
      graph.device_count() == 0
          ? 0.0
          : static_cast<double>(degree_total) /
                static_cast<double>(graph.device_count());
  return summary;
}

GraphDiff diff(const InteractionGraph& before, const InteractionGraph& after) {
  CAUSALIOT_CHECK_MSG(before.device_count() == after.device_count(),
                      "diff requires identical device sets");
  const auto key = [](const Edge& edge) {
    return std::tuple(edge.cause.device, edge.cause.lag, edge.child);
  };
  const auto edge_less = [&](const Edge& a, const Edge& b) {
    return key(a) < key(b);
  };
  std::vector<Edge> old_edges = before.edges();
  std::vector<Edge> new_edges = after.edges();
  std::sort(old_edges.begin(), old_edges.end(), edge_less);
  std::sort(new_edges.begin(), new_edges.end(), edge_less);

  GraphDiff result;
  std::set_difference(new_edges.begin(), new_edges.end(), old_edges.begin(),
                      old_edges.end(), std::back_inserter(result.added),
                      edge_less);
  std::set_difference(old_edges.begin(), old_edges.end(), new_edges.begin(),
                      new_edges.end(), std::back_inserter(result.removed),
                      edge_less);
  std::vector<Edge> shared;
  std::set_intersection(old_edges.begin(), old_edges.end(),
                        new_edges.begin(), new_edges.end(),
                        std::back_inserter(shared), edge_less);
  const std::size_t union_size =
      shared.size() + result.added.size() + result.removed.size();
  result.edge_jaccard =
      union_size == 0 ? 1.0
                      : static_cast<double>(shared.size()) /
                            static_cast<double>(union_size);
  return result;
}

MemoryFootprint memory_footprint(const InteractionGraph& graph) {
  MemoryFootprint footprint;
  footprint.skeleton_bytes = graph.skeleton()->approx_bytes();
  for (const Cpt& cpt : *graph.base()) {
    footprint.base_cpt_bytes += cpt.approx_bytes();
  }
  // The delta's fixed cost is its slot vector (one pointer per device);
  // each personalized child adds its full table copy.
  footprint.delta_cpt_bytes =
      graph.device_count() * sizeof(std::unique_ptr<Cpt>);
  for (telemetry::DeviceId child = 0; child < graph.device_count(); ++child) {
    if (const Cpt* overridden = graph.delta_cpt(child)) {
      footprint.delta_cpt_bytes += overridden->approx_bytes();
    }
  }
  return footprint;
}

std::string describe_diff(const GraphDiff& diff) {
  if (diff.identical()) return "no structural drift";
  return util::format("drift: +%zu edges, -%zu edges, jaccard %.2f",
                      diff.added.size(), diff.removed.size(),
                      diff.edge_jaccard);
}

}  // namespace causaliot::graph
