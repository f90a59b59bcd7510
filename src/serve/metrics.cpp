#include "causaliot/serve/metrics.hpp"

#include <cinttypes>
#include <cstdio>

namespace causaliot::serve {

Metrics::Metrics(obs::Registry& registry)
    : events_submitted(&registry.counter(
          "serve_events_submitted_total", {},
          "Events accepted by DetectionService::submit")),
      events_unroutable(&registry.counter(
          "serve_events_unroutable_total", {},
          "submit() calls refused: handle named no live tenant")),
      tenants_added(&registry.counter(
          "serve_tenants_added_total", {},
          "Tenants registered (including on a running service)")),
      tenants_removed(&registry.counter(
          "serve_tenants_removed_total", {},
          "Tenants removed from a running service")),
      alarms_notice(&registry.counter("serve_alarms_total",
                                      {{"severity", "notice"}},
                                      "Alarms delivered, by severity")),
      alarms_warning(&registry.counter("serve_alarms_total",
                                       {{"severity", "warning"}})),
      alarms_critical(&registry.counter("serve_alarms_total",
                                        {{"severity", "critical"}})),
      alarms_collective(&registry.counter(
          "serve_alarms_collective_total", {},
          "Alarms whose report tracked a collective chain")),
      alarms_suppressed(&registry.counter(
          "serve_alarms_suppressed_total", {},
          "Alarms suppressed by the per-session dedup filter")),
      model_swaps_published(&registry.counter(
          "serve_model_swaps_published_total", {},
          "Model snapshots published via swap_model")),
      model_swaps_adopted(&registry.counter(
          "serve_model_swaps_adopted_total", {},
          "Model snapshots adopted by shard workers, each between two "
          "events; equals published once the queues drain")),
      latency(&registry.histogram(
          "serve_event_latency_ns", {},
          "Enqueue-to-processed latency per event, nanoseconds")) {}

std::string ServiceStats::to_json() const {
  char buffer[2048];
  const int written = std::snprintf(
      buffer, sizeof(buffer),
      "{\"shards\": %zu, \"tenants\": %zu, "
      "\"tenants_added\": %" PRIu64 ", \"tenants_removed\": %" PRIu64 ", "
      "\"events\": {\"submitted\": %" PRIu64 ", \"processed\": %" PRIu64
      ", \"unroutable\": %" PRIu64 ", \"orphaned\": %" PRIu64
      ", \"queued_accepted\": %" PRIu64 ", \"dropped_oldest\": %" PRIu64
      ", \"rejected\": %" PRIu64 ", \"rejected_after_close\": %" PRIu64
      ", \"block_waits\": %" PRIu64 "}, "
      "\"alarms\": {\"total\": %" PRIu64 ", \"notice\": %" PRIu64
      ", \"warning\": %" PRIu64 ", \"critical\": %" PRIu64
      ", \"collective\": %" PRIu64 ", \"suppressed\": %" PRIu64 "}, "
      "\"model_swaps\": {\"published\": %" PRIu64 ", \"adopted\": %" PRIu64
      "}, "
      "\"latency_ns\": {\"count\": %" PRIu64 ", \"p50\": %" PRIu64
      ", \"p95\": %" PRIu64 ", \"p99\": %" PRIu64 ", \"max\": %" PRIu64 "}}",
      shard_count, tenant_count, tenants_added, tenants_removed,
      events_submitted, events_processed, events_unroutable, events_orphaned,
      queue_accepted, queue_dropped_oldest, queue_rejected,
      queue_closed_rejects, queue_block_waits, alarms_total, alarms_notice,
      alarms_warning, alarms_critical, alarms_collective, alarms_suppressed,
      model_swaps_published, model_swaps_adopted, latency.count,
      latency.p50, latency.p95, latency.p99, latency.max);
  return std::string(buffer,
                     written > 0 ? static_cast<std::size_t>(written) : 0);
}

}  // namespace causaliot::serve
