// One tenant's detection state: a home.
//
// A TenantSession bundles everything that is per-home at runtime — the
// active ModelSnapshot, the EventMonitor (phantom state machine +
// Algorithm 2 window) built over it, and the alarm post-filter. A
// DetectionService tenant's directory entry owns its session, and only
// the owning shard's worker thread ever touches it, so the session body
// needs no locking and has no cross-thread entry point. A hot swap
// reaches the worker as a control in the shard FIFO; the worker calls
// adopt() between two events, transplanting the monitor's runtime state
// (MonitorState) onto the new graph so no event and no tracked anomaly
// context is lost across the swap.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "causaliot/detect/alarm_sink.hpp"
#include "causaliot/detect/monitor.hpp"
#include "causaliot/detect/root_cause.hpp"
#include "causaliot/serve/model_snapshot.hpp"

namespace causaliot::serve {

struct SessionConfig {
  /// Algorithm 2 anomaly-list length k_max per session.
  std::size_t k_max = 1;
  /// Route reports through a per-session AlarmSink (signature dedup). Off
  /// by default: the raw stream then matches the batch monitor exactly.
  bool deduplicate_alarms = false;
  /// Severity grading (always applied) and dedup parameters.
  detect::SinkConfig sink;
  /// Root-cause walk parameters (attribute() — alarm path only).
  detect::RootCauseConfig root_cause;
};

class TenantSession {
 public:
  TenantSession(std::string name, std::shared_ptr<const ModelSnapshot> model,
                SessionConfig config, std::vector<std::uint8_t> initial_state);

  const std::string& name() const { return name_; }
  std::size_t device_count() const { return device_count_; }

  // --- shard-worker-only interface below ---

  /// Switches to `next` between two events: the monitor's runtime state
  /// moves onto the new graph, so detection continues as if uninterrupted.
  /// `next` must be non-null with this session's device count.
  void adopt(std::shared_ptr<const ModelSnapshot> next);

  /// Processes one event under the active model.
  std::optional<detect::AnomalyReport> process(
      const preprocess::BinaryEvent& event);

  /// Flushes a pending anomaly window at end of stream (drain path).
  std::optional<detect::AnomalyReport> finish();

  /// Grades (and, if configured, deduplicates) a report for delivery.
  /// Returns nullopt when the alarm was suppressed.
  std::optional<detect::SunkAlarm> filter(detect::AnomalyReport report);

  /// Ranked root-cause attribution of a report under the *active* model
  /// — the snapshot that scored it, so the ranking is bit-identical
  /// across hot swaps and tenant churn. Alarm path only; the no-alarm
  /// hot path never calls this.
  detect::RootCauseAttribution attribute(
      const detect::AnomalyReport& report) const {
    return detect::attribute_root_cause(report, &active_->graph,
                                        config_.root_cause);
  }

  /// The snapshot the monitor currently runs on.
  const ModelSnapshot& active_model() const { return *active_; }

  std::size_t events_processed() const {
    return monitor_->events_processed();
  }
  /// Anomaly score of the most recently processed event (model-health
  /// telemetry input). Shard-worker-only, like process().
  double last_score() const { return monitor_->last_score(); }
  std::uint64_t swaps_adopted() const { return swaps_adopted_; }

 private:
  detect::MonitorConfig monitor_config(const ModelSnapshot& model) const;

  std::string name_;
  SessionConfig config_;
  std::size_t device_count_ = 0;
  std::shared_ptr<const ModelSnapshot> active_;
  /// optional<> because EventMonitor holds a reference to the active
  /// graph and must be re-emplaced, not assigned, on adoption.
  std::optional<detect::EventMonitor> monitor_;
  detect::AlarmSink sink_;
  std::uint64_t swaps_adopted_ = 0;
};

}  // namespace causaliot::serve
