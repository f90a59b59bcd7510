#include "causaliot/serve/session.hpp"

#include "causaliot/util/check.hpp"

namespace causaliot::serve {

TenantSession::TenantSession(std::string name,
                             std::shared_ptr<const ModelSnapshot> model,
                             SessionConfig config,
                             std::vector<std::uint8_t> initial_state)
    : name_(std::move(name)),
      config_(config),
      active_(std::move(model)),
      sink_(config.sink) {
  CAUSALIOT_CHECK_MSG(active_ != nullptr, "session needs an initial model");
  device_count_ = active_->graph.device_count();
  CAUSALIOT_CHECK_MSG(initial_state.size() == device_count_,
                      "initial state size mismatch");
  monitor_.emplace(active_->graph, monitor_config(*active_),
                   std::move(initial_state));
}

detect::MonitorConfig TenantSession::monitor_config(
    const ModelSnapshot& model) const {
  detect::MonitorConfig config;
  config.score_threshold = model.score_threshold;
  config.laplace_alpha = model.laplace_alpha;
  config.k_max = config_.k_max;
  return config;
}

void TenantSession::adopt(std::shared_ptr<const ModelSnapshot> next) {
  CAUSALIOT_CHECK_MSG(next != nullptr, "cannot adopt a null model");
  CAUSALIOT_CHECK_MSG(next->graph.device_count() == device_count_,
                      "adopted model device count mismatch");
  detect::MonitorState state = monitor_->export_state();
  active_ = std::move(next);
  monitor_.emplace(active_->graph, monitor_config(*active_),
                   std::move(state));
  ++swaps_adopted_;
}

std::optional<detect::AnomalyReport> TenantSession::process(
    const preprocess::BinaryEvent& event) {
  return monitor_->process(event);
}

std::optional<detect::AnomalyReport> TenantSession::finish() {
  return monitor_->finish();
}

std::optional<detect::SunkAlarm> TenantSession::filter(
    detect::AnomalyReport report) {
  if (config_.deduplicate_alarms) return sink_.offer(std::move(report));
  detect::SunkAlarm out;
  out.severity = sink_.grade(report.contextual().score);
  out.report = std::move(report);
  return out;
}

}  // namespace causaliot::serve
