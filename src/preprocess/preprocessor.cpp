#include "causaliot/preprocess/preprocessor.hpp"

#include <algorithm>
#include <cmath>

#include "causaliot/obs/trace.hpp"

namespace causaliot::preprocess {

std::vector<BinaryEvent> Preprocessor::sanitize(
    const telemetry::EventLog& log, const DiscretizationModel& model,
    const std::vector<std::uint8_t>& initial_state,
    std::size_t* dropped_duplicates, std::size_t* dropped_extremes) const {
  CAUSALIOT_CHECK_MSG(initial_state.size() == log.catalog().size(),
                      "initial state size mismatch");
  std::vector<std::uint8_t> current = initial_state;
  // No reserve: on ContextAct traces sanitation keeps about one event in
  // ten, so sizing for the whole log would hold ten times the memory.
  std::vector<BinaryEvent> sanitized;
  std::size_t duplicates = 0;
  std::size_t extremes = 0;

  for (const telemetry::DeviceEvent& event : log.events()) {
    if (config_.filter_extreme_values &&
        model.is_extreme(event.device, event.value, config_.sigma_k)) {
      ++extremes;
      continue;
    }
    const std::uint8_t state =
        model.discretize(event.device, event.value, current[event.device]);
    if (config_.filter_duplicate_states && state == current[event.device]) {
      ++duplicates;
      continue;
    }
    current[event.device] = state;
    sanitized.push_back({event.device, state, event.timestamp});
  }

  if (dropped_duplicates != nullptr) *dropped_duplicates = duplicates;
  if (dropped_extremes != nullptr) *dropped_extremes = extremes;
  return sanitized;
}

std::size_t Preprocessor::select_lag(double mean_inter_event_seconds) const {
  if (mean_inter_event_seconds <= 0.0) return config_.min_lag;
  const double raw =
      std::round(config_.max_feedback_seconds / mean_inter_event_seconds);
  const auto lag = static_cast<std::size_t>(std::max(raw, 1.0));
  return std::clamp(lag, config_.min_lag, config_.max_lag);
}

std::vector<BinaryEvent> Preprocessor::discretize_runtime(
    const telemetry::EventLog& log, const DiscretizationModel& model,
    double from_timestamp) const {
  std::vector<BinaryEvent> out;
  std::vector<std::uint8_t> current(log.catalog().size(), 0);
  for (const telemetry::DeviceEvent& event : log.events()) {
    if (config_.filter_extreme_values &&
        model.is_extreme(event.device, event.value, config_.sigma_k)) {
      continue;
    }
    const std::uint8_t state =
        model.discretize(event.device, event.value, current[event.device]);
    current[event.device] = state;
    if (event.timestamp < from_timestamp) continue;
    out.push_back({event.device, state, event.timestamp});
  }
  return out;
}

PreprocessResult Preprocessor::run(const telemetry::EventLog& log) const {
  const std::size_t n = log.catalog().size();
  DiscretizationModel model = [&] {
    obs::Span span("preprocess.fit", "preprocess");
    return DiscretizationModel::fit(log);
  }();

  std::size_t duplicates = 0;
  std::size_t extremes = 0;
  std::vector<BinaryEvent> sanitized = [&] {
    obs::Span span("preprocess.sanitize", "preprocess");
    return sanitize(log, model, std::vector<std::uint8_t>(n, 0), &duplicates,
                    &extremes);
  }();

  double mean_gap = 0.0;
  if (sanitized.size() >= 2) {
    mean_gap = (sanitized.back().timestamp - sanitized.front().timestamp) /
               static_cast<double>(sanitized.size() - 1);
  }

  StateSeries series = [&] {
    obs::Span span("preprocess.series", "preprocess");
    return build_series(n, sanitized);
  }();
  PreprocessResult result{std::move(model),
                          std::move(sanitized),
                          std::move(series),
                          select_lag(mean_gap),
                          log.size(),
                          duplicates,
                          extremes,
                          mean_gap};
  return result;
}

}  // namespace causaliot::preprocess
