#include "causaliot/preprocess/discretize.hpp"

#include <algorithm>

#include "causaliot/stats/descriptive.hpp"
#include "causaliot/stats/jenks.hpp"
#include "causaliot/util/check.hpp"

namespace causaliot::preprocess {

DiscretizationModel DiscretizationModel::fit(const telemetry::EventLog& log) {
  const std::size_t n = log.catalog().size();
  DiscretizationModel model;
  model.models_.resize(n);

  // Streaming statistics per device; only an ambient device's inliers
  // are ever held as a list, one device at a time.
  std::vector<stats::RunningStats> running(n);
  for (const telemetry::DeviceEvent& event : log.events()) {
    running[event.device].add(event.value);
  }

  for (telemetry::DeviceId id = 0; id < n; ++id) {
    DeviceModel& dm = model.models_[id];
    dm.value_type = log.catalog().info(id).value_type;
    dm.training_mean = running[id].mean();
    dm.training_stddev = running[id].stddev();
    dm.training_count = running[id].count();

    if (dm.value_type == telemetry::ValueType::kAmbientNumeric &&
        running[id].count() > 0) {
      // Sanitation precedes type unification (§V-A): extreme glitches must
      // not enter the natural-breaks optimization, or the far-out cluster
      // absorbs one class and the split degenerates.
      std::vector<double> inliers;
      for (const telemetry::DeviceEvent& event : log.events()) {
        if (event.device == id && running[id].within_sigma(event.value, 3.0)) {
          inliers.push_back(event.value);
        }
      }
      if (!inliers.empty()) {
        stats::RunningStats inlier_stats;
        for (double v : inliers) inlier_stats.add(v);
        dm.training_mean = inlier_stats.mean();
        dm.training_stddev = inlier_stats.stddev();
        auto threshold = stats::jenks_binary_threshold(inliers);
        if (threshold.ok()) {
          dm.jenks_threshold = threshold.value();
          // Hysteresis margin from the within-class spread on each side
          // of the cut, capped so the band can never bridge the classes.
          stats::RunningStats low;
          stats::RunningStats high;
          for (double v : inliers) {
            (v <= *dm.jenks_threshold ? low : high).add(v);
          }
          if (low.count() > 1 && high.count() > 1) {
            const double spread = std::max(low.stddev(), high.stddev());
            const double separation = high.mean() - low.mean();
            dm.hysteresis_margin =
                std::min(0.75 * spread, 0.25 * separation);
          }
        }
        // else: constant readings — fall back to the mean cut.
      }
    }
  }
  return model;
}

const DiscretizationModel::DeviceModel& DiscretizationModel::device_model(
    telemetry::DeviceId id) const {
  CAUSALIOT_CHECK(id < models_.size());
  return models_[id];
}

std::uint8_t DiscretizationModel::discretize(telemetry::DeviceId id,
                                             double raw_value) const {
  const DeviceModel& dm = device_model(id);
  switch (dm.value_type) {
    case telemetry::ValueType::kBinary:
      return raw_value > 0.5 ? 1 : 0;
    case telemetry::ValueType::kResponsiveNumeric:
      return raw_value > 0.0 ? 1 : 0;
    case telemetry::ValueType::kAmbientNumeric: {
      const double cut = dm.jenks_threshold.value_or(dm.training_mean);
      return raw_value > cut ? 1 : 0;
    }
  }
  return 0;
}

std::uint8_t DiscretizationModel::discretize(
    telemetry::DeviceId id, double raw_value,
    std::uint8_t previous_state) const {
  const DeviceModel& dm = device_model(id);
  if (dm.value_type != telemetry::ValueType::kAmbientNumeric) {
    return discretize(id, raw_value);
  }
  const double cut = dm.jenks_threshold.value_or(dm.training_mean);
  const double margin = dm.hysteresis_margin;
  if (previous_state == 0) return raw_value > cut + margin ? 1 : 0;
  return raw_value < cut - margin ? 0 : 1;
}

bool DiscretizationModel::is_extreme(telemetry::DeviceId id, double raw_value,
                                     double sigma_k) const {
  const DeviceModel& dm = device_model(id);
  if (dm.value_type != telemetry::ValueType::kAmbientNumeric) return false;
  if (dm.training_count < 2) return false;
  const double lo = dm.training_mean - sigma_k * dm.training_stddev;
  const double hi = dm.training_mean + sigma_k * dm.training_stddev;
  return raw_value < lo || raw_value > hi;
}

}  // namespace causaliot::preprocess
