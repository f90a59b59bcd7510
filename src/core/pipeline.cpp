#include "causaliot/core/pipeline.hpp"

#include <optional>

#include "causaliot/obs/trace.hpp"
#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/check.hpp"
#include "causaliot/util/thread_pool.hpp"

namespace causaliot::core {

detect::EventMonitor TrainedModel::make_monitor(std::size_t k_max) const {
  return make_monitor(k_max, final_training_state);
}

detect::EventMonitor TrainedModel::make_monitor(
    std::size_t k_max, std::vector<std::uint8_t> initial) const {
  detect::MonitorConfig config;
  config.score_threshold = score_threshold;
  config.k_max = k_max;
  config.laplace_alpha = laplace_alpha;
  return detect::EventMonitor(graph, config, std::move(initial));
}

Pipeline::Pipeline(PipelineConfig config) : config_(config) {}

TrainedModel Pipeline::train(const telemetry::EventLog& log) const {
  preprocess::Preprocessor preprocessor(config_.preprocessor);
  preprocess::PreprocessResult pre = [&] {
    obs::Span span("train.preprocess", "train");
    return preprocessor.run(log);
  }();
  const std::size_t lag =
      config_.max_lag > 0 ? config_.max_lag : pre.lag;
  // Mining reads only the series: free the sanitized event list first.
  pre.sanitized_events = std::vector<preprocess::BinaryEvent>();
  TrainedModel model = train_on_series(pre.series, lag);
  model.discretization = std::move(pre.discretization);
  return model;
}

TrainedModel Pipeline::train_on_series(const preprocess::StateSeries& series,
                                       std::size_t lag) const {
  CAUSALIOT_CHECK_MSG(lag >= 1, "lag must be >= 1");
  CAUSALIOT_CHECK_MSG(series.length() > lag,
                      "training series shorter than the lag");

  if (!config_.simd_backend.empty()) {
    const auto backend = stats::simd::parse_backend(config_.simd_backend);
    CAUSALIOT_CHECK_MSG(backend.has_value(),
                        "unknown PipelineConfig::simd_backend name");
    CAUSALIOT_CHECK_MSG(stats::simd::force_backend(*backend),
                        "PipelineConfig::simd_backend not supported on "
                        "this host/build");
  }

  mining::MinerConfig miner_config;
  miner_config.max_lag = lag;
  miner_config.alpha = config_.alpha;
  miner_config.min_samples_per_dof = config_.min_samples_per_dof;
  miner_config.stable = config_.pc_stable;
  miner_config.ci_test = config_.use_cmh_test ? mining::CiTest::kCmh
                                              : mining::CiTest::kGSquare;
  miner_config.ci_batching = config_.ci_batching;
  miner_config.threads = config_.mining_threads;
  miner_config.metrics_registry = config_.metrics_registry;
  const mining::InteractionMiner miner(miner_config);

  // One pool for the whole training pass: mining, CPT estimation, and
  // threshold calibration all ride it (each is bit-identical to serial).
  std::optional<util::ThreadPool> pool;
  if (util::resolve_thread_count(config_.mining_threads) > 1) {
    pool.emplace(config_.mining_threads);
  }
  util::ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  TrainedModel model;
  model.lag = lag;
  model.laplace_alpha = config_.laplace_alpha;
  {
    obs::Span span("train.mine", "train");
    model.graph = miner.mine(series, &model.mining_diagnostics, pool_ptr);
  }
  {
    obs::Span span("train.threshold", "train");
    model.training_scores = detect::ThresholdCalculator::training_scores(
        model.graph, series, config_.laplace_alpha, pool_ptr);
    model.score_threshold =
        detect::ThresholdCalculator::threshold_at_percentile(
            model.training_scores, config_.percentile_q);
  }
  model.final_training_state = series.snapshot_state(series.length() - 1);
  return model;
}

}  // namespace causaliot::core
