#include "train.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "causaliot/core/evaluation.hpp"
#include "causaliot/mining/temporal_pc.hpp"
#include "causaliot/preprocess/preprocessor.hpp"
#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/thread_pool.hpp"

namespace perfbench {

using namespace causaliot;

namespace {

/// Highest conditioning-set size reported on its own; larger sets are
/// folded into the last bucket.
constexpr std::size_t kLevelBuckets = 11;

double mean_seconds(const std::map<std::string, SpanLog::Totals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.total_ns) / 1e9 /
         static_cast<double>(it->second.count);
}

mining::MinerConfig miner_config(const core::PipelineConfig& config,
                                 std::size_t lag) {
  // Mirrors Pipeline::train_on_series.
  mining::MinerConfig miner;
  miner.max_lag = lag;
  miner.alpha = config.alpha;
  miner.min_samples_per_dof = config.min_samples_per_dof;
  miner.stable = config.pc_stable;
  miner.ci_test = config.use_cmh_test ? mining::CiTest::kCmh
                                      : mining::CiTest::kGSquare;
  miner.ci_batching = config.ci_batching;
  miner.threads = config.mining_threads;
  miner.metrics_registry = config.metrics_registry;
  return miner;
}

std::size_t distinct_ambient_values(const telemetry::EventLog& log) {
  std::set<std::pair<telemetry::DeviceId, double>> values;
  for (const telemetry::DeviceEvent& event : log.events()) {
    if (log.catalog().info(event.device).value_type ==
        telemetry::ValueType::kAmbientNumeric) {
      values.emplace(event.device, event.value);
    }
  }
  return values.size();
}

double f1_score(double precision, double recall) {
  return precision + recall > 0.0
             ? 2.0 * precision * recall / (precision + recall)
             : 0.0;
}

}  // namespace

sim::SimulationResult simulate_contextact(double days, std::uint64_t seed) {
  sim::HomeProfile profile = sim::contextact_profile();
  profile.days = days;
  sim::SmartHomeSimulator simulator(std::move(profile), seed);
  return simulator.run();
}

core::PipelineConfig training_config(std::size_t threads,
                                     obs::Registry* registry) {
  core::PipelineConfig config;
  config.max_lag = 0;
  config.alpha = 0.001;
  config.percentile_q = 99.0;
  config.min_samples_per_dof = 10.0;
  config.laplace_alpha = 0.1;
  config.mining_threads = threads;
  config.metrics_registry = registry;
  return config;
}

core::TrainedModel train_model(const telemetry::EventLog& log,
                               const core::PipelineConfig& config,
                               SpanLog& spans) {
  if (!spans.enabled()) return core::Pipeline(config).train(log);

  // Pipeline::train and train_on_series, call for call.
  const SpanLog::Scope train_span = spans.open("core.train");
  const preprocess::Preprocessor preprocessor(config.preprocessor);
  preprocess::PreprocessResult pre = [&] {
    const SpanLog::Scope span = spans.open("preprocess.run");
    return preprocessor.run(log);
  }();
  const std::size_t lag = config.max_lag > 0 ? config.max_lag : pre.lag;
  const mining::InteractionMiner miner(miner_config(config, lag));
  std::optional<util::ThreadPool> pool;
  if (util::resolve_thread_count(config.mining_threads) > 1) {
    pool.emplace(config.mining_threads);
  }
  util::ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  core::TrainedModel model;
  model.lag = lag;
  model.laplace_alpha = config.laplace_alpha;
  {
    const SpanLog::Scope span = spans.open("mining.mine");
    model.graph = miner.mine(pre.series, &model.mining_diagnostics, pool_ptr);
  }
  {
    const SpanLog::Scope span = spans.open("core.threshold");
    model.training_scores = detect::ThresholdCalculator::training_scores(
        model.graph, pre.series, config.laplace_alpha, pool_ptr);
    model.score_threshold =
        detect::ThresholdCalculator::threshold_at_percentile(
            model.training_scores, config.percentile_q);
  }
  model.final_training_state =
      pre.series.snapshot_state(pre.series.length() - 1);
  model.discretization = std::move(pre.discretization);
  return model;
}

std::string saved_dig_bytes(const graph::InteractionGraph& graph,
                            const std::string& path) {
  if (!graph.save(path).ok()) return {};
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void record_train_run(const telemetry::EventLog& log, std::size_t threads,
                      const Options& options, SpanLog& spans,
                      TrainRuns& runs) {
  const std::size_t run = runs.digs.size();
  const bool traced = options.trace && run % 2 == 1;
  const bool first_traced = traced && runs.traced_s.empty();
  SpanLog off(false);
  const core::PipelineConfig config = training_config(
      threads, first_traced ? &runs.counters : nullptr);
  const std::uint64_t start = now_ns();
  core::TrainedModel model = train_model(log, config, traced ? spans : off);
  (traced ? runs.traced_s : runs.untraced_s).push_back(seconds_since(start));
  runs.digs.push_back(saved_dig_bytes(
      model.graph, options.work_dir + "/dig-" + std::to_string(run) + ".txt"));
  if (run == 0) runs.model = std::move(model);
}

void report_training(const sim::SimulationResult& trace,
                     std::size_t threads, const Options& options,
                     SpanLog& spans, TrainRuns& runs, Result& result) {
  const std::string& reference = runs.digs.front();
  std::size_t differing = reference.empty() ? 1 : 0;
  for (std::size_t i = 1; i < runs.digs.size(); ++i) {
    if (runs.digs[i] != reference) ++differing;
  }
  result.attempted += runs.digs.size();
  result.fail(differing, "saved DIG bytes differ across train runs");

  // Mining quality against refined ground truth (§VI-A labelling).
  const core::TrainedModel& model = runs.model;
  const core::PipelineConfig config = training_config(threads, nullptr);
  const preprocess::Preprocessor preprocessor(config.preprocessor);
  const std::vector<preprocess::BinaryEvent> sanitized =
      preprocessor.sanitize(
          trace.log, model.discretization,
          std::vector<std::uint8_t>(trace.log.catalog().size(), 0));
  const sim::GroundTruth expected = core::refine_ground_truth(
      trace.ground_truth, sanitized, /*window=*/1, /*min_count=*/15);
  const core::MiningEvaluation evaluation =
      core::evaluate_mining(model.graph, expected, trace.ground_truth);
  const double f1 = f1_score(evaluation.precision, evaluation.recall);
  result.detail(format(
      "train: %zu raw events, lag %zu, %zu edges, %zu CI tests, "
      "threshold %.4f, precision %.4f recall %.4f, %zu runs",
      trace.log.size(), model.lag, model.graph.edge_count(),
      model.mining_diagnostics.tests_run, model.score_threshold,
      evaluation.precision, evaluation.recall, runs.digs.size()));

  std::string run_times;
  for (const double seconds : runs.untraced_s) {
    run_times += format(" %.3f", seconds);
  }
  result.detail("train runs (s, in order):" + run_times);
  result.e2e("train_s", median(runs.untraced_s), "s");
  result.e2e("dig_f1", f1, "ratio");
  if (!options.trace) return;

  // Attribution passes, outside core.train: each layer's public call on
  // its own. The series is rebuilt from the first run's discretization,
  // which is what Preprocessor::run builds.
  const std::size_t n = trace.log.catalog().size();
  {
    const SpanLog::Scope span = spans.open("preprocess.fit");
    const preprocess::DiscretizationModel refit =
        preprocess::DiscretizationModel::fit(trace.log);
    (void)refit;
  }
  const preprocess::StateSeries series = preprocess::build_series(n, sanitized);
  const mining::InteractionMiner miner(miner_config(config, model.lag));
  std::vector<double> child_s;
  for (telemetry::DeviceId child = 0; child < n; ++child) {
    const SpanLog::Scope span = spans.open("mining.child");
    const std::uint64_t start = now_ns();
    const std::vector<graph::LaggedNode> causes =
        miner.discover_causes(series, child);
    child_s.push_back(seconds_since(start));
    if (causes != model.graph.causes(child)) {
      result.fail(1, format("discover_causes(child %u) differs from mine()",
                            static_cast<unsigned>(child)));
    }
  }
  {
    graph::InteractionGraph fresh(n, model.lag);
    for (telemetry::DeviceId child = 0; child < n; ++child) {
      fresh.set_causes(child, model.graph.causes(child));
    }
    std::optional<util::ThreadPool> pool;
    if (util::resolve_thread_count(threads) > 1) pool.emplace(threads);
    const SpanLog::Scope span = spans.open("graph.cpt");
    miner.estimate_cpts(series, fresh, pool ? &*pool : nullptr);
  }

  const auto totals = spans.totals();
  const double mine_s = mean_seconds(totals, "mining.mine");
  double child_sum = 0.0;
  for (const double s : child_s) child_sum += s;
  result.layer("preprocess.fit_s", mean_seconds(totals, "preprocess.fit"),
               "s");
  result.layer("preprocess.run_s", mean_seconds(totals, "preprocess.run"),
               "s");
  result.layer("preprocess.distinct_ambient_values",
               static_cast<double>(distinct_ambient_values(trace.log)),
               "count");
  result.layer("mining.mine_s", mine_s, "s");
  result.layer("mining.child_max_s",
               *std::max_element(child_s.begin(), child_s.end()), "s");
  result.layer("mining.child_sum_s", child_sum, "s");
  result.layer("mining.parallel_efficiency",
               mine_s > 0.0 ? child_sum / (mine_s * static_cast<double>(
                                                        threads))
                            : 0.0,
               "ratio");
  result.layer("mining.ci_tests",
               static_cast<double>(model.mining_diagnostics.tests_run),
               "count");
  for (std::size_t level = 0; level < kLevelBuckets; ++level) {
    double tests = 0.0;
    const std::size_t last = level + 1 == kLevelBuckets ? 64 : level;
    for (std::size_t l = level; l <= last; ++l) {
      tests += static_cast<double>(
          runs.counters
              .counter("mining_ci_tests_total", {{"level", std::to_string(l)}})
              .value());
    }
    result.layer("mining.ci_tests_by_level.l" + std::to_string(level), tests,
                 "count");
  }
  const std::string backend(
      stats::simd::backend_name(stats::simd::chosen()));
  const auto kernel_hits = [&](const char* kernel) {
    return static_cast<double>(
        runs.counters
            .counter("mining_ci_kernel_hits_total",
                     {{"kernel", kernel}, {"backend", backend}})
            .value());
  };
  result.layer("mining.byte_fallback_tests", kernel_hits("byte"), "count");
  result.layer("mining.batched_hits", kernel_hits("batched"), "count");
  result.layer("graph.cpt_s", mean_seconds(totals, "graph.cpt"), "s");
  result.layer("core.threshold_s", mean_seconds(totals, "core.threshold"),
               "s");
  result.layer("trace.train_overhead_ratio",
               median(runs.traced_s) / median(runs.untraced_s) - 1.0,
               "ratio");
}

}  // namespace perfbench
