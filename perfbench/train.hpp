// Training side of the benchmark: the paper-setting pipeline, one train
// call (plain, or composed from the same public calls with spans), and
// the checks and per-layer figures that follow a set of train runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causaliot/core/pipeline.hpp"
#include "causaliot/obs/registry.hpp"
#include "causaliot/sim/simulator.hpp"
#include "common.hpp"

namespace perfbench {

/// Simulation seed of every training trace. Training inputs do not follow
/// --seed: across simulation seeds the same 28-day profile needs 42k to
/// 141k CI tests, so train_s would measure the draw rather than the code
/// (see METRICS.md). --seed varies the runtime streams instead.
inline constexpr std::uint64_t kTrainingTraceSeed = 2023;

causaliot::sim::SimulationResult simulate_contextact(double days,
                                                     std::uint64_t seed);

/// `causaliot train` defaults: automatic lag, alpha 0.001, q 99, G-square
/// guard 10, Laplace 0.1, with a fixed mining thread count.
causaliot::core::PipelineConfig training_config(
    std::size_t threads, causaliot::obs::Registry* registry);

/// One training run on the raw log. With a disabled span log this is
/// exactly core::Pipeline::train; with an enabled one the same public calls
/// run in the same order inside spans (preprocess.run, mining.mine,
/// core.threshold under core.train), so the model is identical.
causaliot::core::TrainedModel train_model(
    const causaliot::telemetry::EventLog& log,
    const causaliot::core::PipelineConfig& config, SpanLog& spans);

/// The bytes InteractionGraph::save writes, read back from `path`.
std::string saved_dig_bytes(const causaliot::graph::InteractionGraph& graph,
                            const std::string& path);

/// Everything recorded over a workload's train runs.
struct TrainRuns {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  /// Saved DIG of every run, in run order.
  std::vector<std::string> digs;
  causaliot::core::TrainedModel model;  // from the first run
  /// Mining counters of the first traced run (private registry).
  causaliot::obs::Registry counters;
};

/// Runs one train and records it. In a traced run the runs alternate
/// between plain and spanned, starting plain, so the difference between
/// the two medians is the tracing overhead.
void record_train_run(const causaliot::telemetry::EventLog& log,
                      std::size_t threads, const Options& options,
                      SpanLog& spans, TrainRuns& runs);

/// Checks the runs (identical DIG bytes) and reports train_s and dig_f1.
/// In a traced run it also re-runs the layers one by one (fit, each
/// child's discover_causes, estimate_cpts) and reports their per-layer
/// figures.
void report_training(const causaliot::sim::SimulationResult& trace,
                     std::size_t threads, const Options& options,
                     SpanLog& spans, TrainRuns& runs, Result& result);

}  // namespace perfbench
