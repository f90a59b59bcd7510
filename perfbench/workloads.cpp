#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "causaliot/preprocess/preprocessor.hpp"
#include "serve.hpp"
#include "train.hpp"

namespace perfbench {

using namespace causaliot;

namespace {

/// Set-up stages run this many times; setup_s sums the stage medians.
constexpr int kSetupRepeats = 5;
/// train-contextact trains at least this often, however long a run takes.
constexpr std::size_t kMinTrainRuns = 3;

struct WorkloadPlan {
  /// Length of the training trace (simulated at kTrainingTraceSeed).
  double train_days = 7.0;
  /// Train runs inside the timed phase (else in set-up and between rungs).
  bool train_timed = false;
  /// Share of --seconds the train runs may use; the serving rungs get the
  /// rest.
  double train_share = 0.0;
  /// Seconds of train runs after each serving rung (serving workloads).
  double train_slice_s = 0.0;
  /// Length of the held-out runtime trace the tenants replay.
  double runtime_days = 7.0;
  ServePlan serve;
};

std::size_t host_cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Offered rates from `low` up to `high`, each `ratio` times the last.
std::vector<double> geometric_ladder(double low, double high, double ratio) {
  std::vector<double> rates;
  for (double rate = low; rate <= high * 1.0001; rate *= ratio) {
    rates.push_back(std::round(rate));
  }
  return rates;
}

WorkloadPlan plan_for(const Options& options) {
  WorkloadPlan plan;
  ServePlan& serve = plan.serve;
  // One core for the load generator and one for everything else (the
  // line server's connection thread, the host); the rest run shards.
  serve.shards = std::max<std::size_t>(1, host_cores() - 2);
  if (options.workload == "train-contextact") {
    // Paper scale: 28 days, ~157k raw events including ambient sensors.
    plan.train_days = 28.0;
    plan.train_timed = true;
    plan.train_share = 0.65;
    // A small direct-submit fleet serving the paper-scale DIG.
    serve.tenants = 16;
    serve.nominal_eps = 300000.0;
    serve.ladder = geometric_ladder(100000.0, 3200000.0, 1.05);
  } else if (options.workload == "serve-fleet") {
    plan.train_share = 0.3;
    serve.tenants = 2000;
    serve.nominal_eps = 300000.0;
    serve.ladder = geometric_ladder(100000.0, 3200000.0, 1.05);
  } else {  // ingest-churn
    plan.train_share = 0.3;
    serve.tenants = 16;
    serve.tcp = true;
    serve.churn_period_s = 0.1;
    serve.nominal_eps = 100000.0;
    serve.ladder = geometric_ladder(50000.0, 1600000.0, 1.05);
  }
  if (options.smoke) {
    plan.train_days = 2.0;
    plan.runtime_days = 1.0;
    serve.tenants = std::min<std::size_t>(serve.tenants, 8);
    serve.nominal_eps = 20000.0;
    serve.ladder = {20000.0, 40000.0, 80000.0};
  }
  // Half the serving time measures latency at the nominal rate; the
  // ladder bisection shares the rest, allowing for about half of its
  // probes to need a second try.
  const double serve_seconds = options.seconds * (1.0 - plan.train_share);
  serve.nominal_s = std::max(0.2, 0.5 * serve_seconds);
  const auto probes = static_cast<double>(std::bit_width(serve.ladder.size()));
  serve.probe_s = std::max(0.1, 0.5 * serve_seconds / (1.5 * probes));
  // The serving workloads train after the nominal rung and after every
  // ladder rung, as often as the probes above are expected to run.
  if (!plan.train_timed) {
    plan.train_slice_s =
        options.seconds * plan.train_share / (1.0 + 1.5 * probes);
  }
  return plan;
}

std::uint64_t runtime_seed(std::uint64_t seed) {
  // Never equal to the training seed for small --seed values.
  return seed * 0x9e3779b97f4a7c15ULL + 0x5eed;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"train-contextact", "serve-fleet", "ingest-churn"};
}

std::size_t mining_threads(const std::string& workload) {
  return workload == "train-contextact" ? std::min<std::size_t>(4, host_cores())
                                        : 1;
}

Result run_workload(const Options& options) {
  Result result;
  SpanLog spans(options.trace);
  const WorkloadPlan plan = plan_for(options);
  const std::size_t threads = mining_threads(options.workload);

  // Set-up stage 1: the training trace and the held-out runtime trace.
  std::vector<double> trace_setup_s;
  sim::SimulationResult trace;
  sim::SimulationResult runtime;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t start = now_ns();
    trace = simulate_contextact(plan.train_days, kTrainingTraceSeed);
    runtime = simulate_contextact(plan.runtime_days,
                                  runtime_seed(options.seed));
    trace_setup_s.push_back(seconds_since(start));
  }

  // Training: timed (train-contextact) or set-up stage 2 (the served
  // model of the serving workloads).
  TrainRuns runs;
  std::vector<double> train_setup_s;
  const std::uint64_t timed_start = now_ns();
  if (plan.train_timed) {
    const double budget = options.seconds * plan.train_share;
    while (runs.digs.size() < kMinTrainRuns ||
           seconds_since(timed_start) + median(runs.untraced_s) < budget) {
      record_train_run(trace.log, threads, options, spans, runs);
    }
  } else {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const std::uint64_t start = now_ns();
      record_train_run(trace.log, threads, options, spans, runs);
      train_setup_s.push_back(seconds_since(start));
    }
  }

  // Set-up stage 3: discretize the runtime stream with the trained model
  // and build the fleet.
  std::vector<double> fleet_setup_s;
  std::unique_ptr<Fleet> fleet;
  double bytes_per_tenant = 0.0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fleet.reset();
    const std::uint64_t start = now_ns();
    std::vector<preprocess::BinaryEvent> stream =
        preprocess::Preprocessor().discretize_runtime(
            runtime.log, runs.model.discretization, 0.0);
    fleet = std::make_unique<Fleet>(runs.model, trace.log.catalog(),
                                    std::move(stream), plan.serve,
                                    options.seed, options, spans);
    fleet_setup_s.push_back(seconds_since(start));
    // Later fleets reuse the memory the earlier ones freed.
    if (i == 0) bytes_per_tenant = fleet->bytes_per_tenant();
  }

  // The serving workloads' train runs are ~0.2 s each, and one run takes
  // from 0.15 to 0.4 s depending on the moment: a slice of runs after every
  // rung spreads the train_s sample (~40 runs) over the whole run instead
  // of one moment of set-up.
  std::function<void()> between_rungs;
  if (!plan.train_timed) {
    between_rungs = [&] {
      const std::uint64_t start = now_ns();
      do {
        record_train_run(trace.log, threads, options, spans, runs);
      } while (seconds_since(start) < plan.train_slice_s);
    };
  }
  fleet->run_timed(spans, between_rungs);
  fleet->finish(spans, result);
  fleet.reset();
  report_training(trace, threads, options, spans, runs, result);

  const double setup_s =
      median(trace_setup_s) +
      (train_setup_s.empty() ? 0.0 : median(train_setup_s)) +
      median(fleet_setup_s);
  result.e2e("setup_s", setup_s, "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  result.detail(format("setup: traces %.3f s, train %.3f s, fleet %.3f s "
                       "(medians of %d)",
                       median(trace_setup_s), median(train_setup_s),
                       median(fleet_setup_s), kSetupRepeats));
  if (options.trace) {
    result.layer("serve.bytes_per_tenant", bytes_per_tenant, "bytes");
    const auto by_layer = self_seconds_by_layer(spans.totals());
    for (const char* layer :
         {"core", "preprocess", "mining", "graph", "detect", "serve",
          "telemetry", "net", "obs", "loadgen"}) {
      const auto it = by_layer.find(layer);
      result.layer(std::string(layer) + ".self_s",
                   it != by_layer.end() ? it->second : 0.0, "s");
    }
  }
  return result;
}

}  // namespace perfbench
