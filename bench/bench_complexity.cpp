// §V-D computational-complexity benchmarks (google-benchmark):
//   * TemporalPC mining cost vs device count n (the paper argues O(n^k)
//     conditional-independence tests with small realistic k),
//   * Event Monitor per-event validation cost (argued O(1)),
//   * the G-square test primitive itself.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>

#include "causaliot/core/pipeline.hpp"
#include "causaliot/stats/batch_ci.hpp"
#include "causaliot/detect/monitor.hpp"
#include "causaliot/mining/temporal_pc.hpp"
#include "causaliot/obs/trace.hpp"
#include "causaliot/preprocess/preprocessor.hpp"
#include "causaliot/preprocess/series.hpp"
#include "causaliot/sim/simulator.hpp"
#include "causaliot/stats/gsquare.hpp"
#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/rng.hpp"
#include "causaliot/util/thread_pool.hpp"

namespace {

using namespace causaliot;

// A synthetic home: each device flips driven by its predecessor (a chain
// of interactions) plus noise — enough structure for TemporalPC to prune.
preprocess::StateSeries synthetic_series(std::size_t device_count,
                                         std::size_t event_count,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> state(device_count, 0);
  preprocess::StateSeries series(device_count, state);
  telemetry::DeviceId last = 0;
  for (std::size_t j = 0; j < event_count; ++j) {
    telemetry::DeviceId device;
    if (rng.bernoulli(0.6)) {
      device = (last + 1) % static_cast<telemetry::DeviceId>(device_count);
    } else {
      device = static_cast<telemetry::DeviceId>(rng.uniform(device_count));
    }
    state[device] ^= 1;
    series.apply({device, state[device], static_cast<double>(j)});
    last = device;
  }
  return series;
}

void BM_TemporalPCMining(benchmark::State& bench_state) {
  const auto device_count =
      static_cast<std::size_t>(bench_state.range(0));
  const preprocess::StateSeries series =
      synthetic_series(device_count, 4000, 42);
  mining::MinerConfig config;
  config.max_lag = 2;
  config.alpha = 0.001;
  const mining::InteractionMiner miner(config);
  std::size_t tests = 0;
  for (auto _ : bench_state) {
    mining::MiningDiagnostics diagnostics;
    graph::InteractionGraph graph = miner.mine(series, &diagnostics);
    benchmark::DoNotOptimize(graph.edge_count());
    tests = diagnostics.tests_run;
  }
  bench_state.counters["ci_tests"] = static_cast<double>(tests);
  bench_state.counters["devices"] = static_cast<double>(device_count);
}
BENCHMARK(BM_TemporalPCMining)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(22)
    ->Unit(benchmark::kMillisecond);

// Thread-count sweep at the ContextAct scale (n = 22 devices): per-child
// discovery fans out over a reusable pool (hoisted out of the timed loop,
// as a long-running service would hold it). The result is bit-identical
// to the serial run at every thread count.
void BM_TemporalPCMiningThreads(benchmark::State& bench_state) {
  const auto threads = static_cast<std::size_t>(bench_state.range(0));
  const std::size_t device_count = 22;
  const preprocess::StateSeries series =
      synthetic_series(device_count, 4000, 42);
  mining::MinerConfig config;
  config.max_lag = 2;
  config.alpha = 0.001;
  const mining::InteractionMiner miner(config);
  util::ThreadPool pool(threads);
  std::size_t edges = 0;
  for (auto _ : bench_state) {
    graph::InteractionGraph graph =
        miner.mine(series, nullptr, threads > 1 ? &pool : nullptr);
    edges = graph.edge_count();
    benchmark::DoNotOptimize(edges);
  }
  bench_state.counters["threads"] = static_cast<double>(threads);
  bench_state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_TemporalPCMiningThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MonitorPerEvent(benchmark::State& bench_state) {
  const std::size_t device_count = 22;
  const preprocess::StateSeries series =
      synthetic_series(device_count, 8000, 7);
  mining::MinerConfig config;
  config.max_lag = 2;
  const mining::InteractionMiner miner(config);
  const graph::InteractionGraph graph = miner.mine(series);

  detect::MonitorConfig monitor_config;
  monitor_config.score_threshold = 0.99;
  detect::EventMonitor monitor(graph, monitor_config,
                               series.snapshot_state(0));
  util::Rng rng(99);
  std::size_t processed = 0;
  for (auto _ : bench_state) {
    const auto device =
        static_cast<telemetry::DeviceId>(rng.uniform(device_count));
    const preprocess::BinaryEvent event{
        device, static_cast<std::uint8_t>(rng.uniform(2)),
        static_cast<double>(processed)};
    benchmark::DoNotOptimize(monitor.process(event));
    ++processed;
  }
  bench_state.SetItemsProcessed(
      static_cast<std::int64_t>(processed));
}
BENCHMARK(BM_MonitorPerEvent);

void BM_GSquareTest(benchmark::State& bench_state) {
  const auto sample_count = static_cast<std::size_t>(bench_state.range(0));
  const auto conditioning = static_cast<std::size_t>(bench_state.range(1));
  util::Rng rng(5);
  std::vector<std::uint8_t> x(sample_count);
  std::vector<std::uint8_t> y(sample_count);
  std::vector<std::vector<std::uint8_t>> z(conditioning,
                                           std::vector<std::uint8_t>(
                                               sample_count));
  for (std::size_t i = 0; i < sample_count; ++i) {
    x[i] = static_cast<std::uint8_t>(rng.uniform(2));
    y[i] = static_cast<std::uint8_t>((x[i] + rng.uniform(2)) % 2);
    for (auto& column : z) {
      column[i] = static_cast<std::uint8_t>(rng.uniform(2));
    }
  }
  std::vector<std::span<const std::uint8_t>> z_spans(z.begin(), z.end());
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(
        stats::g_square_test(x, y, z_spans));
  }
  bench_state.SetItemsProcessed(
      static_cast<std::int64_t>(bench_state.iterations()) *
      static_cast<std::int64_t>(sample_count));
}
BENCHMARK(BM_GSquareTest)
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({100000, 2});

// The miner's actual hot path: packed columns + reused scratch.
void BM_GSquareTestPacked(benchmark::State& bench_state) {
  const auto sample_count = static_cast<std::size_t>(bench_state.range(0));
  const auto conditioning = static_cast<std::size_t>(bench_state.range(1));
  util::Rng rng(5);
  std::vector<std::uint8_t> x(sample_count);
  std::vector<std::uint8_t> y(sample_count);
  std::vector<std::vector<std::uint8_t>> z(conditioning,
                                           std::vector<std::uint8_t>(
                                               sample_count));
  for (std::size_t i = 0; i < sample_count; ++i) {
    x[i] = static_cast<std::uint8_t>(rng.uniform(2));
    y[i] = static_cast<std::uint8_t>((x[i] + rng.uniform(2)) % 2);
    for (auto& column : z) {
      column[i] = static_cast<std::uint8_t>(rng.uniform(2));
    }
  }
  const stats::PackedColumn px{std::span<const std::uint8_t>(x)};
  const stats::PackedColumn py{std::span<const std::uint8_t>(y)};
  std::vector<stats::PackedColumn> pz;
  for (const auto& column : z) {
    pz.emplace_back(std::span<const std::uint8_t>(column));
  }
  std::vector<const stats::PackedColumn*> z_ptrs;
  for (const auto& column : pz) z_ptrs.push_back(&column);
  stats::CiTestContext context;
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(
        stats::g_square_test(px, py, z_ptrs, {}, context));
  }
  bench_state.SetItemsProcessed(
      static_cast<std::int64_t>(bench_state.iterations()) *
      static_cast<std::int64_t>(sample_count));
}
BENCHMARK(BM_GSquareTestPacked)
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({100000, 2});

// The miner's level-l workload in isolation: one child column y, a pool
// of candidate parents, and every (x, Z) test the level would run —
// Z drawn as all |l|-subsets of the first kCiPoolSize candidates.
// BM_BatchedCI pays the full batched cost each iteration (fresh context,
// marginal sweep, cold memo) so the comparison against BM_PerSubsetCI is
// honest about setup overhead, not just warm-cache lookups.
constexpr std::size_t kCiPoolSize = 16;

template <typename TestFn>
std::size_t run_ci_level_sweep(std::size_t level, TestFn&& run_test) {
  std::size_t tests = 0;
  for (std::size_t x = 0; x < kCiPoolSize; ++x) {
    std::vector<std::size_t> others;
    for (std::size_t c = 0; c < kCiPoolSize; ++c) {
      if (c != x) others.push_back(c);
    }
    std::vector<bool> take(others.size(), false);
    std::fill(take.begin(), take.begin() + static_cast<long>(level), true);
    do {
      std::vector<std::size_t> z;
      for (std::size_t i = 0; i < others.size(); ++i) {
        if (take[i]) z.push_back(others[i]);
      }
      run_test(x, z);
      ++tests;
    } while (std::prev_permutation(take.begin(), take.end()));
  }
  return tests;
}

// Candidate columns shaped like the miner's: lagged views of a synthetic
// home, packed once (the miner's ColumnCache does the same).
struct CiBenchFixture {
  preprocess::StateSeries series;
  std::vector<stats::PackedColumn> packed;  // [0] = y, [1..] = candidates

  explicit CiBenchFixture(std::size_t candidate_count,
                          std::size_t event_count = 4000)
      : series(synthetic_series(candidate_count / 2 + 1, event_count, 42)) {
    packed.emplace_back(series.lagged_column(0, 0, 2));
    for (std::size_t i = 0; i < candidate_count; ++i) {
      packed.emplace_back(series.lagged_column(
          static_cast<telemetry::DeviceId>(i % series.device_count()),
          1 + i / series.device_count(), 2));
    }
  }
};

void run_batched_ci(benchmark::State& bench_state,
                    const CiBenchFixture& fixture, std::size_t level) {
  std::size_t tests = 0;
  for (auto _ : bench_state) {
    stats::BatchCiContext batch(
        {fixture.packed.data(), fixture.packed.size()}, 0);
    std::vector<stats::ColumnId> all;
    for (std::size_t c = 1; c <= kCiPoolSize; ++c) {
      all.push_back(static_cast<stats::ColumnId>(c));
    }
    batch.prepare_marginals(all);
    tests = run_ci_level_sweep(
        level, [&](std::size_t x, const std::vector<std::size_t>& z) {
          std::vector<stats::ColumnId> z_ids;
          for (const std::size_t c : z) {
            z_ids.push_back(static_cast<stats::ColumnId>(c + 1));
          }
          benchmark::DoNotOptimize(stats::g_square_test(
              batch, static_cast<stats::ColumnId>(x + 1), z_ids, {}));
        });
  }
  bench_state.counters["ci_tests"] = static_cast<double>(tests);
  bench_state.SetItemsProcessed(
      static_cast<std::int64_t>(bench_state.iterations()) *
      static_cast<std::int64_t>(tests));
}

void run_per_subset_ci(benchmark::State& bench_state,
                       const CiBenchFixture& fixture, std::size_t level) {
  stats::CiTestContext context;
  std::size_t tests = 0;
  for (auto _ : bench_state) {
    tests = run_ci_level_sweep(
        level, [&](std::size_t x, const std::vector<std::size_t>& z) {
          std::vector<const stats::PackedColumn*> z_ptrs;
          for (const std::size_t c : z) {
            z_ptrs.push_back(&fixture.packed[c + 1]);
          }
          benchmark::DoNotOptimize(stats::g_square_test(
              fixture.packed[x + 1], fixture.packed[0], z_ptrs, {}, context));
        });
  }
  bench_state.counters["ci_tests"] = static_cast<double>(tests);
  bench_state.SetItemsProcessed(
      static_cast<std::int64_t>(bench_state.iterations()) *
      static_cast<std::int64_t>(tests));
}

void BM_BatchedCI(benchmark::State& bench_state) {
  const CiBenchFixture fixture(kCiPoolSize);
  run_batched_ci(bench_state, fixture,
                 static_cast<std::size_t>(bench_state.range(0)));
}
BENCHMARK(BM_BatchedCI)->Arg(0)->Arg(1)->Arg(2);

void BM_PerSubsetCI(benchmark::State& bench_state) {
  const CiBenchFixture fixture(kCiPoolSize);
  run_per_subset_ci(bench_state, fixture,
                    static_cast<std::size_t>(bench_state.range(0)));
}
BENCHMARK(BM_PerSubsetCI)->Arg(0)->Arg(1)->Arg(2);

// SIMD backend comparison: the same CI workloads, pinned to one kernel
// backend and scaled up (64K samples = 1024 packed words per column) so
// the word-loop passes dominate over the per-test statistic arithmetic —
// the regime PR 6 targets (long traces, continual re-mining). Registered
// dynamically in main() once per backend the probe admits on this host;
// cross-name ratios (e.g. BM_BatchedCI_simd_avx512 vs _scalar) are the
// acceptance measurement for the ≥1.5× wide-vs-scalar criterion.
constexpr std::size_t kSimdBenchEvents = 65536;

// Pins a backend for one benchmark run and restores the startup choice
// after. Safe mid-process: every backend is bit-identical, so switching
// changes throughput only, never counts.
class ForcedBackend {
 public:
  explicit ForcedBackend(stats::simd::Backend backend)
      : previous_(stats::simd::chosen()) {
    stats::simd::force_backend(backend);
  }
  ~ForcedBackend() { stats::simd::force_backend(previous_); }
  ForcedBackend(const ForcedBackend&) = delete;
  ForcedBackend& operator=(const ForcedBackend&) = delete;

 private:
  stats::simd::Backend previous_;
};

void BM_BatchedCISimd(benchmark::State& bench_state,
                      stats::simd::Backend backend) {
  const ForcedBackend forced(backend);
  const CiBenchFixture fixture(kCiPoolSize, kSimdBenchEvents);
  run_batched_ci(bench_state, fixture,
                 static_cast<std::size_t>(bench_state.range(0)));
}

// Per-subset only rides the SIMD kernels at level 0 (deeper levels walk
// the key-extraction stratum loop), so the SIMD variant pins level 0.
void BM_PerSubsetCISimd(benchmark::State& bench_state,
                        stats::simd::Backend backend) {
  const ForcedBackend forced(backend);
  const CiBenchFixture fixture(kCiPoolSize, kSimdBenchEvents);
  run_per_subset_ci(bench_state, fixture, 0);
}

void register_simd_benchmarks() {
  for (const stats::simd::Backend backend :
       stats::simd::available_backends()) {
    const std::string name(stats::simd::backend_name(backend));
    benchmark::RegisterBenchmark(("BM_BatchedCI_simd_" + name).c_str(),
                                 BM_BatchedCISimd, backend)
        ->Arg(0)
        ->Arg(2);
    benchmark::RegisterBenchmark(("BM_PerSubsetCI_simd_" + name).c_str(),
                                 BM_PerSubsetCISimd, backend);
  }
}

// The per-row kernel at the levels above kPackedConditioningLimit, on
// the columns it sees in training: the 28-day ContextAct trace
// (simulated with seed 1 and preprocessed once, 16,212 rows at lag 1).
// One iteration walks every l-subset of a 14-column pool of lagged
// states in lexicographic order, the miner's order, for one (x, y) pair;
// items = CI tests. BM_HighLevelCI passes the walk's kept prefix, so a
// test refolds only the columns past the first changed index;
// BM_HighLevelCIFromScratch folds all l columns per test.
constexpr std::size_t kHighLevelPool = 14;

const preprocess::StateSeries& contextact_series() {
  static const preprocess::StateSeries series = [] {
    sim::HomeProfile profile = sim::contextact_profile();
    profile.days = 28;
    sim::SmartHomeSimulator simulator(std::move(profile), 1);
    return preprocess::Preprocessor().run(simulator.run().log).series;
  }();
  return series;
}

void run_high_level_walk(benchmark::State& bench_state, bool reuse_prefix) {
  const auto level = static_cast<std::size_t>(bench_state.range(0));
  const preprocess::StateSeries& series = contextact_series();
  const auto y = series.lagged_column(2, 0, 1);
  const auto x = series.lagged_column(3, 1, 1);
  std::vector<std::span<const std::uint8_t>> pool;
  for (telemetry::DeviceId d = 4; d < 4 + kHighLevelPool; ++d) {
    pool.push_back(series.lagged_column(d, 1, 1));
  }
  stats::CiTestContext context;
  std::vector<std::size_t> subset(level);
  std::vector<std::span<const std::uint8_t>> z(level);
  std::size_t tests = 0;
  for (auto _ : bench_state) {
    tests = 0;
    for (std::size_t i = 0; i < level; ++i) subset[i] = i;
    std::size_t reuse = 0;
    while (true) {
      for (std::size_t i = 0; i < level; ++i) z[i] = pool[subset[i]];
      benchmark::DoNotOptimize(stats::g_square_test(
          x, y, z, {}, context, reuse_prefix ? reuse : 0));
      ++tests;
      // Lexicographic successor: index i - 1 is the first that changes,
      // so the walk keeps depths 0..i - 1 (x and y plus z[0..i - 1)).
      std::size_t i = level;
      while (i > 0 && subset[i - 1] == i - 1 + kHighLevelPool - level) --i;
      if (i == 0) break;
      ++subset[i - 1];
      for (std::size_t j = i; j < level; ++j) subset[j] = subset[j - 1] + 1;
      reuse = i;
    }
  }
  bench_state.counters["ci_tests"] = static_cast<double>(tests);
  bench_state.SetItemsProcessed(
      static_cast<std::int64_t>(bench_state.iterations()) *
      static_cast<std::int64_t>(tests));
}

void BM_HighLevelCI(benchmark::State& bench_state) {
  run_high_level_walk(bench_state, true);
}
BENCHMARK(BM_HighLevelCI)->DenseRange(7, 10)->Unit(benchmark::kMillisecond);

void BM_HighLevelCIFromScratch(benchmark::State& bench_state) {
  run_high_level_walk(bench_state, false);
}
BENCHMARK(BM_HighLevelCIFromScratch)
    ->DenseRange(7, 10)
    ->Unit(benchmark::kMillisecond);

// The batched kernel at the levels it serves (|Z| <= 6), on the same
// 28-day columns and the same 14-column lexicographic walk as
// BM_HighLevelCI, packed once. BM_BatchedCIWalk keeps the memo warm from
// a walk before timing, so a test only assembles its 2^l quads from memo
// hits: the cost of key building and lookups. BM_BatchedCIWalkCold drops
// the memo before each walk, so the walk pays its word passes too.
void run_batched_walk(benchmark::State& bench_state, bool warm) {
  const auto level = static_cast<std::size_t>(bench_state.range(0));
  const preprocess::StateSeries& series = contextact_series();
  std::vector<stats::PackedColumn> packed;  // [0] = y, [1] = x, then pool
  packed.emplace_back(series.lagged_column(2, 0, 1));
  packed.emplace_back(series.lagged_column(3, 1, 1));
  for (telemetry::DeviceId d = 4; d < 4 + kHighLevelPool; ++d) {
    packed.emplace_back(series.lagged_column(d, 1, 1));
  }
  stats::BatchCiContext batch({packed.data(), packed.size()}, 0);
  std::vector<std::size_t> subset(level);
  std::vector<stats::ColumnId> z(level);
  const auto walk = [&] {
    std::size_t tests = 0;
    for (std::size_t i = 0; i < level; ++i) subset[i] = i;
    while (true) {
      for (std::size_t i = 0; i < level; ++i) {
        z[i] = static_cast<stats::ColumnId>(2 + subset[i]);
      }
      benchmark::DoNotOptimize(stats::g_square_test(batch, 1, z, {}));
      ++tests;
      std::size_t i = level;
      while (i > 0 && subset[i - 1] == i - 1 + kHighLevelPool - level) --i;
      if (i == 0) break;
      ++subset[i - 1];
      for (std::size_t j = i; j < level; ++j) subset[j] = subset[j - 1] + 1;
    }
    return tests;
  };
  if (warm) walk();
  std::size_t tests = 0;
  for (auto _ : bench_state) {
    if (!warm) batch.reset_cache();
    tests = walk();
  }
  bench_state.counters["ci_tests"] = static_cast<double>(tests);
  bench_state.counters["memo_bytes"] =
      static_cast<double>(batch.resident_bytes());
  bench_state.SetItemsProcessed(
      static_cast<std::int64_t>(bench_state.iterations()) *
      static_cast<std::int64_t>(tests));
}

void BM_BatchedCIWalk(benchmark::State& bench_state) {
  run_batched_walk(bench_state, true);
}
BENCHMARK(BM_BatchedCIWalk)->DenseRange(4, 6)->Unit(benchmark::kMillisecond);

void BM_BatchedCIWalkCold(benchmark::State& bench_state) {
  run_batched_walk(bench_state, false);
}
BENCHMARK(BM_BatchedCIWalkCold)
    ->DenseRange(4, 6)
    ->Unit(benchmark::kMillisecond);

// Full training pass with span tracing on: the per-stage counters are the
// tracer's aggregated span totals divided by iteration count, so
// BENCH_mining.json records where training time goes (mine vs CPT vs
// threshold calibration) alongside the end-to-end rate.
void BM_TrainStages(benchmark::State& bench_state) {
  const std::size_t device_count = 16;
  const preprocess::StateSeries series =
      synthetic_series(device_count, 4000, 42);
  core::PipelineConfig config;
  config.alpha = 0.001;
  config.laplace_alpha = 0.1;
  const core::Pipeline pipeline(config);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  tracer.set_enabled(true);
  for (auto _ : bench_state) {
    const core::TrainedModel model = pipeline.train_on_series(series, 2);
    benchmark::DoNotOptimize(model.score_threshold);
  }
  tracer.set_enabled(false);

  const auto totals = tracer.stage_totals();
  const auto per_iter = [&](const char* stage) {
    const auto it = totals.find(stage);
    return it == totals.end()
               ? 0.0
               : static_cast<double>(it->second.total_ns) /
                     static_cast<double>(bench_state.iterations());
  };
  bench_state.counters["mine_ns"] = per_iter("train.mine");
  bench_state.counters["cpt_ns"] = per_iter("mine.cpt");
  bench_state.counters["threshold_ns"] = per_iter("train.threshold");
  bench_state.counters["tpc_level_ns"] = per_iter("tpc.level");
  tracer.reset();
}
BENCHMARK(BM_TrainStages)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN():
//   * --causaliot-simd-list prints one backend name per line and exits
//     (run_bench.sh / CI use it to enumerate forcible backends),
//   * the chosen SIMD backend is stamped into the benchmark context so
//     BENCH_mining.json carries kernel provenance,
//   * the per-backend CI benchmarks are registered for whatever the
//     capability probe admits on this host.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--causaliot-simd-list") {
      for (const auto backend : causaliot::stats::simd::available_backends()) {
        std::printf("%s\n",
                    std::string(
                        causaliot::stats::simd::backend_name(backend))
                        .c_str());
      }
      return 0;
    }
  }
  benchmark::AddCustomContext(
      "simd_backend",
      std::string(causaliot::stats::simd::backend_name(
          causaliot::stats::simd::chosen())));
  register_simd_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
