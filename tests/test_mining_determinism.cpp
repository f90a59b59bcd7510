// Parallel mining must be bit-identical to the serial run: same skeleton,
// same CPT counts, same diagnostics in the same order — for every
// combination of skeleton variant (plain / PC-stable) and CI test
// (G-square / CMH). This is the contract that lets deployments scale
// mining across cores without revalidating detection behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <tuple>

#include "causaliot/detect/monitor.hpp"
#include "causaliot/mining/temporal_pc.hpp"
#include "causaliot/stats/cmh.hpp"
#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/find_first.hpp"
#include "causaliot/util/rng.hpp"

namespace causaliot::mining {
namespace {

using preprocess::StateSeries;

// A busy synthetic home: chain interactions plus noise, enough devices
// that the per-child workloads are skewed and the pool actually reorders
// execution relative to the serial child loop.
StateSeries busy_series(std::size_t device_count, std::size_t event_count,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> state(device_count, 0);
  StateSeries series(device_count, state);
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

// A hub home: device 0 follows the noisy majority of devices 2..inputs+1
// one event after each input flips, and device 1 echoes that majority
// with more noise just before it. Every majority input stays a cause of
// device 0 deep into Algorithm 1, so its run reaches conditioning sets of
// 7 and more: the levels the per-row kernel serves and speculation
// splits across workers.
StateSeries hub_series(std::size_t inputs, std::size_t rounds,
                       std::uint64_t seed, double noise) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> state(inputs + 2, 0);
  StateSeries series(inputs + 2, state);
  double t = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto input =
        static_cast<telemetry::DeviceId>(2 + rng.uniform(inputs));
    state[input] ^= 1;
    series.apply({input, state[input], t += 1.0});
    std::size_t on = 0;
    for (std::size_t i = 2; i < inputs + 2; ++i) on += state[i];
    const std::uint8_t majority = on * 2 > inputs ? 1 : 0;
    const auto child_flip = static_cast<std::uint8_t>(rng.bernoulli(noise));
    state[1] = majority ^ static_cast<std::uint8_t>(rng.bernoulli(noise * 4));
    series.apply({1, state[1], t += 1.0});
    state[0] = majority ^ child_flip;
    series.apply({0, state[0], t += 1.0});
  }
  return series;
}

void expect_identical_removal(const RemovalRecord& a, const RemovalRecord& b,
                              std::size_t position) {
  EXPECT_EQ(a.cause, b.cause) << "removal " << position;
  EXPECT_EQ(a.child, b.child) << "removal " << position;
  EXPECT_EQ(a.condition_size, b.condition_size) << "removal " << position;
  EXPECT_EQ(a.p_value, b.p_value) << "removal " << position;  // bit-exact
  EXPECT_EQ(a.separating_set, b.separating_set) << "removal " << position;
}

// CPTs: every observed assignment with bit-identical counts.
void expect_identical_cpts(const graph::InteractionGraph& serial,
                           const graph::InteractionGraph& parallel) {
  ASSERT_EQ(serial.device_count(), parallel.device_count());
  for (telemetry::DeviceId child = 0; child < serial.device_count();
       ++child) {
    const graph::Cpt& s = serial.cpt(child);
    const graph::Cpt& p = parallel.cpt(child);
    EXPECT_EQ(s.causes(), p.causes()) << "child " << child;
    ASSERT_EQ(s.assignment_count(), p.assignment_count()) << "child " << child;
    for (const auto& [key, counts] : s.counts()) {
      const auto it = p.counts().find(key);
      ASSERT_NE(it, p.counts().end()) << "child " << child << " key " << key;
      EXPECT_EQ(counts, it->second) << "child " << child << " key " << key;
    }
  }
}

void expect_identical_models(const graph::InteractionGraph& serial,
                             const graph::InteractionGraph& parallel,
                             const MiningDiagnostics& serial_diag,
                             const MiningDiagnostics& parallel_diag) {
  // Skeleton: edge-for-edge, including order within each child.
  EXPECT_EQ(serial.edges(), parallel.edges());

  expect_identical_cpts(serial, parallel);

  // Diagnostics: same totals and the same removal sequence (parallel
  // mining merges per-child records in child order — the serial order).
  EXPECT_EQ(serial_diag.tests_run, parallel_diag.tests_run);
  EXPECT_EQ(serial_diag.candidate_edges, parallel_diag.candidate_edges);
  ASSERT_EQ(serial_diag.removals.size(), parallel_diag.removals.size());
  for (std::size_t i = 0; i < serial_diag.removals.size(); ++i) {
    expect_identical_removal(serial_diag.removals[i],
                             parallel_diag.removals[i], i);
  }
}

class ParallelMiningEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, CiTest>> {};

TEST_P(ParallelMiningEquivalence, EightThreadsMatchesSerial) {
  const auto [stable, ci_test] = GetParam();
  const StateSeries series = busy_series(12, 3000, 2024);

  MinerConfig config;
  config.max_lag = 2;
  config.alpha = 0.001;
  config.stable = stable;
  config.ci_test = ci_test;

  config.threads = 1;
  MiningDiagnostics serial_diag;
  const graph::InteractionGraph serial =
      InteractionMiner(config).mine(series, &serial_diag);

  config.threads = 8;
  MiningDiagnostics parallel_diag;
  const graph::InteractionGraph parallel =
      InteractionMiner(config).mine(series, &parallel_diag);

  expect_identical_models(serial, parallel, serial_diag, parallel_diag);
}

TEST_P(ParallelMiningEquivalence, ExternalPoolMatchesSerial) {
  const auto [stable, ci_test] = GetParam();
  const StateSeries series = busy_series(8, 2000, 7);

  MinerConfig config;
  config.max_lag = 2;
  config.stable = stable;
  config.ci_test = ci_test;

  MiningDiagnostics serial_diag;
  const graph::InteractionGraph serial =
      InteractionMiner(config).mine(series, &serial_diag);

  util::ThreadPool pool(4);
  MiningDiagnostics pooled_diag;
  const graph::InteractionGraph pooled =
      InteractionMiner(config).mine(series, &pooled_diag, &pool);

  expect_identical_models(serial, pooled, serial_diag, pooled_diag);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ParallelMiningEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(CiTest::kGSquare, CiTest::kCmh)),
    [](const ::testing::TestParamInfo<std::tuple<bool, CiTest>>& info) {
      return std::string(std::get<0>(info.param) ? "Stable" : "Plain") +
             (std::get<1>(info.param) == CiTest::kCmh ? "Cmh" : "GSquare");
    });

// Speculative in-order mining (the per-row levels above the packed
// cutoff split each parent's subset walk across the pool) is exact:
// every thread count and an external pool reproduce the serial DIG, CPT
// counts, removal sequence, per-child and per-level test counts and every
// per-level and per-kernel counter. Only the discarded-test tally may
// differ, and it is 0 without a pool.
class SpeculativeMiningEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, CiTest>> {};

void expect_identical_counters(obs::Registry& expected, obs::Registry& actual,
                               std::size_t max_level) {
  for (std::size_t l = 0; l <= max_level; ++l) {
    EXPECT_EQ(actual.counter("mining_ci_tests_total",
                             {{"level", std::to_string(l)}})
                  .value(),
              expected.counter("mining_ci_tests_total",
                               {{"level", std::to_string(l)}})
                  .value())
        << "level " << l;
  }
  const std::string backend(
      stats::simd::backend_name(stats::simd::chosen()));
  for (const char* kernel : {"batched", "packed", "byte"}) {
    EXPECT_EQ(actual.counter("mining_ci_kernel_hits_total",
                             {{"kernel", kernel}, {"backend", backend}})
                  .value(),
              expected.counter("mining_ci_kernel_hits_total",
                               {{"kernel", kernel}, {"backend", backend}})
                  .value())
        << "kernel " << kernel;
  }
}

void expect_identical_costs(const MiningDiagnostics& serial,
                            const MiningDiagnostics& parallel) {
  ASSERT_EQ(serial.child_costs.size(), parallel.child_costs.size());
  for (std::size_t c = 0; c < serial.child_costs.size(); ++c) {
    const ChildCost& s = serial.child_costs[c];
    const ChildCost& p = parallel.child_costs[c];
    EXPECT_EQ(s.child, p.child);
    EXPECT_EQ(s.tests, p.tests) << "child " << s.child;
    ASSERT_EQ(s.levels.size(), p.levels.size()) << "child " << s.child;
    for (std::size_t l = 0; l < s.levels.size(); ++l) {
      EXPECT_EQ(s.levels[l].tests, p.levels[l].tests)
          << "child " << s.child << " level " << l;
    }
  }
}

TEST_P(SpeculativeMiningEquivalence, EveryThreadCountAndPoolMatchSerial) {
  const auto [stable, ci_test] = GetParam();
  const StateSeries series = hub_series(9, 1000, 5, 0.05);

  MinerConfig config;
  config.max_lag = 2;
  config.alpha = 0.001;
  config.stable = stable;
  config.ci_test = ci_test;
  const std::size_t max_level = config.max_lag * series.device_count();

  obs::Registry serial_registry;
  config.metrics_registry = &serial_registry;
  MiningDiagnostics serial_diag;
  const graph::InteractionGraph serial =
      InteractionMiner(config).mine(series, &serial_diag);
  ASSERT_GT(serial_registry
                .counter("mining_ci_tests_total", {{"level", "7"}})
                .value(),
            0u);
  EXPECT_EQ(serial_diag.discarded_tests(), 0u);

  const auto expect_matches_serial = [&](obs::Registry& registry,
                                         const graph::InteractionGraph& mined,
                                         const MiningDiagnostics& diag) {
    expect_identical_models(serial, mined, serial_diag, diag);
    expect_identical_costs(serial_diag, diag);
    expect_identical_counters(serial_registry, registry, max_level);
  };
  for (const std::size_t threads : {2, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::Registry registry;
    config.metrics_registry = &registry;
    config.threads = threads;
    MiningDiagnostics diag;
    const graph::InteractionGraph mined =
        InteractionMiner(config).mine(series, &diag);
    expect_matches_serial(registry, mined, diag);
  }
  {
    SCOPED_TRACE("external pool");
    obs::Registry registry;
    config.metrics_registry = &registry;
    config.threads = 1;
    util::ThreadPool pool(4);
    MiningDiagnostics diag;
    const graph::InteractionGraph mined =
        InteractionMiner(config).mine(series, &diag, &pool);
    expect_matches_serial(registry, mined, diag);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SpeculativeMiningEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(CiTest::kGSquare, CiTest::kCmh)),
    [](const ::testing::TestParamInfo<std::tuple<bool, CiTest>>& info) {
      return std::string(std::get<0>(info.param) ? "Stable" : "Plain") +
             (std::get<1>(info.param) == CiTest::kCmh ? "Cmh" : "GSquare");
    });

// The lowest-deciding-index selection on a synthetic predicate: the
// answer is the lowest hit whatever the pool, every item below it is
// evaluated exactly once, and without a pool nothing past it is.
TEST(ParallelFindFirst, LowestHitWinsAndEverythingBelowItIsEvaluated) {
  struct Case {
    const char* name;
    std::set<std::uint64_t> hits;
  };
  constexpr std::uint64_t kCount = 600;
  const Case cases[] = {
      {"hit at the first item", {0}},
      {"hit in the first speculative chunk", {1}},
      {"hit in a later chunk", {200}},
      {"several hits", {57, 58, 300, 599}},
      {"no hit", {}},
  };
  util::ThreadPool pool(4);
  for (const Case& c : cases) {
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      SCOPED_TRACE(std::string(c.name) +
                   (p == nullptr ? ", serial" : ", pool"));
      std::vector<std::atomic<int>> seen(kCount);
      const util::FirstHit<std::uint64_t> found = util::parallel_find_first(
          p, kCount, [&](const util::SearchChunk& chunk) {
            util::ChunkResult<std::uint64_t> result{chunk.end, 0, 0};
            for (std::uint64_t i = chunk.begin;
                 i < chunk.end && !chunk.superseded(); ++i) {
              seen[i].fetch_add(1);
              ++result.evaluated;
              if (c.hits.count(i) != 0) {
                result.hit = i;
                result.payload = i * 10 + 7;
                break;
              }
            }
            return result;
          });
      const std::uint64_t expected =
          c.hits.empty() ? kCount : *c.hits.begin();
      EXPECT_EQ(found.index, expected);
      EXPECT_EQ(found.payload, c.hits.empty() ? 0 : expected * 10 + 7);
      std::uint64_t evaluated = 0;
      for (std::uint64_t i = 0; i < kCount; ++i) {
        EXPECT_LE(seen[i].load(), 1) << "item " << i;
        if (i <= expected && i < kCount) {
          EXPECT_EQ(seen[i].load(), 1) << "item " << i;
        }
        evaluated += static_cast<std::uint64_t>(seen[i].load());
      }
      EXPECT_EQ(found.evaluated, evaluated);
      if (p == nullptr || c.hits.empty()) {
        EXPECT_EQ(found.evaluated, std::min(expected + 1, kCount));
      }
    }
  }
}

// The CPT-estimation stage on its own: a pooled estimate over an already
// mined skeleton must produce bit-identical counts to the serial pass
// (each worker owns exactly one child's Cpt), and the same must hold for
// the drift-adaptation path update_cpts, whose decayed counts are
// floating-point and therefore sensitive to any accumulation reorder.
TEST(ParallelCptEstimation, PooledEstimateAndUpdateMatchSerial) {
  const StateSeries train = busy_series(10, 2500, 11);
  const StateSeries fresh = busy_series(10, 1200, 12);

  MinerConfig config;
  config.max_lag = 2;
  const InteractionMiner miner(config);
  const graph::InteractionGraph mined = miner.mine(train);

  // estimate_cpts: rebuild counts from scratch, serial vs pooled.
  graph::InteractionGraph serial = mined;
  graph::InteractionGraph pooled = mined;
  util::ThreadPool pool(4);
  miner.estimate_cpts(train, serial);
  miner.estimate_cpts(train, pooled, &pool);
  expect_identical_cpts(serial, pooled);

  // update_cpts: decay + fold-in of a fresh series, serial vs pooled.
  miner.update_cpts(fresh, serial, 0.9);
  miner.update_cpts(fresh, pooled, 0.9, &pool);
  expect_identical_cpts(serial, pooled);
}

// Threshold calibration: pooled training_scores must be bit-identical to
// the serial pass (each event's score is written to its own slot from the
// immutable series and graph), so the calibrated percentile threshold —
// and hence every downstream alarm decision — is independent of
// PipelineConfig::mining_threads.
TEST(ParallelThresholdCalibration, PooledTrainingScoresMatchSerial) {
  const StateSeries train = busy_series(10, 3000, 13);
  MinerConfig config;
  config.max_lag = 2;
  const graph::InteractionGraph graph = InteractionMiner(config).mine(train);

  const std::vector<double> serial =
      detect::ThresholdCalculator::training_scores(graph, train, 0.1);
  util::ThreadPool pool(4);
  const std::vector<double> pooled =
      detect::ThresholdCalculator::training_scores(graph, train, 0.1, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  ASSERT_FALSE(serial.empty());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << "score " << i;
  }
  EXPECT_EQ(detect::ThresholdCalculator::threshold_at_percentile(serial, 99.0),
            detect::ThresholdCalculator::threshold_at_percentile(pooled, 99.0));
}

// The packed counting kernel and the per-row kernel must agree exactly
// for every conditioning-set size up to the packed limit — including a
// sample count that leaves a partial tail word.
TEST(PackedKernel, MatchesByteKernelAcrossConditioningSizes) {
  util::Rng rng(99);
  const std::size_t n = 4097;  // odd tail word exercises the valid mask
  std::vector<std::uint8_t> x(n), y(n);
  std::vector<std::vector<std::uint8_t>> z(stats::kPackedConditioningLimit,
                                           std::vector<std::uint8_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
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

  stats::CiTestContext context;
  for (std::size_t l = 0; l <= stats::kPackedConditioningLimit; ++l) {
    std::vector<std::span<const std::uint8_t>> z_spans;
    std::vector<const stats::PackedColumn*> z_packed;
    for (std::size_t j = 0; j < l; ++j) {
      z_spans.emplace_back(z[j]);
      z_packed.push_back(&pz[j]);
    }
    const stats::GSquareResult byte_g =
        stats::g_square_test(x, y, z_spans, {}, context);
    const stats::GSquareResult packed_g =
        stats::g_square_test(px, py, z_packed, {}, context);
    EXPECT_EQ(byte_g.statistic, packed_g.statistic) << "l=" << l;
    EXPECT_EQ(byte_g.dof, packed_g.dof) << "l=" << l;
    EXPECT_EQ(byte_g.p_value, packed_g.p_value) << "l=" << l;

    const stats::CmhResult byte_cmh = stats::cmh_test(x, y, z_spans, context);
    const stats::CmhResult packed_cmh =
        stats::cmh_test(px, py, z_packed, context);
    EXPECT_EQ(byte_cmh.statistic, packed_cmh.statistic) << "l=" << l;
    EXPECT_EQ(byte_cmh.p_value, packed_cmh.p_value) << "l=" << l;
    EXPECT_EQ(byte_cmh.informative_strata, packed_cmh.informative_strata)
        << "l=" << l;
  }
}

// Batched multi-subset CI counting (MinerConfig::ci_batching) is a pure
// performance switch: turning it off must reproduce the DIG, the CPT
// counts, the diagnostics sequence, and the per-level test totals bit for
// bit — the same contract the parallel/serial pair satisfies.
class CiBatchingEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, CiTest>> {};

TEST_P(CiBatchingEquivalence, BatchedMiningMatchesPerSubset) {
  const auto [stable, ci_test] = GetParam();
  const StateSeries series = busy_series(12, 3000, 2024);

  MinerConfig config;
  config.max_lag = 2;
  config.alpha = 0.001;
  config.stable = stable;
  config.ci_test = ci_test;

  obs::Registry batched_registry;
  config.ci_batching = true;
  config.metrics_registry = &batched_registry;
  MiningDiagnostics batched_diag;
  const graph::InteractionGraph batched =
      InteractionMiner(config).mine(series, &batched_diag);

  obs::Registry direct_registry;
  config.ci_batching = false;
  config.metrics_registry = &direct_registry;
  MiningDiagnostics direct_diag;
  const graph::InteractionGraph direct =
      InteractionMiner(config).mine(series, &direct_diag);

  expect_identical_models(batched, direct, batched_diag, direct_diag);

  // Early-exit semantics carry over: the batched run consumed exactly the
  // same number of tests at every conditioning level.
  for (std::size_t l = 0; l <= config.max_lag * series.device_count(); ++l) {
    EXPECT_EQ(batched_registry
                  .counter("mining_ci_tests_total",
                           {{"level", std::to_string(l)}})
                  .value(),
              direct_registry
                  .counter("mining_ci_tests_total",
                           {{"level", std::to_string(l)}})
                  .value())
        << "level " << l;
  }
}

TEST_P(CiBatchingEquivalence, GuardSkippedTestsMatchPerSubset) {
  // A tight small-sample guard makes deeper tests skip; the skip must
  // happen before counting in both paths and count toward the same
  // tests_run total.
  const auto [stable, ci_test] = GetParam();
  const StateSeries series = busy_series(10, 600, 5);

  MinerConfig config;
  config.max_lag = 2;
  config.alpha = 0.001;
  config.stable = stable;
  config.ci_test = ci_test;
  config.min_samples_per_dof = 100.0;

  config.ci_batching = true;
  MiningDiagnostics batched_diag;
  const graph::InteractionGraph batched =
      InteractionMiner(config).mine(series, &batched_diag);

  config.ci_batching = false;
  MiningDiagnostics direct_diag;
  const graph::InteractionGraph direct =
      InteractionMiner(config).mine(series, &direct_diag);

  expect_identical_models(batched, direct, batched_diag, direct_diag);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CiBatchingEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(CiTest::kGSquare, CiTest::kCmh)),
    [](const ::testing::TestParamInfo<std::tuple<bool, CiTest>>& info) {
      return std::string(std::get<0>(info.param) ? "Stable" : "Plain") +
             (std::get<1>(info.param) == CiTest::kCmh ? "Cmh" : "GSquare");
    });

// Satellite (PR 6): the SIMD kernel backend is a pure throughput switch.
// A full mine under every backend the host can execute must reproduce
// the scalar run's DIG, CPT counts, diagnostics sequence, per-level test
// totals, and per-kernel dispatch counts bit for bit — the contract that
// makes the capability probe's choice (and CAUSALIOT_SIMD overrides)
// invisible to detection behaviour.
class SimdBackendEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, CiTest>> {};

TEST_P(SimdBackendEquivalence, EveryBackendMatchesScalarMining) {
  const auto [stable, ci_test] = GetParam();
  const StateSeries series = busy_series(12, 3000, 2024);

  MinerConfig config;
  config.max_lag = 2;
  config.alpha = 0.001;
  config.stable = stable;
  config.ci_test = ci_test;

  const stats::simd::Backend before = stats::simd::chosen();
  ASSERT_TRUE(stats::simd::force_backend(stats::simd::Backend::kScalar));
  obs::Registry scalar_registry;
  config.metrics_registry = &scalar_registry;
  MiningDiagnostics scalar_diag;
  const graph::InteractionGraph scalar =
      InteractionMiner(config).mine(series, &scalar_diag);

  const auto kernel_hits = [](obs::Registry& registry,
                              stats::simd::Backend backend,
                              const char* kernel) {
    return registry
        .counter("mining_ci_kernel_hits_total",
                 {{"kernel", kernel},
                  {"backend",
                   std::string(stats::simd::backend_name(backend))}})
        .value();
  };

  for (const stats::simd::Backend backend :
       stats::simd::available_backends()) {
    SCOPED_TRACE(std::string("backend ") +
                 std::string(stats::simd::backend_name(backend)));
    ASSERT_TRUE(stats::simd::force_backend(backend));
    obs::Registry registry;
    config.metrics_registry = &registry;
    MiningDiagnostics diag;
    const graph::InteractionGraph mined =
        InteractionMiner(config).mine(series, &diag);

    expect_identical_models(scalar, mined, scalar_diag, diag);
    for (std::size_t l = 0; l <= config.max_lag * series.device_count();
         ++l) {
      EXPECT_EQ(registry
                    .counter("mining_ci_tests_total",
                             {{"level", std::to_string(l)}})
                    .value(),
                scalar_registry
                    .counter("mining_ci_tests_total",
                             {{"level", std::to_string(l)}})
                    .value())
          << "level " << l;
    }
    // Same dispatch counts per kernel, each labelled with its own run's
    // backend.
    for (const char* kernel : {"batched", "packed", "byte"}) {
      EXPECT_EQ(kernel_hits(registry, backend, kernel),
                kernel_hits(scalar_registry, stats::simd::Backend::kScalar,
                            kernel))
          << "kernel " << kernel;
    }
  }
  ASSERT_TRUE(stats::simd::force_backend(before));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SimdBackendEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(CiTest::kGSquare, CiTest::kCmh)),
    [](const ::testing::TestParamInfo<std::tuple<bool, CiTest>>& info) {
      return std::string(std::get<0>(info.param) ? "Stable" : "Plain") +
             (std::get<1>(info.param) == CiTest::kCmh ? "Cmh" : "GSquare");
    });

}  // namespace
}  // namespace causaliot::mining
