#include "causaliot/mining/temporal_pc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "causaliot/mining/cause_set.hpp"
#include "causaliot/stats/batch_ci.hpp"
#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/rng.hpp"

namespace causaliot::mining {
namespace {

using preprocess::BinaryEvent;
using preprocess::StateSeries;

bool has_cause(const std::vector<graph::LaggedNode>& causes,
               telemetry::DeviceId device) {
  return std::any_of(causes.begin(), causes.end(),
                     [&](const graph::LaggedNode& c) {
                       return c.device == device;
                     });
}

// A driver chain: device 0 flips spontaneously; device 1 copies device 0's
// previous state one event later; device 2 copies device 1 likewise.
// Events alternate 0, 1, 2, 0, 1, 2, ... so the causal lag is exactly 1.
StateSeries chain_series(std::size_t events_per_device, double noise,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  StateSeries series(3, {0, 0, 0});
  std::uint8_t driver = 0;
  double t = 0.0;
  auto flip_noise = [&](std::uint8_t v) {
    return rng.bernoulli(noise) ? static_cast<std::uint8_t>(1 - v) : v;
  };
  for (std::size_t i = 0; i < events_per_device; ++i) {
    driver = static_cast<std::uint8_t>(rng.uniform(2));
    series.apply({0, driver, t += 1});
    series.apply({1, flip_noise(series.state(0, series.length() - 1)),
                  t += 1});
    series.apply({2, flip_noise(series.state(1, series.length() - 1)),
                  t += 1});
  }
  return series;
}

TEST(TemporalPC, RecoversDirectCauseInChain) {
  const StateSeries series = chain_series(2000, 0.05, 1);
  MinerConfig config;
  config.max_lag = 2;
  config.alpha = 0.001;
  const InteractionMiner miner(config);
  const auto causes_of_1 = miner.discover_causes(series, 1);
  EXPECT_TRUE(has_cause(causes_of_1, 0));
  const auto causes_of_2 = miner.discover_causes(series, 2);
  EXPECT_TRUE(has_cause(causes_of_2, 1));
}

TEST(TemporalPC, RemovesIndirectCauseGivenMediator) {
  // 0 -> 1 -> 2: device 0 must not be a direct cause of device 2.
  const StateSeries series = chain_series(4000, 0.05, 2);
  MinerConfig config;
  config.max_lag = 2;
  config.alpha = 0.001;
  MiningDiagnostics diagnostics;
  const InteractionMiner miner(config);
  const auto causes_of_2 =
      miner.discover_causes(series, 2, &diagnostics);
  EXPECT_FALSE(has_cause(causes_of_2, 0));
  // The removal should be conditional (spurious via the mediator), not
  // marginal — 0 and 2 are strongly associated.
  bool removed_conditionally = false;
  for (const RemovalRecord& record : diagnostics.removals) {
    if (record.cause.device == 0 && record.child == 2 &&
        record.condition_size > 0) {
      removed_conditionally = true;
    }
  }
  EXPECT_TRUE(removed_conditionally);
}

TEST(TemporalPC, IndependentDeviceHasNoCrossEdges) {
  util::Rng rng(3);
  StateSeries series(2, {0, 0});
  double t = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const auto device = static_cast<telemetry::DeviceId>(rng.uniform(2));
    series.apply({device, static_cast<std::uint8_t>(rng.uniform(2)),
                  t += 1});
  }
  MinerConfig config;
  config.max_lag = 2;
  const InteractionMiner miner(config);
  EXPECT_FALSE(has_cause(miner.discover_causes(series, 1), 0));
  EXPECT_FALSE(has_cause(miner.discover_causes(series, 0), 1));
}

TEST(TemporalPC, FindsAutocorrelationOfPersistentDevice) {
  // Device 1 holds its state over long stretches while device 0 churns.
  util::Rng rng(4);
  StateSeries series(2, {0, 0});
  double t = 0.0;
  std::uint8_t persistent = 0;
  for (int i = 0; i < 3000; ++i) {
    if (rng.bernoulli(0.1)) {
      persistent ^= 1;
      series.apply({1, persistent, t += 1});
    } else {
      series.apply({0, static_cast<std::uint8_t>(rng.uniform(2)), t += 1});
    }
  }
  MinerConfig config;
  config.max_lag = 2;
  const InteractionMiner miner(config);
  EXPECT_TRUE(has_cause(miner.discover_causes(series, 1), 1));
}

TEST(TemporalPC, EdgesAlwaysPointLaggedToPresent) {
  const StateSeries series = chain_series(500, 0.1, 5);
  MinerConfig config;
  config.max_lag = 2;
  const InteractionMiner miner(config);
  const graph::InteractionGraph graph = miner.mine(series);
  for (const graph::Edge& edge : graph.edges()) {
    EXPECT_GE(edge.cause.lag, 1u);
    EXPECT_LE(edge.cause.lag, 2u);
  }
}

TEST(TemporalPC, DiagnosticsCountCandidatesAndTests) {
  const StateSeries series = chain_series(300, 0.1, 6);
  MinerConfig config;
  config.max_lag = 2;
  MiningDiagnostics diagnostics;
  const InteractionMiner miner(config);
  miner.mine(series, &diagnostics);
  // 3 devices * 2 lags candidates per child, 3 children.
  EXPECT_EQ(diagnostics.candidate_edges, 18u);
  EXPECT_GT(diagnostics.tests_run, 18u);
  EXPECT_EQ(diagnostics.removals.size(),
            diagnostics.removed_marginal() +
                diagnostics.removed_conditional());
}

TEST(TemporalPC, MaxConditionSizeCapsSearch) {
  const StateSeries series = chain_series(500, 0.1, 7);
  MinerConfig config;
  config.max_lag = 2;
  config.max_condition_size = 0;  // only marginal tests
  MiningDiagnostics diagnostics;
  const InteractionMiner miner(config);
  miner.mine(series, &diagnostics);
  for (const RemovalRecord& record : diagnostics.removals) {
    EXPECT_EQ(record.condition_size, 0u);
  }
}

TEST(TemporalPC, CptEstimationMatchesCounts) {
  // Deterministic copy: device 1 mirrors device 0's previous state.
  const StateSeries series = chain_series(1000, 0.0, 8);
  MinerConfig config;
  config.max_lag = 2;
  const InteractionMiner miner(config);
  graph::InteractionGraph graph = miner.mine(series);
  ASSERT_TRUE(graph.has_interaction(0, 1));
  const graph::Cpt& cpt = graph.cpt(1);

  // Manually recount one assignment and compare with the CPT.
  std::vector<std::uint8_t> cause_values(cpt.cause_count());
  std::size_t manual[2] = {0, 0};
  util::BitKey target_key;
  bool have_key = false;
  for (std::size_t j = 2; j < series.length(); ++j) {
    for (std::size_t c = 0; c < cpt.causes().size(); ++c) {
      cause_values[c] =
          series.state(cpt.causes()[c].device, j - cpt.causes()[c].lag);
    }
    const util::BitKey key = cpt.pack(cause_values);
    if (!have_key) {
      target_key = key;
      have_key = true;
    }
    if (key == target_key) ++manual[series.state(1, j)];
  }
  ASSERT_TRUE(have_key);
  const double total = static_cast<double>(manual[0] + manual[1]);
  EXPECT_DOUBLE_EQ(cpt.probability(target_key, 1),
                   static_cast<double>(manual[1]) / total);
  EXPECT_DOUBLE_EQ(cpt.support(target_key), total);
}

TEST(TemporalPC, SkippedGuardTestsDoNotRemoveEdges) {
  // With an aggressive guard everything is skipped, so all candidate
  // edges survive.
  const StateSeries series = chain_series(100, 0.1, 9);
  MinerConfig config;
  config.max_lag = 1;
  config.min_samples_per_dof = 1e9;
  const InteractionMiner miner(config);
  const auto causes = miner.discover_causes(series, 1);
  EXPECT_EQ(causes.size(), 3u);  // every device at lag 1
}

TEST(TemporalPC, DeterministicAcrossRuns) {
  const StateSeries series = chain_series(500, 0.1, 10);
  MinerConfig config;
  config.max_lag = 2;
  const InteractionMiner miner(config);
  const graph::InteractionGraph a = miner.mine(series);
  const graph::InteractionGraph b = miner.mine(series);
  EXPECT_EQ(a.edges(), b.edges());
}

// Property sweep: mining honours the configured lag bound.
class TemporalPCLagSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TemporalPCLagSweep, CauseLagsWithinTau) {
  const std::size_t tau = GetParam();
  const StateSeries series = chain_series(800, 0.1, 11);
  MinerConfig config;
  config.max_lag = tau;
  const InteractionMiner miner(config);
  const graph::InteractionGraph graph = miner.mine(series);
  EXPECT_EQ(graph.max_lag(), tau);
  for (const graph::Edge& edge : graph.edges()) {
    EXPECT_LE(edge.cause.lag, tau);
  }
}

INSTANTIATE_TEST_SUITE_P(Lags, TemporalPCLagSweep,
                         ::testing::Values(1, 2, 3));

TEST(TemporalPC, MetricsLandInInjectedRegistry) {
  const StateSeries series = chain_series(500, 0.05, 9);
  obs::Registry registry;
  MinerConfig config;
  config.max_lag = 1;
  config.metrics_registry = &registry;
  const InteractionMiner miner(config);
  MiningDiagnostics diagnostics;
  const graph::InteractionGraph graph = miner.mine(series, &diagnostics);
  ASSERT_GT(diagnostics.tests_run, 0u);

  // CI tests per level sum to the diagnostics total, and every test at
  // these small conditioning sizes dispatched to the batched kernel (the
  // default since ci_batching landed).
  std::uint64_t per_level = 0;
  for (std::size_t l = 0; l < series.device_count() * config.max_lag; ++l) {
    per_level += registry
                     .counter("mining_ci_tests_total",
                              {{"level", std::to_string(l)}})
                     .value();
  }
  EXPECT_EQ(per_level, diagnostics.tests_run);
  // Kernel-hit counters carry the active SIMD backend as a second label.
  const std::string backend(
      stats::simd::backend_name(stats::simd::chosen()));
  EXPECT_EQ(registry.counter("mining_ci_kernel_hits_total",
                             {{"kernel", "batched"}, {"backend", backend}})
                .value(),
            diagnostics.tests_run);
  EXPECT_EQ(registry.counter("mining_ci_kernel_hits_total",
                             {{"kernel", "packed"}, {"backend", backend}})
                .value(),
            0u);
  EXPECT_EQ(registry.counter("mining_ci_kernel_hits_total",
                             {{"kernel", "byte"}, {"backend", backend}})
                .value(),
            0u);
  // The batched kernel reports its sweep activity.
  EXPECT_GT(registry.counter("mining_ci_batch_passes_total").value(), 0u);
  // One CPT observation per device per snapshot.
  EXPECT_EQ(registry.counter("mining_cpt_updates_total").value(),
            graph.device_count() * (series.length() - config.max_lag));
}

TEST(TemporalPC, ChildCostsCoverEveryChildInOrder) {
  const StateSeries series = chain_series(500, 0.05, 9);
  MinerConfig config;
  config.max_lag = 1;
  config.threads = 4;
  const InteractionMiner miner(config);
  MiningDiagnostics diagnostics;
  miner.mine(series, &diagnostics);
  ASSERT_EQ(diagnostics.child_costs.size(), series.device_count());
  std::size_t tests = 0;
  for (std::size_t child = 0; child < series.device_count(); ++child) {
    const ChildCost& cost = diagnostics.child_costs[child];
    EXPECT_EQ(cost.child, child);
    EXPECT_GT(cost.tests, 0u);
    EXPECT_GE(cost.seconds, 0.0);
    tests += cost.tests;
  }
  EXPECT_EQ(tests, diagnostics.tests_run);
}

TEST(TemporalPC, CiBatchingOffDispatchesToPackedKernel) {
  const StateSeries series = chain_series(500, 0.05, 9);
  obs::Registry registry;
  MinerConfig config;
  config.max_lag = 1;
  config.ci_batching = false;
  config.metrics_registry = &registry;
  const InteractionMiner miner(config);
  MiningDiagnostics diagnostics;
  miner.mine(series, &diagnostics);
  ASSERT_GT(diagnostics.tests_run, 0u);
  const std::string backend(
      stats::simd::backend_name(stats::simd::chosen()));
  EXPECT_EQ(registry.counter("mining_ci_kernel_hits_total",
                             {{"kernel", "packed"}, {"backend", backend}})
                .value(),
            diagnostics.tests_run);
  EXPECT_EQ(registry.counter("mining_ci_kernel_hits_total",
                             {{"kernel", "batched"}, {"backend", backend}})
                .value(),
            0u);
  EXPECT_EQ(registry.counter("mining_ci_batch_passes_total").value(), 0u);
}

// A series with more lagged columns than a batched-CI memo key can
// address mines on the per-subset packed kernel even with batching on.
TEST(TemporalPC, UniverseBeyondMemoKeyMinesPerSubset) {
  constexpr std::size_t kDevices = 32768;  // 2 lags: 65,536 columns
  static_assert(kDevices * 2 >= stats::BatchCiContext::kMaxUniverse);
  util::Rng rng(41);
  StateSeries series(kDevices, std::vector<std::uint8_t>(kDevices, 0));
  double t = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    series.apply({0, static_cast<std::uint8_t>(rng.uniform(2)), t += 1});
    series.apply({1, series.state(0, series.length() - 1), t += 1});
  }
  obs::Registry registry;
  MinerConfig config;
  config.max_lag = 1;
  config.metrics_registry = &registry;
  MiningDiagnostics diagnostics;
  const auto causes =
      InteractionMiner(config).discover_causes(series, 1, &diagnostics);
  EXPECT_TRUE(has_cause(causes, 0));
  ASSERT_GT(diagnostics.tests_run, 0u);
  const std::string backend(
      stats::simd::backend_name(stats::simd::chosen()));
  EXPECT_EQ(registry.counter("mining_ci_kernel_hits_total",
                             {{"kernel", "packed"}, {"backend", backend}})
                .value(),
            diagnostics.tests_run);
  EXPECT_EQ(registry.counter("mining_ci_batch_passes_total").value(), 0u);

  config.ci_batching = false;
  EXPECT_EQ(InteractionMiner(config).discover_causes(series, 1), causes);
}

// MiningDiagnostics::child_costs breaks each child's run down by level:
// the levels' tests add up to the child's, the children's to tests_run,
// and a serial mine discards nothing (only a pool speculates).
TEST(TemporalPC, ChildCostLevelsAddUpAndSerialMineDiscardsNothing) {
  const StateSeries series = chain_series(2000, 0.05, 3);
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    MinerConfig config;
    config.max_lag = 2;
    config.threads = threads;
    MiningDiagnostics diagnostics;
    InteractionMiner(config).mine(series, &diagnostics);
    ASSERT_EQ(diagnostics.child_costs.size(), series.device_count());
    std::size_t tests = 0;
    std::size_t discarded = 0;
    for (const ChildCost& cost : diagnostics.child_costs) {
      ASSERT_FALSE(cost.levels.empty()) << "child " << cost.child;
      std::size_t level_tests = 0;
      for (const LevelCost& level : cost.levels) {
        level_tests += level.tests;
        discarded += level.discarded;
        EXPECT_GE(level.seconds, 0.0);
      }
      EXPECT_EQ(level_tests, cost.tests) << "child " << cost.child;
      tests += cost.tests;
    }
    EXPECT_EQ(tests, diagnostics.tests_run);
    EXPECT_EQ(discarded, diagnostics.discarded_tests());
    if (threads == 1) {
      EXPECT_EQ(diagnostics.discarded_tests(), 0u);
    }
  }
}

TEST(CauseSet, StartsFullInCanonicalOrder) {
  const CauseSet set(3, 2);
  EXPECT_EQ(set.size(), 6u);
  EXPECT_FALSE(set.empty());
  const std::vector<graph::LaggedNode> expected = {
      {0, 1}, {1, 1}, {2, 1}, {0, 2}, {1, 2}, {2, 2}};
  EXPECT_EQ(set.to_vector(), expected);
  for (const graph::LaggedNode& node : expected) {
    EXPECT_TRUE(set.contains(node));
  }
}

TEST(CauseSet, RemovePreservesOrderOfSurvivors) {
  CauseSet set(3, 2);
  set.remove({1, 1});
  set.remove({0, 2});
  EXPECT_EQ(set.size(), 4u);
  EXPECT_FALSE(set.contains({1, 1}));
  EXPECT_FALSE(set.contains({0, 2}));
  const std::vector<graph::LaggedNode> expected = {
      {0, 1}, {2, 1}, {1, 2}, {2, 2}};
  EXPECT_EQ(set.to_vector(), expected);

  std::vector<graph::LaggedNode> visited;
  set.for_each([&](graph::LaggedNode node) { visited.push_back(node); });
  EXPECT_EQ(visited, expected);
}

TEST(CauseSet, CanDrainCompletely) {
  CauseSet set(2, 1);
  set.remove({0, 1});
  set.remove({1, 1});
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.to_vector().empty());
}

TEST(CauseSet, CanonicalOrderMatchesLaggedNodeSort) {
  // The set's iteration order must equal LaggedNode's operator<=> order,
  // so discover_causes' final sort is a no-op rather than a reshuffle.
  const CauseSet set(4, 3);
  std::vector<graph::LaggedNode> sorted = set.to_vector();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, set.to_vector());
}

}  // namespace
}  // namespace causaliot::mining
