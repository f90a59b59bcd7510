// Interaction Miner (§V-B): the TemporalPC algorithm plus MLE CPT
// estimation.
//
// TemporalPC is a PC variant specialized for the temporal setting: the
// candidate causes of a present-time state S_i^t are all lagged states
// S_k^{t-l} (l in [1, tau]), every edge is oriented lagged -> present by
// construction (no Meek rules), and edges are pruned by level-wise
// G-square conditional-independence tests exactly as in Algorithm 1.
#pragma once

#include <cstddef>
#include <vector>

#include "causaliot/graph/dig.hpp"
#include "causaliot/obs/registry.hpp"
#include "causaliot/preprocess/series.hpp"
#include "causaliot/stats/gsquare.hpp"
#include "causaliot/util/thread_pool.hpp"

namespace causaliot::mining {

enum class CiTest : std::uint8_t {
  kGSquare,  // likelihood-ratio test, dof per stratum (the paper's choice)
  kCmh,      // Cochran–Mantel–Haenszel: pooled 1-dof stratified test,
             // more power on sparse strata, direction-consistent effects
};

struct MinerConfig {
  /// Maximum time lag tau (>= 1).
  std::size_t max_lag = 2;
  /// Significance threshold alpha for the G-square p-value: the edge is
  /// removed (variables judged independent) when p > alpha. The paper uses
  /// 0.001 for stringent tests.
  double alpha = 0.001;
  /// Forwarded to the G-square test; 0 disables the small-sample guard.
  double min_samples_per_dof = 0.0;
  /// Optional cap on the conditioning-set size l (scalability escape
  /// hatch, §V-D); the default runs Algorithm 1's natural termination.
  std::size_t max_condition_size = static_cast<std::size_t>(-1);
  /// PC-stable variant (Colombo & Maathuis): removal decisions within one
  /// level are computed against the level-start cause set and applied at
  /// the end of the level, making the skeleton independent of the order
  /// in which parents are tested. Algorithm 1 as printed removes
  /// immediately (the default).
  bool stable = false;
  /// Conditional-independence test statistic.
  CiTest ci_test = CiTest::kGSquare;
  /// Batched multi-subset CI counting (stats::BatchCiContext): memoizes
  /// column-intersection counts across the conditioning subsets of a
  /// level and assembles stratum tables by exact-integer lattice
  /// marginalization, so statistics, p-values, and the final DIG are
  /// bit-identical to the per-subset kernels. Applies at levels the
  /// packed kernel covers (l <= stats::kPackedConditioningLimit); deeper
  /// levels fall back to the per-row kernel either way, and so does a
  /// series with device_count * (max_lag + 1) >=
  /// stats::BatchCiContext::kMaxUniverse lagged columns. Off = always use
  /// the per-subset kernels (--ci-batch=0 escape hatch).
  bool ci_batching = true;
  /// Worker threads for mine(): children are discovered in parallel (each
  /// child's Algorithm 1 run is independent, so the result is identical to
  /// the serial run). 1 = serial; 0 = hardware concurrency.
  std::size_t threads = 1;
  /// Registry receiving mining metrics: CI tests per conditioning level
  /// (mining_ci_tests_total{level}), kernel dispatch with the active SIMD
  /// backend (mining_ci_kernel_hits_total{kernel,backend}), and CPT counts
  /// (mining_cpt_updates_total). nullptr uses obs::Registry::global().
  /// Counters are accumulated locally and flushed once per child, so the
  /// registry mutex never sits on the per-test path.
  obs::Registry* metrics_registry = nullptr;
};

/// Why a candidate edge was removed — the paper distinguishes marginally
/// independent candidates from spurious interactions explained away by a
/// conditioning set (intermediate factor / common cause).
struct RemovalRecord {
  graph::LaggedNode cause;
  telemetry::DeviceId child = telemetry::kInvalidDevice;
  /// Size of the separating set (0 = marginally independent).
  std::size_t condition_size = 0;
  double p_value = 1.0;
  std::vector<graph::LaggedNode> separating_set;
};

/// Cost of one conditioning level of one child's run.
struct LevelCost {
  /// CI tests counted: the tests the serial walk runs.
  std::size_t tests = 0;
  /// Tests evaluated speculatively past a parent's deciding subset and
  /// thrown away. Always 0 without a pool; never part of `tests`.
  std::size_t discarded = 0;
  /// Wall time of the level (non-deterministic).
  double seconds = 0.0;
};

/// Cost of one child's Algorithm 1 run: where mining time goes.
struct ChildCost {
  telemetry::DeviceId child = telemetry::kInvalidDevice;
  /// CI tests run for this child, over all levels.
  std::size_t tests = 0;
  /// Wall time of the run. Seconds and discarded tests are the only
  /// diagnostics that depend on the schedule.
  double seconds = 0.0;
  /// One entry per level the run reached, indexed by conditioning size.
  std::vector<LevelCost> levels;
  /// Bytes the run's batched-CI memo held at its end
  /// (stats::BatchCiContext::resident_bytes); 0 without batching.
  std::size_t memo_bytes = 0;
};

struct MiningDiagnostics {
  std::size_t tests_run = 0;
  std::size_t candidate_edges = 0;
  std::vector<RemovalRecord> removals;
  /// One entry per discovered child, in child order.
  std::vector<ChildCost> child_costs;

  std::size_t removed_marginal() const;
  std::size_t removed_conditional() const;
  /// Speculative tests thrown away over every child and level.
  std::size_t discarded_tests() const;
};

class InteractionMiner {
 public:
  explicit InteractionMiner(MinerConfig config = {});

  const MinerConfig& config() const { return config_; }

  /// Algorithm 1 for a single outcome: returns Ca(S_child^t).
  std::vector<graph::LaggedNode> discover_causes(
      const preprocess::StateSeries& series, telemetry::DeviceId child,
      MiningDiagnostics* diagnostics = nullptr) const;

  /// Full DIG construction: skeleton for every device + CPT estimation.
  /// With config().threads != 1 the per-child discovery runs on a worker
  /// pool; skeleton, CPTs, and diagnostics (merged in child order) are
  /// bit-identical to the serial run. Pass `pool` to reuse an existing
  /// pool across mines (its size then overrides config().threads).
  graph::InteractionGraph mine(const preprocess::StateSeries& series,
                               MiningDiagnostics* diagnostics = nullptr,
                               util::ThreadPool* pool = nullptr) const;

  /// MLE CPT estimation over all snapshots (counts of child state per
  /// cause assignment). Adds on top of any existing counts; mine() calls
  /// it exactly once on fresh tables. Per-child tables are independent
  /// (each worker touches only its child's Cpt), so with a pool — or
  /// config().threads != 1, which spins one up — counts are bit-identical
  /// to the serial pass.
  void estimate_cpts(const preprocess::StateSeries& series,
                     graph::InteractionGraph& graph,
                     util::ThreadPool* pool = nullptr) const;

  /// Online adaptation to behavioural drift (the paper's main source of
  /// false alarms): decays the existing CPT counts by `forget_factor`
  /// and folds in fresh observations from `series`, keeping the skeleton
  /// fixed. forget_factor = 1 keeps all history. Parallelizes like
  /// estimate_cpts.
  void update_cpts(const preprocess::StateSeries& series,
                   graph::InteractionGraph& graph,
                   double forget_factor = 0.9,
                   util::ThreadPool* pool = nullptr) const;

 private:
  MinerConfig config_;
};

}  // namespace causaliot::mining
