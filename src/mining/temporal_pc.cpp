#include "causaliot/mining/temporal_pc.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "causaliot/mining/cause_set.hpp"
#include "causaliot/obs/trace.hpp"
#include "causaliot/stats/batch_ci.hpp"
#include "causaliot/stats/cmh.hpp"
#include "causaliot/util/check.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::mining {

namespace {

obs::Registry& metrics_for(const MinerConfig& config) {
  return config.metrics_registry != nullptr ? *config.metrics_registry
                                            : obs::Registry::global();
}

// Which counting kernel served a level's CI tests.
enum class Kernel : std::uint8_t { kPacked, kByte, kBatched };

// Per-child CI-test tallies, flushed to the registry in one batch after
// the child's Algorithm 1 run so workers never contend on the registry
// mutex mid-level.
struct ChildTally {
  std::vector<std::uint64_t> tests_per_level;
  std::uint64_t packed_tests = 0;
  std::uint64_t byte_tests = 0;
  std::uint64_t batched_tests = 0;
  std::uint64_t batch_passes = 0;

  void note_level(std::size_t level, std::uint64_t tests, Kernel kernel) {
    if (tests == 0) return;
    if (tests_per_level.size() <= level) tests_per_level.resize(level + 1);
    tests_per_level[level] += tests;
    switch (kernel) {
      case Kernel::kPacked: packed_tests += tests; break;
      case Kernel::kByte: byte_tests += tests; break;
      case Kernel::kBatched: batched_tests += tests; break;
    }
  }

  void flush(obs::Registry& registry) const {
    static constexpr const char* kKernelHelp =
        "CI tests dispatched to the bit-packed, per-row, or batched kernel, "
        "by active SIMD backend";
    // The backend label carries the SIMD dispatch choice (scalar/avx2/
    // avx512/neon) so fleet dashboards can tell which kernel ISA actually
    // served the tests — a regression to scalar on a wide host is visible
    // as a label flip, not a silent slowdown.
    const std::string backend(
        stats::simd::backend_name(stats::simd::chosen()));
    for (std::size_t l = 0; l < tests_per_level.size(); ++l) {
      if (tests_per_level[l] == 0) continue;
      registry
          .counter("mining_ci_tests_total", {{"level", std::to_string(l)}},
                   "Conditional-independence tests per conditioning-set size")
          .add(tests_per_level[l]);
    }
    if (packed_tests > 0) {
      registry
          .counter("mining_ci_kernel_hits_total",
                   {{"kernel", "packed"}, {"backend", backend}}, kKernelHelp)
          .add(packed_tests);
    }
    if (byte_tests > 0) {
      registry
          .counter("mining_ci_kernel_hits_total",
                   {{"kernel", "byte"}, {"backend", backend}}, kKernelHelp)
          .add(byte_tests);
    }
    if (batched_tests > 0) {
      registry
          .counter("mining_ci_kernel_hits_total",
                   {{"kernel", "batched"}, {"backend", backend}}, kKernelHelp)
          .add(batched_tests);
    }
    if (batch_passes > 0) {
      registry
          .counter("mining_ci_batch_passes_total", {},
                   "Word passes executed by the batched CI counting kernel")
          .add(batch_passes);
    }
  }
};

// Enumerates all k-combinations of {0, ..., n-1}; calls fn(indices) for
// each. Returns false early if fn returns false ("stop enumeration").
template <typename Fn>
bool for_each_combination(std::size_t n, std::size_t k, Fn&& fn) {
  if (k > n) return true;
  std::vector<std::size_t> indices(k);
  for (std::size_t i = 0; i < k; ++i) indices[i] = i;
  while (true) {
    if (!fn(indices)) return false;
    // Advance to the next combination in lexicographic order.
    std::size_t i = k;
    while (i > 0) {
      --i;
      if (indices[i] != i + n - k) {
        ++indices[i];
        for (std::size_t j = i + 1; j < k; ++j) {
          indices[j] = indices[j - 1] + 1;
        }
        break;
      }
      if (i == 0) return true;  // last combination done
    }
    if (k == 0) return true;  // single empty combination
  }
}

// Raw spans plus bit-packed forms of every lagged column the CI tests can
// ask for, all aligned to first_snapshot = tau. Built once per mine() and
// shared read-only across worker threads; index (lag, device) with lag 0
// holding the present-time (child) columns.
struct ColumnCache {
  std::size_t device_count = 0;
  std::vector<std::span<const std::uint8_t>> raw;
  std::vector<stats::PackedColumn> packed;

  ColumnCache(const preprocess::StateSeries& series, std::size_t tau) {
    device_count = series.device_count();
    const std::size_t column_count = device_count * (tau + 1);
    raw.reserve(column_count);
    packed.reserve(column_count);
    for (std::uint32_t lag = 0; lag <= tau; ++lag) {
      for (telemetry::DeviceId device = 0; device < device_count; ++device) {
        raw.push_back(series.lagged_column(device, lag, tau));
        packed.emplace_back(raw.back());
      }
    }
  }

  std::size_t index_of(telemetry::DeviceId device, std::uint32_t lag) const {
    return static_cast<std::size_t>(lag) * device_count + device;
  }
  std::span<const std::uint8_t> raw_of(graph::LaggedNode node) const {
    return raw[index_of(node.device, node.lag)];
  }
  const stats::PackedColumn& packed_of(graph::LaggedNode node) const {
    return packed[index_of(node.device, node.lag)];
  }
};

// One Algorithm 1 run for a single child against a prebuilt column cache,
// reusing `context`'s scratch across every CI test.
std::vector<graph::LaggedNode> discover_causes_cached(
    const MinerConfig& config, const preprocess::StateSeries& series,
    telemetry::DeviceId child, MiningDiagnostics* diagnostics,
    const ColumnCache& cache, stats::CiTestContext& context) {
  const auto started = std::chrono::steady_clock::now();
  const std::size_t n = series.device_count();
  const std::size_t tau = config.max_lag;
  CAUSALIOT_CHECK(child < n);
  CAUSALIOT_CHECK_MSG(series.length() > tau,
                      "series shorter than the maximum lag");

  // Line 5: the preliminary cause set is every lagged state, and every
  // edge is already oriented lagged -> present.
  CauseSet causes(n, tau);
  if (diagnostics != nullptr) diagnostics->candidate_edges += causes.size();

  const auto child_raw = cache.raw_of({child, 0});
  const stats::PackedColumn& child_packed = cache.packed_of({child, 0});
  const stats::GSquareOptions test_options{config.min_samples_per_dof};

  std::vector<graph::LaggedNode> pool;
  std::vector<std::span<const std::uint8_t>> z_columns;
  std::vector<const stats::PackedColumn*> z_packed;
  std::vector<stats::ColumnId> z_ids;
  ChildTally tally;

  // Batched CI counting: one lattice context per Algorithm 1 run, bound
  // to the child's present-time column, so intersection counts memoize
  // across every subset of a level and across levels (a level-l test
  // reuses the quads its sub-subsets counted at levels < l).
  std::optional<stats::BatchCiContext> batch;
  if (config.ci_batching) {
    batch.emplace(std::span<const stats::PackedColumn>(cache.packed),
                  static_cast<stats::ColumnId>(cache.index_of(child, 0)));
  }

  // Lines 6-21: level-wise conditional-independence pruning.
  std::size_t l = 0;
  while (l <= n * tau) {
    // Line 9: terminate once no conditioning set of size l can be formed.
    if (causes.size() < l + 1) break;
    if (l > config.max_condition_size) break;
    // The packed kernel's per-word cost is O(2^l); beyond the crossover it
    // loses to the per-row kernel, so fall back to raw spans. The batched
    // kernel shares the packed kernel's depth cutoff.
    const bool use_packed = l <= stats::kPackedConditioningLimit;
    const bool use_batched = batch.has_value() && use_packed;

    // One span per (child, level): the unit the trace groups mining time
    // by. Constructed only when tracing is on so the serial hot loop never
    // pays for the args string.
    std::optional<obs::Span> level_span;
    if (obs::Tracer::global().enabled()) {
      level_span.emplace(
          "tpc.level",
          util::format("\"child\": %u, \"level\": %zu",
                       static_cast<unsigned>(child), l),
          "mine");
    }
    std::uint64_t level_tests = 0;

    // Iterate over a fixed copy of the current parents. In Algorithm 1's
    // printed form removals take effect immediately; the PC-stable
    // variant defers them to the end of the level so conditioning pools
    // are order-independent.
    const std::vector<graph::LaggedNode> parents_at_level = causes.to_vector();
    std::vector<graph::LaggedNode> deferred_removals;

    // Level 0 tests every candidate's marginal table, so warm them all in
    // multi-key passes (several parents counted per sweep over the words)
    // before the per-parent loop consumes them.
    if (use_batched && l == 0) {
      z_ids.clear();
      for (const graph::LaggedNode& parent : parents_at_level) {
        z_ids.push_back(static_cast<stats::ColumnId>(
            cache.index_of(parent.device, parent.lag)));
      }
      std::optional<obs::Span> batch_span;
      if (obs::Tracer::global().enabled()) {
        batch_span.emplace(
            "tpc.ci_batch",
            util::format("\"child\": %u, \"parents\": %zu",
                         static_cast<unsigned>(child), z_ids.size()),
            "mine");
      }
      batch->prepare_marginals(z_ids);
    }
    for (const graph::LaggedNode& parent : parents_at_level) {
      // The parent may have been removed while testing an earlier one.
      if (!causes.contains(parent)) continue;

      // Candidate conditioning variables: the current causes (or, for
      // PC-stable, the level-start causes) minus the parent.
      pool.clear();
      if (config.stable) {
        for (const graph::LaggedNode& c : parents_at_level) {
          if (!(c == parent)) pool.push_back(c);
        }
      } else {
        causes.for_each([&](graph::LaggedNode c) {
          if (!(c == parent)) pool.push_back(c);
        });
      }
      if (pool.size() < l) continue;

      bool removed = false;
      for_each_combination(pool.size(), l, [&](const std::vector<std::size_t>&
                                                   subset) {
        stats::GSquareResult test;
        if (use_batched) {
          z_ids.clear();
          for (std::size_t index : subset) {
            z_ids.push_back(static_cast<stats::ColumnId>(
                cache.index_of(pool[index].device, pool[index].lag)));
          }
          const auto x_id = static_cast<stats::ColumnId>(
              cache.index_of(parent.device, parent.lag));
          if (config.ci_test == CiTest::kCmh) {
            const stats::CmhResult cmh = stats::cmh_test(*batch, x_id, z_ids);
            test.statistic = cmh.statistic;
            test.p_value = cmh.p_value;
            test.sample_count = cmh.sample_count;
            test.dof = 1.0;
          } else {
            test = stats::g_square_test(*batch, x_id, z_ids, test_options);
          }
        } else if (use_packed) {
          z_packed.clear();
          z_packed.reserve(l);
          for (std::size_t index : subset) {
            z_packed.push_back(&cache.packed_of(pool[index]));
          }
          if (config.ci_test == CiTest::kCmh) {
            const stats::CmhResult cmh = stats::cmh_test(
                cache.packed_of(parent), child_packed, z_packed, context);
            test.statistic = cmh.statistic;
            test.p_value = cmh.p_value;
            test.sample_count = cmh.sample_count;
            test.dof = 1.0;
          } else {
            test = stats::g_square_test(cache.packed_of(parent), child_packed,
                                        z_packed, test_options, context);
          }
        } else {
          z_columns.clear();
          z_columns.reserve(l);
          for (std::size_t index : subset) {
            z_columns.push_back(cache.raw_of(pool[index]));
          }
          if (config.ci_test == CiTest::kCmh) {
            const stats::CmhResult cmh = stats::cmh_test(
                cache.raw_of(parent), child_raw, z_columns, context);
            test.statistic = cmh.statistic;
            test.p_value = cmh.p_value;
            test.sample_count = cmh.sample_count;
            test.dof = 1.0;
          } else {
            test = stats::g_square_test(cache.raw_of(parent), child_raw,
                                        z_columns, test_options, context);
          }
        }
        ++level_tests;
        if (diagnostics != nullptr) ++diagnostics->tests_run;
        // A test skipped for insufficient samples carries no evidence of
        // independence — only a *valid* test may remove the edge.
        if (test.p_value > config.alpha && !test.skipped_insufficient_data) {
          // Independent given this set: remove the edge (Line 16).
          if (diagnostics != nullptr) {
            RemovalRecord record;
            record.cause = parent;
            record.child = child;
            record.condition_size = l;
            record.p_value = test.p_value;
            for (std::size_t index : subset) {
              record.separating_set.push_back(pool[index]);
            }
            diagnostics->removals.push_back(std::move(record));
          }
          removed = true;
          return false;  // stop enumerating subsets for this parent
        }
        return true;
      });
      if (removed) {
        if (config.stable) {
          deferred_removals.push_back(parent);
        } else {
          causes.remove(parent);
        }
      }
    }
    for (const graph::LaggedNode& parent : deferred_removals) {
      causes.remove(parent);
    }
    tally.note_level(l, level_tests,
                     use_batched ? Kernel::kBatched
                                 : use_packed ? Kernel::kPacked : Kernel::kByte);
    ++l;
  }
  if (batch.has_value()) tally.batch_passes = batch->pass_count();
  tally.flush(metrics_for(config));
  if (diagnostics != nullptr) {
    ChildCost cost;
    cost.child = child;
    for (const std::uint64_t tests : tally.tests_per_level) {
      cost.tests += static_cast<std::size_t>(tests);
    }
    cost.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();
    diagnostics->child_costs.push_back(cost);
  }

  // CauseSet iterates lag-major, which is already LaggedNode's canonical
  // order; the sort stays as a belt-and-braces invariant.
  std::vector<graph::LaggedNode> result = causes.to_vector();
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace

std::size_t MiningDiagnostics::removed_marginal() const {
  return static_cast<std::size_t>(
      std::count_if(removals.begin(), removals.end(),
                    [](const RemovalRecord& r) {
                      return r.condition_size == 0;
                    }));
}

std::size_t MiningDiagnostics::removed_conditional() const {
  return removals.size() - removed_marginal();
}

InteractionMiner::InteractionMiner(MinerConfig config) : config_(config) {
  CAUSALIOT_CHECK_MSG(config_.max_lag >= 1, "max_lag must be >= 1");
  CAUSALIOT_CHECK_MSG(config_.alpha > 0.0 && config_.alpha < 1.0,
                      "alpha must be in (0, 1)");
}

std::vector<graph::LaggedNode> InteractionMiner::discover_causes(
    const preprocess::StateSeries& series, telemetry::DeviceId child,
    MiningDiagnostics* diagnostics) const {
  CAUSALIOT_CHECK_MSG(series.length() > config_.max_lag,
                      "series shorter than the maximum lag");
  const ColumnCache cache(series, config_.max_lag);
  stats::CiTestContext context;
  return discover_causes_cached(config_, series, child, diagnostics, cache,
                                context);
}

graph::InteractionGraph InteractionMiner::mine(
    const preprocess::StateSeries& series, MiningDiagnostics* diagnostics,
    util::ThreadPool* pool) const {
  const std::size_t n = series.device_count();
  graph::InteractionGraph graph(n, config_.max_lag);
  CAUSALIOT_CHECK_MSG(series.length() > config_.max_lag,
                      "series shorter than the maximum lag");
  std::optional<obs::Span> columns_span;
  if (obs::Tracer::global().enabled()) {
    columns_span.emplace("mine.columns", "mine");
  }
  const ColumnCache cache(series, config_.max_lag);
  columns_span.reset();

  // Each child's discovery is independent: workers write only their own
  // slot, so any schedule produces the serial result. Diagnostics are
  // collected per child and merged in child order below — the exact
  // sequence the serial loop would have appended.
  std::vector<std::vector<graph::LaggedNode>> causes_per_child(n);
  std::vector<MiningDiagnostics> diagnostics_per_child(
      diagnostics != nullptr ? n : 0);

  std::optional<util::ThreadPool> own_pool;
  if (pool == nullptr && util::resolve_thread_count(config_.threads) > 1) {
    own_pool.emplace(config_.threads);
    pool = &*own_pool;
  }
  util::parallel_for(pool, 0, n, [&](std::size_t child) {
    // Worker attribution: the span lands in the executing thread's buffer,
    // so the trace shows which pool worker mined which child.
    std::optional<obs::Span> child_span;
    if (obs::Tracer::global().enabled()) {
      child_span.emplace("tpc.child", util::format("\"child\": %zu", child),
                         "mine");
    }
    stats::CiTestContext context;
    causes_per_child[child] = discover_causes_cached(
        config_, series, static_cast<telemetry::DeviceId>(child),
        diagnostics != nullptr ? &diagnostics_per_child[child] : nullptr,
        cache, context);
  });
#if defined(__GLIBC__)
  // Hand the fan-out's freed scratch back to the OS. The workers
  // allocate each child's CI scratch (the batched-CI memo, about 5.7k
  // entries and 2.5k masks for the heaviest child of the 28-day
  // ContextAct trace, plus the counting buffers) from glibc's
  // per-thread arenas. The main thread's growing vectors raise the
  // dynamic mmap threshold to about 8 MB, and with it the trim
  // threshold, so those arenas never shrink on their own: after 12
  // train runs each of 4 worker arenas held about 7.8 MB, over 99%
  // free, and process RSS crept up about 3.5 MB per run to about 56 MB.
  // One trim here held the peak at about 37 MB.
  malloc_trim(0);
#endif

  for (telemetry::DeviceId child = 0; child < n; ++child) {
    graph.set_causes(child, std::move(causes_per_child[child]));
    if (diagnostics != nullptr) {
      MiningDiagnostics& local = diagnostics_per_child[child];
      diagnostics->tests_run += local.tests_run;
      diagnostics->candidate_edges += local.candidate_edges;
      diagnostics->removals.insert(
          diagnostics->removals.end(),
          std::make_move_iterator(local.removals.begin()),
          std::make_move_iterator(local.removals.end()));
      diagnostics->child_costs.insert(diagnostics->child_costs.end(),
                                      local.child_costs.begin(),
                                      local.child_costs.end());
    }
  }
  estimate_cpts(series, graph, pool);
  return graph;
}

void InteractionMiner::estimate_cpts(const preprocess::StateSeries& series,
                                     graph::InteractionGraph& graph,
                                     util::ThreadPool* pool) const {
  const std::size_t tau = config_.max_lag;
  CAUSALIOT_CHECK(series.length() > tau);
  CAUSALIOT_CHECK(graph.device_count() == series.device_count());
  obs::Span cpt_span("mine.cpt", "mine");

  std::optional<util::ThreadPool> own_pool;
  if (pool == nullptr && util::resolve_thread_count(config_.threads) > 1) {
    own_pool.emplace(config_.threads);
    pool = &*own_pool;
  }
  // One task per child: each touches only its own Cpt, and within a child
  // the snapshots are walked in serial order, so the counts match the
  // serial pass bit-for-bit under any schedule.
  util::parallel_for(pool, 0, graph.device_count(), [&](std::size_t c) {
    std::optional<obs::Span> child_span;
    if (obs::Tracer::global().enabled()) {
      child_span.emplace("cpt.child", util::format("\"child\": %zu", c),
                         "mine");
    }
    const auto child = static_cast<telemetry::DeviceId>(c);
    graph::Cpt& cpt = graph.cpt(child);
    const std::size_t cause_count = cpt.cause_count();

    // Fast path for a fresh table with a small key space: accumulate
    // integer counts in a dense local array and install each assignment
    // once. Counts are exact integers either way, so the resulting
    // doubles match the per-row observe() path bit for bit — but only
    // from zero; a pre-scaled table (update_cpts) accumulates doubles
    // row by row, whose rounding the batch sum would not reproduce.
    constexpr std::size_t kDenseCptCauseLimit = 10;
    if (cpt.assignment_count() == 0 && cause_count <= kDenseCptCauseLimit) {
      const std::size_t rows = series.length() - tau;
      std::vector<std::span<const std::uint8_t>> columns;
      columns.reserve(cause_count);
      for (const graph::LaggedNode& cause : cpt.causes()) {
        columns.push_back(series.lagged_column(cause.device, cause.lag, tau));
      }
      const auto child_column = series.lagged_column(child, 0, tau);
      // Validate once per column so the gather loop can index unchecked.
      std::uint8_t bad = 0;
      for (std::size_t r = 0; r < rows; ++r) bad |= child_column[r] >> 1;
      for (const auto& column : columns) {
        for (std::size_t r = 0; r < rows; ++r) bad |= column[r] >> 1;
      }
      CAUSALIOT_CHECK_MSG(bad == 0, "non-binary state value");
      std::vector<std::uint64_t> local((std::size_t{2} << cause_count), 0);
      for (std::size_t r = 0; r < rows; ++r) {
        std::uint64_t key = 0;
        for (std::size_t i = 0; i < cause_count; ++i) {
          key |= static_cast<std::uint64_t>(columns[i][r]) << i;
        }
        ++local[key * 2 + child_column[r]];
      }
      for (std::uint64_t key = 0; key * 2 < local.size(); ++key) {
        const std::uint64_t count0 = local[key * 2];
        const std::uint64_t count1 = local[key * 2 + 1];
        if (count0 == 0 && count1 == 0) continue;
        cpt.set_counts(key, static_cast<double>(count0),
                       static_cast<double>(count1));
      }
      return;
    }

    std::vector<std::uint8_t> cause_values;
    for (std::size_t j = tau; j < series.length(); ++j) {
      cause_values.clear();
      for (const graph::LaggedNode& cause : cpt.causes()) {
        cause_values.push_back(series.state(cause.device, j - cause.lag));
      }
      cpt.observe(cpt.pack(cause_values), series.state(child, j));
    }
  });
  metrics_for(config_)
      .counter("mining_cpt_updates_total", {},
               "CPT observations folded in by estimate_cpts / update_cpts")
      .add(static_cast<std::uint64_t>(graph.device_count()) *
           (series.length() - tau));
}

void InteractionMiner::update_cpts(const preprocess::StateSeries& series,
                                   graph::InteractionGraph& graph,
                                   double forget_factor,
                                   util::ThreadPool* pool) const {
  for (telemetry::DeviceId child = 0; child < graph.device_count(); ++child) {
    graph.cpt(child).scale(forget_factor);
  }
  estimate_cpts(series, graph, pool);
}

}  // namespace causaliot::mining
