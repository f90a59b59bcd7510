#include "causaliot/mining/temporal_pc.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "causaliot/mining/cause_set.hpp"
#include "causaliot/obs/trace.hpp"
#include "causaliot/stats/batch_ci.hpp"
#include "causaliot/stats/cmh.hpp"
#include "causaliot/util/check.hpp"
#include "causaliot/util/find_first.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::mining {

namespace {

obs::Registry& metrics_for(const MinerConfig& config) {
  return config.metrics_registry != nullptr ? *config.metrics_registry
                                            : obs::Registry::global();
}

// Which counting kernel served a level's CI tests.
enum class Kernel : std::uint8_t { kPacked, kByte, kBatched };

// Per-child kernel tallies, flushed to the registry in one batch with
// the child's per-level test counts after its Algorithm 1 run, so
// workers never contend on the registry mutex mid-level.
struct ChildTally {
  std::uint64_t packed_tests = 0;
  std::uint64_t byte_tests = 0;
  std::uint64_t batched_tests = 0;
  std::uint64_t batch_passes = 0;

  void note_level(std::uint64_t tests, Kernel kernel) {
    switch (kernel) {
      case Kernel::kPacked: packed_tests += tests; break;
      case Kernel::kByte: byte_tests += tests; break;
      case Kernel::kBatched: batched_tests += tests; break;
    }
  }

  void flush(obs::Registry& registry,
             std::span<const LevelCost> levels) const {
    static constexpr const char* kKernelHelp =
        "CI tests dispatched to the bit-packed, per-row, or batched kernel, "
        "by active SIMD backend";
    // The backend label carries the SIMD dispatch choice (scalar/avx2/
    // avx512/neon) so fleet dashboards can tell which kernel ISA actually
    // served the tests — a regression to scalar on a wide host is visible
    // as a label flip, not a silent slowdown.
    const std::string backend(
        stats::simd::backend_name(stats::simd::chosen()));
    for (std::size_t l = 0; l < levels.size(); ++l) {
      if (levels[l].tests == 0) continue;
      registry
          .counter("mining_ci_tests_total", {{"level", std::to_string(l)}},
                   "Conditional-independence tests per conditioning-set size")
          .add(levels[l].tests);
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

// Lexicographic k-subsets of {0, ..., m-1}, as ascending index vectors.
// C(m, k), saturating at kSaturated: a walk that long never finishes,
// but its first subsets can still decide a parent.
constexpr std::uint64_t kSaturated = ~std::uint64_t{0};

std::uint64_t binomial(std::size_t m, std::size_t k) {
  if (k > m) return 0;
  k = std::min(k, m - k);
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < k; ++i) {
    // C(m, i + 1) = C(m, i) * (m - i) / (i + 1). Dividing first by the
    // common factor keeps the product exact: it overflows only when
    // C(m, i + 1) itself does.
    const std::uint64_t common = std::gcd(result, i + 1);
    const std::uint64_t factor = (m - i) / ((i + 1) / common);
    if (__builtin_mul_overflow(result / common, factor, &result) ||
        result == kSaturated) {
      return kSaturated;
    }
  }
  return result;
}

// Fills `subset` with the k-subset of lexicographic rank `rank`. Exact
// even when some C(.) saturates: a saturated count exceeds any rank, and
// only counts below the rank are subtracted.
void unrank_subset(std::uint64_t rank, std::size_t m,
                   std::vector<std::size_t>& subset) {
  const std::size_t k = subset.size();
  if (rank == 0) {  // every serial walk starts here
    for (std::size_t i = 0; i < k; ++i) subset[i] = i;
    return;
  }
  std::size_t candidate = 0;
  for (std::size_t i = 0; i < k; ++i, ++candidate) {
    while (true) {
      const std::uint64_t with = binomial(m - candidate - 1, k - i - 1);
      if (rank < with) break;
      rank -= with;
      ++candidate;
    }
    subset[i] = candidate;
  }
}

// Advances `subset` to its lexicographic successor and returns the
// position of the first index that changed (every index before it is
// unchanged), or subset.size() when `subset` was the last one.
std::size_t next_subset(std::vector<std::size_t>& subset, std::size_t m) {
  const std::size_t k = subset.size();
  std::size_t i = k;
  while (i > 0) {
    --i;
    if (subset[i] != i + m - k) {
      ++subset[i];
      for (std::size_t j = i + 1; j < k; ++j) subset[j] = subset[j - 1] + 1;
      return i;
    }
  }
  return k;
}

// Per-thread scratch of one subset walk: the CI context (whose depth
// stack carries the prefix reuse) and the subset's column lists.
struct WalkScratch {
  stats::CiTestContext context;
  std::vector<std::size_t> subset;
  std::vector<std::span<const std::uint8_t>> z_columns;
  std::vector<const stats::PackedColumn*> z_packed;
  std::vector<stats::ColumnId> z_ids;
};

// The walk scratch of one mine(), built up front for every thread that
// can walk at once (the pool's workers plus the caller). A chunk walk
// leases one and hands it back, so a worker that joins another child's
// walk brings its scratch along without allocating, and no test
// allocates. Leasing takes a mutex once per chunk, never per test.
class ScratchPool {
 public:
  explicit ScratchPool(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      idle_.push_back(std::make_unique<WalkScratch>());
    }
  }

  class Lease {
   public:
    explicit Lease(ScratchPool& owner) : owner_(owner) {
      const std::lock_guard<std::mutex> lock(owner_.mutex_);
      if (owner_.idle_.empty()) {
        scratch_ = std::make_unique<WalkScratch>();
      } else {
        scratch_ = std::move(owner_.idle_.back());
        owner_.idle_.pop_back();
      }
    }
    ~Lease() {
      const std::lock_guard<std::mutex> lock(owner_.mutex_);
      owner_.idle_.push_back(std::move(scratch_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    WalkScratch& operator*() const { return *scratch_; }

   private:
    ScratchPool& owner_;
    std::unique_ptr<WalkScratch> scratch_;
  };

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<WalkScratch>> idle_;
};

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

// One Algorithm 1 run for a single child against a prebuilt column cache.
// Every parent's subsets go through one chunk walk. Levels the packed
// kernels cover walk serially, on the child's BatchCiContext memo when
// batching is on. Deeper levels use the per-row kernel with prefix
// reuse, and with a pool each parent's walk speculates in order
// (util::parallel_find_first), so workers that are done with their own
// children join a heavy one. Either way the tests counted, the removals
// and the causes are those of the serial walk.
std::vector<graph::LaggedNode> discover_causes_cached(
    const MinerConfig& config, const preprocess::StateSeries& series,
    telemetry::DeviceId child, MiningDiagnostics* diagnostics,
    const ColumnCache& cache, ScratchPool& scratch, util::ThreadPool* pool) {
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
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

  std::vector<graph::LaggedNode> candidates;
  std::vector<stats::ColumnId> marginal_ids;
  std::vector<std::size_t> separating;
  ChildTally tally;
  ChildCost cost;
  cost.child = child;

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
    const auto level_started = Clock::now();
    // The packed kernel's per-word cost is O(2^l); beyond the crossover it
    // loses to the per-row kernel, so fall back to raw spans. The batched
    // kernel shares the packed kernel's depth cutoff. Only the per-row
    // levels speculate: a speculating worker would need its own memo.
    const bool use_packed = l <= stats::kPackedConditioningLimit;
    const bool use_batched = batch.has_value() && use_packed;
    util::ThreadPool* const search_pool = use_packed ? nullptr : pool;

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
    LevelCost level;

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
      marginal_ids.clear();
      for (const graph::LaggedNode& parent : parents_at_level) {
        marginal_ids.push_back(static_cast<stats::ColumnId>(
            cache.index_of(parent.device, parent.lag)));
      }
      std::optional<obs::Span> batch_span;
      if (obs::Tracer::global().enabled()) {
        batch_span.emplace(
            "tpc.ci_batch",
            util::format("\"child\": %u, \"parents\": %zu",
                         static_cast<unsigned>(child), marginal_ids.size()),
            "mine");
      }
      batch->prepare_marginals(marginal_ids);
    }
    for (const graph::LaggedNode& parent : parents_at_level) {
      // The parent may have been removed while testing an earlier one.
      if (!causes.contains(parent)) continue;

      // Candidate conditioning variables: the current causes (or, for
      // PC-stable, the level-start causes) minus the parent.
      candidates.clear();
      if (config.stable) {
        for (const graph::LaggedNode& c : parents_at_level) {
          if (!(c == parent)) candidates.push_back(c);
        }
      } else {
        causes.for_each([&](graph::LaggedNode c) {
          if (!(c == parent)) candidates.push_back(c);
        });
      }
      if (candidates.size() < l) continue;

      const auto x_id = static_cast<stats::ColumnId>(
          cache.index_of(parent.device, parent.lag));
      // The CI test of the subset in `s.subset`. `reuse` is the prefix
      // depth the walk kept since its previous test (per-row kernel only).
      const auto run_test = [&](WalkScratch& s, std::size_t reuse) {
        stats::GSquareResult test;
        stats::CmhResult cmh;
        const bool use_cmh = config.ci_test == CiTest::kCmh;
        if (use_batched) {
          s.z_ids.clear();
          for (const std::size_t index : s.subset) {
            s.z_ids.push_back(static_cast<stats::ColumnId>(cache.index_of(
                candidates[index].device, candidates[index].lag)));
          }
          if (use_cmh) {
            cmh = stats::cmh_test(*batch, x_id, s.z_ids);
          } else {
            test = stats::g_square_test(*batch, x_id, s.z_ids, test_options);
          }
        } else if (use_packed) {
          s.z_packed.clear();
          for (const std::size_t index : s.subset) {
            s.z_packed.push_back(&cache.packed_of(candidates[index]));
          }
          if (use_cmh) {
            cmh = stats::cmh_test(cache.packed_of(parent), child_packed,
                                  s.z_packed, s.context);
          } else {
            test = stats::g_square_test(cache.packed_of(parent), child_packed,
                                        s.z_packed, test_options, s.context);
          }
        } else {
          s.z_columns.clear();
          for (const std::size_t index : s.subset) {
            s.z_columns.push_back(cache.raw_of(candidates[index]));
          }
          if (use_cmh) {
            cmh = stats::cmh_test(cache.raw_of(parent), child_raw,
                                  s.z_columns, s.context, reuse);
          } else {
            test = stats::g_square_test(cache.raw_of(parent), child_raw,
                                        s.z_columns, test_options, s.context,
                                        reuse);
          }
        }
        if (use_cmh) {
          test.statistic = cmh.statistic;
          test.p_value = cmh.p_value;
          test.sample_count = cmh.sample_count;
          test.dof = 1.0;
        }
        return test;
      };
      // Walks one chunk of the parent's subsets in lexicographic order and
      // stops at the first that shows independence. A skipped test (too
      // few samples) carries no evidence, so only a valid one decides.
      const auto walk = [&](const util::SearchChunk& chunk) {
        std::optional<obs::Span> chunk_span;
        if (search_pool != nullptr && obs::Tracer::global().enabled()) {
          chunk_span.emplace(
              "tpc.chunk",
              util::format("\"child\": %u, \"level\": %zu, \"first\": %llu",
                           static_cast<unsigned>(child), l,
                           static_cast<unsigned long long>(chunk.begin)),
              "mine");
        }
        const ScratchPool::Lease lease(scratch);
        WalkScratch& s = *lease;
        s.subset.resize(l);
        unrank_subset(chunk.begin, candidates.size(), s.subset);
        util::ChunkResult<double> result{chunk.end, 0, 0.0};
        std::size_t reuse = 0;
        for (std::uint64_t rank = chunk.begin;
             rank < chunk.end && !chunk.superseded(); ++rank) {
          const stats::GSquareResult test = run_test(s, reuse);
          ++result.evaluated;
          if (test.p_value > config.alpha && !test.skipped_insufficient_data) {
            result.hit = rank;
            result.payload = test.p_value;
            break;
          }
          const std::size_t changed = next_subset(s.subset, candidates.size());
          if (changed == l) break;
          reuse = changed + 1;
        }
        return result;
      };
      // A walk too long to rank (C(.) saturated) runs serially: only its
      // first subsets can ever be reached.
      const std::uint64_t total = binomial(candidates.size(), l);
      const auto found = util::parallel_find_first(
          total == kSaturated ? nullptr : search_pool, total, walk);
      const bool removed = found.index < total;
      // The serial walk runs every test up to and including the deciding
      // one; anything evaluated past it was speculative.
      const std::uint64_t counted = removed ? found.index + 1 : found.evaluated;
      level.tests += counted;
      level.discarded += found.evaluated - counted;
      if (!removed) continue;
      // Independent given this set: remove the edge (Line 16).
      if (diagnostics != nullptr) {
        RemovalRecord record;
        record.cause = parent;
        record.child = child;
        record.condition_size = l;
        record.p_value = found.payload;
        separating.resize(l);
        unrank_subset(found.index, candidates.size(), separating);
        for (const std::size_t index : separating) {
          record.separating_set.push_back(candidates[index]);
        }
        diagnostics->removals.push_back(std::move(record));
      }
      if (config.stable) {
        deferred_removals.push_back(parent);
      } else {
        causes.remove(parent);
      }
    }
    for (const graph::LaggedNode& parent : deferred_removals) {
      causes.remove(parent);
    }
    tally.note_level(level.tests, use_batched  ? Kernel::kBatched
                                  : use_packed ? Kernel::kPacked
                                               : Kernel::kByte);
    level.seconds =
        std::chrono::duration<double>(Clock::now() - level_started).count();
    cost.tests += level.tests;
    cost.levels.push_back(level);
    ++l;
  }
  if (batch.has_value()) tally.batch_passes = batch->pass_count();
  tally.flush(metrics_for(config), cost.levels);
  if (diagnostics != nullptr) {
    diagnostics->tests_run += cost.tests;
    cost.seconds =
        std::chrono::duration<double>(Clock::now() - started).count();
    diagnostics->child_costs.push_back(std::move(cost));
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

std::size_t MiningDiagnostics::discarded_tests() const {
  std::size_t discarded = 0;
  for (const ChildCost& cost : child_costs) {
    for (const LevelCost& level : cost.levels) discarded += level.discarded;
  }
  return discarded;
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
  ScratchPool scratch(1);
  return discover_causes_cached(config_, series, child, diagnostics, cache,
                                scratch, nullptr);
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
  {
    ScratchPool scratch(pool != nullptr ? pool->thread_count() + 1 : 1);
    util::parallel_for(pool, 0, n, [&](std::size_t child) {
      // Worker attribution: the span lands in the executing thread's
      // buffer, so the trace shows which pool worker mined which child.
      std::optional<obs::Span> child_span;
      if (obs::Tracer::global().enabled()) {
        child_span.emplace("tpc.child",
                           util::format("\"child\": %zu", child), "mine");
      }
      causes_per_child[child] = discover_causes_cached(
          config_, series, static_cast<telemetry::DeviceId>(child),
          diagnostics != nullptr ? &diagnostics_per_child[child] : nullptr,
          cache, scratch, pool);
    });
  }
#if defined(__GLIBC__)
  // Hand the fan-out's freed scratch back to the OS. The workers
  // allocate each child's CI scratch (the batched-CI memo, about 5.7k
  // entries and 2.5k masks for the heaviest child of the 28-day
  // ContextAct trace, plus the walk scratch's counting buffers) from
  // glibc's per-thread arenas. The main thread's growing vectors raise the
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
