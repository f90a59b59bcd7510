// Property tests for the batched multi-subset CI kernel: the batched
// path must be *bit-identical* to the per-subset kernels (packed and
// byte), because the miner's pruning decisions compare p-values against
// alpha and the determinism suite diffs whole DIGs.
#include "causaliot/stats/batch_ci.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "causaliot/stats/cmh.hpp"
#include "causaliot/stats/gsquare.hpp"
#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/rng.hpp"

namespace causaliot::stats {
namespace {

using Column = std::vector<std::uint8_t>;

std::vector<Column> random_columns(std::size_t count, std::size_t n,
                                   util::Rng& rng, double ones_fraction) {
  std::vector<Column> columns(count, Column(n));
  for (auto& column : columns) {
    for (auto& value : column) {
      value = static_cast<std::uint8_t>(rng.bernoulli(ones_fraction));
    }
  }
  return columns;
}

std::vector<PackedColumn> pack_all(const std::vector<Column>& columns) {
  std::vector<PackedColumn> packed;
  packed.reserve(columns.size());
  for (const Column& column : columns) packed.emplace_back(column);
  return packed;
}

// Exhaustive bit-for-bit comparison of batched vs per-subset results for
// every (x, Z) drawn from a pool, |Z| = 0..max_level, one statistic.
void expect_batched_matches_per_subset(std::size_t n, std::uint64_t seed,
                                       bool use_cmh) {
  util::Rng rng(seed);
  constexpr std::size_t kColumns = 8;  // pool: y + 7 candidates
  const std::vector<Column> columns = random_columns(kColumns, n, rng, 0.35);
  const std::vector<PackedColumn> packed = pack_all(columns);
  const ColumnId y = 0;
  const GSquareOptions options{0.0};

  BatchCiContext batch({packed.data(), packed.size()}, y);
  CiTestContext context;

  for (std::size_t level = 0; level + 2 <= kColumns; ++level) {
    for (ColumnId x = 1; x < kColumns; ++x) {
      // All |level|-subsets of the remaining columns, encoded as a bitmask
      // over {1..7} \ {x}.
      std::vector<ColumnId> others;
      for (ColumnId c = 1; c < kColumns; ++c) {
        if (c != x) others.push_back(c);
      }
      std::vector<bool> take(others.size(), false);
      std::fill(take.begin(), take.begin() + static_cast<long>(level), true);
      // Iterate combinations via prev_permutation over the selector.
      do {
        std::vector<ColumnId> z_ids;
        std::vector<const PackedColumn*> z_packed;
        std::vector<std::span<const std::uint8_t>> z_raw;
        for (std::size_t i = 0; i < others.size(); ++i) {
          if (!take[i]) continue;
          z_ids.push_back(others[i]);
          z_packed.push_back(&packed[others[i]]);
          z_raw.push_back(columns[others[i]]);
        }
        if (use_cmh) {
          const CmhResult batched = cmh_test(batch, x, z_ids);
          const CmhResult direct =
              cmh_test(packed[x], packed[y], z_packed, context);
          const CmhResult byte_direct =
              cmh_test(columns[x], columns[y], z_raw, context);
          for (const CmhResult& other : {direct, byte_direct}) {
            EXPECT_EQ(batched.statistic, other.statistic);
            EXPECT_EQ(batched.p_value, other.p_value);
            EXPECT_EQ(batched.sample_count, other.sample_count);
            EXPECT_EQ(batched.informative_strata, other.informative_strata);
          }
        } else {
          const GSquareResult batched =
              g_square_test(batch, x, z_ids, options);
          const GSquareResult direct = g_square_test(
              packed[x], packed[y], z_packed, options, context);
          const GSquareResult byte_direct =
              g_square_test(columns[x], columns[y], z_raw, options, context);
          for (const GSquareResult& other : {direct, byte_direct}) {
            EXPECT_EQ(batched.statistic, other.statistic);
            EXPECT_EQ(batched.dof, other.dof);
            EXPECT_EQ(batched.p_value, other.p_value);
            EXPECT_EQ(batched.sample_count, other.sample_count);
            EXPECT_EQ(batched.skipped_insufficient_data,
                      other.skipped_insufficient_data);
          }
        }
      } while (std::prev_permutation(take.begin(), take.end()));
    }
  }
}

TEST(BatchCi, GSquareMatchesPerSubsetBitForBit) {
  // Odd length exercises the partial tail word of the packed columns.
  expect_batched_matches_per_subset(997, 11, /*use_cmh=*/false);
  expect_batched_matches_per_subset(2048, 12, /*use_cmh=*/false);
}

TEST(BatchCi, CmhMatchesPerSubsetBitForBit) {
  expect_batched_matches_per_subset(997, 21, /*use_cmh=*/true);
  expect_batched_matches_per_subset(1500, 22, /*use_cmh=*/true);
}

// Satellite (PR 6): the exhaustive batched-vs-per-subset equivalence must
// hold under every compiled-in SIMD backend the host can execute, for
// both statistics — the wide kernels sit under both code paths.
TEST(BatchCi, EquivalenceHoldsUnderEverySimdBackend) {
  const simd::Backend before = simd::chosen();
  for (const simd::Backend backend : simd::available_backends()) {
    SCOPED_TRACE(std::string("backend ") +
                 std::string(simd::backend_name(backend)));
    ASSERT_TRUE(simd::force_backend(backend));
    expect_batched_matches_per_subset(997, 11, /*use_cmh=*/false);
    expect_batched_matches_per_subset(997, 21, /*use_cmh=*/true);
  }
  ASSERT_TRUE(simd::force_backend(before));
}

// Every (x, Z) sweep statistic, serialized for cross-backend comparison.
std::vector<double> sweep_statistics(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  constexpr std::size_t kColumns = 8;
  const std::vector<Column> columns = random_columns(kColumns, n, rng, 0.35);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  CiTestContext context;
  std::vector<double> out;
  for (std::size_t level = 0; level <= 3; ++level) {
    for (ColumnId x = 1; x < kColumns; ++x) {
      std::vector<ColumnId> others;
      for (ColumnId c = 1; c < kColumns; ++c) {
        if (c != x) others.push_back(c);
      }
      std::vector<bool> take(others.size(), false);
      std::fill(take.begin(), take.begin() + static_cast<long>(level), true);
      do {
        std::vector<ColumnId> z_ids;
        std::vector<const PackedColumn*> z_packed;
        for (std::size_t i = 0; i < others.size(); ++i) {
          if (!take[i]) continue;
          z_ids.push_back(others[i]);
          z_packed.push_back(&packed[others[i]]);
        }
        const GSquareResult batched = g_square_test(batch, x, z_ids, {});
        const GSquareResult direct =
            g_square_test(packed[x], packed[0], z_packed, {}, context);
        out.push_back(batched.statistic);
        out.push_back(batched.p_value);
        out.push_back(static_cast<double>(batched.sample_count));
        out.push_back(direct.statistic);
        out.push_back(direct.p_value);
      } while (std::prev_permutation(take.begin(), take.end()));
    }
  }
  return out;
}

// Cross-backend bit-identity: the full statistic stream computed under a
// wide backend must equal the scalar stream exactly (EXPECT_EQ on
// doubles — not approximate), because miner pruning compares p-values
// against alpha and any drift would change skeletons.
TEST(BatchCi, SimdBackendsProduceBitIdenticalStatistics) {
  const simd::Backend before = simd::chosen();
  ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
  const std::vector<double> reference = sweep_statistics(1023, 81);
  for (const simd::Backend backend : simd::available_backends()) {
    SCOPED_TRACE(std::string("backend ") +
                 std::string(simd::backend_name(backend)));
    ASSERT_TRUE(simd::force_backend(backend));
    EXPECT_EQ(sweep_statistics(1023, 81), reference);
  }
  ASSERT_TRUE(simd::force_backend(before));
}

TEST(BatchCi, SmallSampleGuardSkipsWithoutCounting) {
  util::Rng rng(31);
  const std::vector<Column> columns = random_columns(4, 100, rng, 0.5);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  const std::size_t passes_before = batch.pass_count();
  const GSquareOptions guard{100.0};  // 100 samples per dof: |Z|=2 needs 400
  const ColumnId z_ids[2] = {2, 3};
  const GSquareResult result = g_square_test(batch, 1, z_ids, guard);
  EXPECT_TRUE(result.skipped_insufficient_data);
  // The preamble must fire before any counting happens.
  EXPECT_EQ(batch.pass_count(), passes_before);
}

TEST(BatchCi, MemoizationSharesPassesAcrossSubsets) {
  util::Rng rng(41);
  const std::vector<Column> columns = random_columns(6, 512, rng, 0.4);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);

  std::vector<ColumnId> xs = {1, 2, 3, 4, 5};
  batch.prepare_marginals(xs);
  const std::size_t after_prepare = batch.pass_count();
  // All five marginal tables in two multi-key passes (batch width 4)
  // plus the constructor's y pass.
  EXPECT_EQ(after_prepare, 3u);

  // Level-0 tests consume the warm singles: no further passes.
  for (const ColumnId x : xs) {
    (void)batch.count_strata(x, {});
  }
  EXPECT_EQ(batch.pass_count(), after_prepare);

  // A level-1 test needs exactly one fused pass for the new pair {z, x}.
  const ColumnId z_one[1] = {2};
  (void)batch.count_strata(1, z_one);
  EXPECT_EQ(batch.pass_count(), after_prepare + 1);
  // Repeating it is free, and so is the symmetric orientation {x, z}
  // (P-sets are unordered).
  (void)batch.count_strata(1, z_one);
  const ColumnId z_sym[1] = {1};
  (void)batch.count_strata(2, z_sym);
  EXPECT_EQ(batch.pass_count(), after_prepare + 1);

  // reset_cache drops the memo: the same test pays its passes again.
  batch.reset_cache();
  (void)batch.count_strata(1, z_one);
  EXPECT_GT(batch.pass_count(), after_prepare + 1);
}

TEST(BatchCi, ConditioningOrderPermutesStrataNotCounts) {
  // The stratum key follows the *given* z order (bit j = z[j]), exactly
  // like the per-subset kernels: permuting z permutes keys.
  util::Rng rng(51);
  const std::vector<Column> columns = random_columns(4, 700, rng, 0.45);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  CiTestContext context;

  const ColumnId forward[2] = {2, 3};
  const ColumnId backward[2] = {3, 2};
  const std::vector<std::uint64_t> counts_fwd(
      batch.count_strata(1, forward).begin(),
      batch.count_strata(1, forward).end());
  const std::vector<std::uint64_t> counts_bwd(
      batch.count_strata(1, backward).begin(),
      batch.count_strata(1, backward).end());
  const PackedColumn* z_fwd[2] = {&packed[2], &packed[3]};
  const StratumCounts direct =
      context.count_strata(packed[1], packed[0], z_fwd);
  ASSERT_TRUE(direct.dense);
  ASSERT_EQ(counts_fwd.size(), direct.counts.size());
  for (std::size_t i = 0; i < counts_fwd.size(); ++i) {
    EXPECT_EQ(counts_fwd[i], direct.counts[i]);
  }
  // Swapping z swaps key bits 0 and 1: key 1 <-> key 2.
  const std::size_t remap[4] = {0, 2, 1, 3};
  for (std::size_t key = 0; key < 4; ++key) {
    for (std::size_t cell = 0; cell < 4; ++cell) {
      EXPECT_EQ(counts_bwd[key * 4 + cell],
                counts_fwd[remap[key] * 4 + cell]);
    }
  }
}

// Satellite regression test: CiTestContext byte-kernel reuse across
// differently-sized conditioning sets. The sparse path (|Z| above the
// dense limit) stamps touched keys lazily instead of zero-filling all
// 4 * 2^|Z| cells; stale cells from a previous larger call must never
// leak into a later call's view.
TEST(CiTestContext, ByteKernelReuseAcrossSizesIsIdentical) {
  util::Rng rng(61);
  const std::size_t n = 3000;
  constexpr std::size_t kBig = 9;    // 512 strata: sparse path
  constexpr std::size_t kSmall = 2;  // 4 strata: dense path
  const std::vector<Column> columns = random_columns(kBig + 2, n, rng, 0.5);

  auto z_view = [&](std::size_t count) {
    std::vector<std::span<const std::uint8_t>> z;
    for (std::size_t i = 0; i < count; ++i) z.push_back(columns[2 + i]);
    return z;
  };

  // Reference: fresh context per call.
  auto snapshot = [](const StratumCounts& strata) {
    std::vector<std::uint64_t> flat;
    if (strata.dense) {
      flat.assign(strata.counts.begin(), strata.counts.end());
    } else {
      for (const std::uint32_t key : strata.keys) {
        flat.push_back(key);
        for (std::size_t c = 0; c < 4; ++c) {
          flat.push_back(strata.counts[static_cast<std::size_t>(key) * 4 + c]);
        }
      }
    }
    return flat;
  };

  CiTestContext reused;
  for (const std::size_t size : {kBig, kSmall, kBig, kSmall, kBig}) {
    CiTestContext fresh;
    const auto z = z_view(size);
    const auto expected = snapshot(fresh.count_strata(columns[0], columns[1],
                                                      z));
    const auto actual = snapshot(reused.count_strata(columns[0], columns[1],
                                                     z));
    EXPECT_EQ(expected, actual) << "size " << size;
  }

  // And the statistics built on top agree with a fresh context.
  CiTestContext fresh;
  const auto z = z_view(kBig);
  const GSquareResult a = g_square_test(columns[0], columns[1], z, {}, reused);
  const GSquareResult b = g_square_test(columns[0], columns[1], z, {}, fresh);
  EXPECT_EQ(a.statistic, b.statistic);
  EXPECT_EQ(a.dof, b.dof);
  EXPECT_EQ(a.p_value, b.p_value);
}

// The per-row byte kernel against a naive row-by-row count, at the
// conditioning sizes the miner sends it: |Z| = 7, 8 (dense table) and
// 9, 10 (sparse, epoch-stamped). Column 2 is constant zero, so every
// stratum with key bit 0 set never occurs; the skewed columns leave more
// empty strata on top.
TEST(CiTestContext, ByteKernelMatchesNaivePerRowCounts) {
  util::Rng rng(67);
  const std::size_t n = 2501;  // not a multiple of any vector width
  constexpr std::size_t kMaxZ = 10;
  std::vector<Column> columns = random_columns(kMaxZ + 2, n, rng, 0.2);
  std::fill(columns[2].begin(), columns[2].end(), 0);

  CiTestContext context;
  for (const std::size_t size : {7, 8, 9, 10, 7}) {
    std::vector<std::span<const std::uint8_t>> z;
    for (std::size_t j = 0; j < size; ++j) z.push_back(columns[2 + j]);

    const std::size_t strata = std::size_t{1} << size;
    std::vector<std::uint64_t> naive(strata * 4, 0);
    for (std::size_t row = 0; row < n; ++row) {
      std::size_t key = 0;
      for (std::size_t j = 0; j < size; ++j) {
        key |= static_cast<std::size_t>(z[j][row]) << j;
      }
      ++naive[key * 4 + columns[0][row] * 2 + columns[1][row]];
    }
    std::vector<std::uint32_t> occurring;
    for (std::size_t key = 0; key < strata; ++key) {
      if (naive[key * 4] + naive[key * 4 + 1] + naive[key * 4 + 2] +
              naive[key * 4 + 3] >
          0) {
        occurring.push_back(static_cast<std::uint32_t>(key));
      }
    }
    ASSERT_LT(occurring.size(), strata / 2) << "size " << size;

    const StratumCounts counts =
        context.count_strata(columns[0], columns[1], z);
    EXPECT_EQ(counts.dense, strata <= kDenseStrataLimit) << "size " << size;
    if (counts.dense) {
      ASSERT_EQ(counts.counts.size(), strata * 4);
      EXPECT_TRUE(std::equal(naive.begin(), naive.end(),
                             counts.counts.begin()))
          << "size " << size;
    } else {
      EXPECT_TRUE(std::equal(occurring.begin(), occurring.end(),
                             counts.keys.begin(), counts.keys.end()))
          << "size " << size;
      for (const std::uint32_t key : counts.keys) {
        for (std::size_t cell = 0; cell < 4; ++cell) {
          EXPECT_EQ(counts.counts[key * 4 + cell], naive[key * 4 + cell])
              << "size " << size << " key " << key;
        }
      }
    }
  }
}

TEST(CiTestContextDeathTest, ByteKernelRejectsNonBinaryValues) {
  util::Rng rng(71);
  const std::size_t n = 1001;
  const std::vector<Column> columns = random_columns(9, n, rng, 0.5);
  std::vector<std::span<const std::uint8_t>> z;
  for (std::size_t j = 2; j < 9; ++j) z.push_back(columns[j]);  // |Z| = 7

  Column bad = columns[0];
  bad[n - 1] = 2;  // in the scalar tail after any vector body
  CiTestContext context;
  EXPECT_DEATH(context.count_strata(bad, columns[1], z),
               "non-binary test value");
  EXPECT_DEATH(context.count_strata(columns[0], bad, z),
               "non-binary test value");
  std::vector<std::span<const std::uint8_t>> bad_z = z;
  bad_z[4] = bad;
  EXPECT_DEATH(context.count_strata(columns[0], columns[1], bad_z),
               "non-binary conditioning value");
  bad[n - 1] = 1;
  bad[0] = 255;
  EXPECT_DEATH(context.count_strata(columns[0], columns[1], bad_z),
               "non-binary conditioning value");
}

// Naive per-row oracle for one count_strata view: every row's key built
// bit by bit, compared against the dense table or the sparse key list.
void expect_matches_row_oracle(const StratumCounts& counts, const Column& x,
                               const Column& y,
                               std::span<const std::span<const std::uint8_t>> z,
                               const std::string& where) {
  const std::size_t strata = std::size_t{1} << z.size();
  std::vector<std::uint64_t> naive(strata * 4, 0);
  for (std::size_t row = 0; row < x.size(); ++row) {
    std::size_t key = 0;
    for (std::size_t j = 0; j < z.size(); ++j) {
      key |= static_cast<std::size_t>(z[j][row]) << j;
    }
    ++naive[key * 4 + x[row] * 2 + y[row]];
  }
  ASSERT_EQ(counts.dense, strata <= kDenseStrataLimit) << where;
  if (counts.dense) {
    ASSERT_EQ(counts.counts.size(), strata * 4) << where;
    EXPECT_TRUE(std::equal(naive.begin(), naive.end(), counts.counts.begin()))
        << where;
    return;
  }
  std::vector<std::uint32_t> occurring;
  for (std::size_t key = 0; key < strata; ++key) {
    if (naive[key * 4] + naive[key * 4 + 1] + naive[key * 4 + 2] +
            naive[key * 4 + 3] >
        0) {
      occurring.push_back(static_cast<std::uint32_t>(key));
    }
  }
  ASSERT_TRUE(std::equal(occurring.begin(), occurring.end(),
                         counts.keys.begin(), counts.keys.end()))
      << where;
  for (const std::uint32_t key : counts.keys) {
    for (std::size_t cell = 0; cell < 4; ++cell) {
      ASSERT_EQ(counts.counts[key * 4 + cell], naive[key * 4 + cell])
          << where << " key " << key;
    }
  }
}

// Lexicographic successor of an ascending k-subset of {0..m-1}; returns
// the first changed position, or k after the last subset.
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

// The prefix-reuse kernel along random lexicographic walks, the way the
// miner drives it: each step passes the kept prefix (first changed index
// + 1), and a walk jumps to a random subset every few steps, as a worker
// does at the start of each chunk. After a jump the test passes a random
// reuse, generous or not — the context must keep only the depths it
// built from the same columns. |Z| = 7, 8 give dense tables; 9, 10 the
// split sparse path; 11, 12 the epoch-stamped one.
TEST(CiTestContext, PrefixReuseWalksMatchRowOracle) {
  util::Rng rng(73);
  const std::size_t n = 701;
  for (const std::size_t pool_size : {12, 14, 16}) {
    std::vector<Column> columns = random_columns(pool_size + 2, n, rng, 0.3);
    std::fill(columns[2].begin(), columns[2].end(), 0);  // empty strata
    const Column& x = columns[0];
    const Column& y = columns[1];
    for (std::size_t level = 7; level <= 12; ++level) {
      CiTestContext context;
      std::vector<std::size_t> subset(level);
      std::vector<std::span<const std::uint8_t>> z(level);
      std::size_t reuse = 0;
      for (std::size_t step = 0; step < 60; ++step) {
        if (step % 15 == 0) {
          // Chunk jump: a random subset, then a random reuse claim.
          std::vector<std::size_t> all(pool_size);
          for (std::size_t i = 0; i < pool_size; ++i) all[i] = i;
          rng.shuffle(all);
          std::copy(all.begin(), all.begin() + static_cast<long>(level),
                    subset.begin());
          std::sort(subset.begin(), subset.end());
          reuse = rng.uniform(level + 1);
        }
        for (std::size_t j = 0; j < level; ++j) {
          z[j] = columns[2 + subset[j]];
        }
        const std::string where = "pool " + std::to_string(pool_size) +
                                  " level " + std::to_string(level) +
                                  " step " + std::to_string(step);
        expect_matches_row_oracle(context.count_strata(x, y, z, reuse), x, y,
                                  z, where);
        if (HasFatalFailure()) return;
        const std::size_t changed = next_subset(subset, pool_size);
        if (changed == level) break;
        reuse = changed + 1;
      }
    }
  }
}

// A non-binary conditioning byte aborts wherever the walk folds it: at a
// depth the stack keeps for later subsets, and at the last column, which
// is folded inside the counting pass.
TEST(CiTestContextDeathTest, PrefixReuseRejectsNonBinaryConditioning) {
  util::Rng rng(79);
  const std::size_t n = 1001;
  std::vector<Column> columns = random_columns(12, n, rng, 0.5);
  Column bad = columns[11];
  bad[n - 1] = 2;
  std::vector<std::span<const std::uint8_t>> z;
  for (std::size_t j = 2; j < 10; ++j) z.push_back(columns[j]);  // |Z| = 8

  CiTestContext context;
  (void)context.count_strata(columns[0], columns[1], z, 0);
  std::vector<std::span<const std::uint8_t>> reused_bad = z;
  reused_bad[3] = bad;  // depths 0..3 kept, depth 4 refolds the bad column
  EXPECT_DEATH(context.count_strata(columns[0], columns[1], reused_bad, 4),
               "non-binary conditioning value");
  std::vector<std::span<const std::uint8_t>> last_bad = z;
  last_bad.back() = bad;  // only the fused last fold sees it
  EXPECT_DEATH(context.count_strata(columns[0], columns[1], last_bad, 8),
               "non-binary conditioning value");
}

TEST(BatchCi, EmptyUniverseRejectedAndZeroSamplesShortCircuit) {
  Column empty_column;
  std::vector<PackedColumn> packed;
  packed.emplace_back(empty_column);
  packed.emplace_back(empty_column);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  EXPECT_EQ(batch.sample_count(), 0u);
  const GSquareResult g = g_square_test(batch, 1, {});
  EXPECT_EQ(g.sample_count, 0u);
  EXPECT_EQ(g.p_value, 1.0);
  const CmhResult m = cmh_test(batch, 1, {});
  EXPECT_EQ(m.sample_count, 0u);
}

// The memo's word-pass accounting, spelled out on sorted id vectors: a
// level-l test counts {x}, then T and T ∪ {x} for every nonempty T ⊆ Z
// in the order of the stratum key; a set is counted by one pass over its
// prefix's mask, and a mask is built (one pass) on its first use as a
// prefix, even when the set's counts are already known. pass_count must
// follow it exactly whatever the context does to find its entries.
class MemoPassModel {
 public:
  std::size_t passes = 1;  // the constructor's P(y) pass

  void test(ColumnId x, const std::vector<ColumnId>& z) {
    counts({x});
    for (std::size_t t = 1; t < (std::size_t{1} << z.size()); ++t) {
      std::vector<ColumnId> term;
      for (std::size_t j = 0; j < z.size(); ++j) {
        if ((t >> j & 1U) != 0) term.push_back(z[j]);
      }
      std::sort(term.begin(), term.end());
      counts(term);
      term.insert(std::upper_bound(term.begin(), term.end(), x), x);
      counts(term);
    }
  }
  void reset() { state_.clear(); }

 private:
  void counts(const std::vector<ColumnId>& set) {
    if (state_[set] != 0) return;
    if (set.size() > 1) mask({set.begin(), set.end() - 1});
    ++passes;
    state_[set] = 1;
  }
  void mask(const std::vector<ColumnId>& set) {
    if (set.size() == 1 || state_[set] == 2) return;
    mask({set.begin(), set.end() - 1});
    ++passes;
    state_[set] = 2;
  }
  std::map<std::vector<ColumnId>, int> state_;  // 1 counts, 2 counts + mask
};

// The memo along a seeded walk the way the miner drives it, plus the
// moves the miner never makes: lexicographic steps (a repeated prefix
// with a new last id), jumps to a random level and subset, a new x, z in
// shuffled order, and reset_cache part-way. The 300-column universe puts
// ids past 255, and sets of five or more ids spill into the key's second
// word. Every view must match the per-row oracle and the packed
// per-subset kernel, and pass_count must match MemoPassModel.
TEST(BatchCi, MemoWalkMatchesOraclesAndPassModel) {
  util::Rng rng(83);
  constexpr std::size_t kColumns = 300;
  const std::size_t n = 523;
  const std::vector<Column> columns = random_columns(kColumns, n, rng, 0.45);
  const std::vector<PackedColumn> packed = pack_all(columns);
  const ColumnId y = 7;
  BatchCiContext batch({packed.data(), packed.size()}, y);
  CiTestContext context;
  MemoPassModel model;

  // Candidate pool: ids on both sides of 255, ascending like the miner's.
  std::vector<ColumnId> pool = {3, 90, 200, 254, 255, 256, 257, 270, 299};
  const auto random_x = [&] {
    while (true) {
      const auto x = static_cast<ColumnId>(rng.uniform(kColumns));
      if (x != y &&
          std::find(pool.begin(), pool.end(), x) == pool.end()) {
        return x;
      }
    }
  };
  ColumnId x = 256 + 40;
  std::size_t level = 3;
  std::vector<std::size_t> subset = {0, 1, 2};
  std::size_t resets = 0;
  std::size_t shuffled = 0;
  for (std::size_t step = 0; step < 400; ++step) {
    const std::uint64_t move = rng.uniform(20);
    if (move == 0) {
      batch.reset_cache();
      model.reset();
      ++resets;
    } else if (move <= 2) {
      x = random_x();
    } else if (move <= 4 || next_subset(subset, pool.size()) == level) {
      level = 3 + rng.uniform(kPackedConditioningLimit - 2);
      subset = rng.sample_indices(pool.size(), level);
    }
    std::vector<ColumnId> z;
    for (const std::size_t index : subset) z.push_back(pool[index]);
    if (rng.uniform(4) == 0) {
      rng.shuffle(z);
      ++shuffled;
    }

    const std::string where = "step " + std::to_string(step);
    const std::span<const std::uint64_t> counts = batch.count_strata(x, z);
    const std::vector<std::uint64_t> batched(counts.begin(), counts.end());
    model.test(x, z);
    ASSERT_EQ(batch.pass_count(), model.passes) << where;

    std::vector<std::span<const std::uint8_t>> z_raw;
    std::vector<const PackedColumn*> z_packed;
    for (const ColumnId id : z) {
      z_raw.push_back(columns[id]);
      z_packed.push_back(&packed[id]);
    }
    expect_matches_row_oracle({batched, {}, true}, columns[x], columns[y],
                              z_raw, where);
    const StratumCounts direct =
        context.count_strata(packed[x], packed[y], z_packed);
    ASSERT_TRUE(std::equal(batched.begin(), batched.end(),
                           direct.counts.begin(), direct.counts.end()))
        << where;
  }
  EXPECT_GT(resets, 0u);
  EXPECT_GT(shuffled, 0u);
}

// A universe of 1-row columns as large as the memo key allows: the top
// ids still key distinct sets.
TEST(BatchCi, LargestUniverseKeysItsTopIds) {
  const Column one = {1};
  const Column zero = {0};
  std::vector<PackedColumn> packed;
  packed.reserve(65534);
  for (std::size_t i = 0; i < 65534; ++i) {
    packed.emplace_back(i % 3 == 0 ? zero : one);
  }
  BatchCiContext batch({packed.data(), packed.size()}, 65531);
  const ColumnId z[3] = {65532, 65530, 65533};
  const std::span<const std::uint64_t> counts = batch.count_strata(65527, z);
  // Column i holds 0 when i is a multiple of 3, so the one row has
  // x = y = 1 and z = (0, 1, 1): key 0b110, cell 3.
  for (std::size_t key = 0; key < 8; ++key) {
    for (std::size_t cell = 0; cell < 4; ++cell) {
      EXPECT_EQ(counts[key * 4 + cell], key == 6 && cell == 3 ? 1u : 0u)
          << "key " << key << " cell " << cell;
    }
  }
}

TEST(BatchCiDeathTest, RejectsDuplicateIdsXInZAndOversizedUniverses) {
  util::Rng rng(89);
  const std::vector<Column> columns = random_columns(300, 64, rng, 0.5);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  const ColumnId duplicate[3] = {260, 5, 260};
  EXPECT_DEATH(batch.count_strata(1, duplicate),
               "duplicate conditioning column");
  const ColumnId holds_x[3] = {5, 260, 7};
  EXPECT_DEATH(batch.count_strata(260, holds_x),
               "conditioning set contains x");

  const Column one = {1};
  const std::vector<PackedColumn> huge(65535, PackedColumn(one));
  EXPECT_DEATH(BatchCiContext({huge.data(), huge.size()}, 0),
               "column universe too large for the memo key");
}

}  // namespace
}  // namespace causaliot::stats
