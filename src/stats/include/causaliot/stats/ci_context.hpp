// Shared machinery of the conditional-independence tests: contingency
// counting plus reusable scratch.
//
// Both G-square and CMH reduce to the same first stage — bucket every
// sample row into one of 2^|Z| strata of the conditioning set and count
// the four (x, y) cells per stratum. TemporalPC runs millions of such
// tests per mine, so this stage dominates; the optimizations here:
//
//   * CiTestContext owns the count buffer and reuses it across calls, so
//     a mining run performs O(1) allocations per test instead of
//     allocating a fresh 2^|Z|-entry table each time.
//   * PackedColumn stores a binary column as uint64_t words (bit r of
//     word r/64 = row r, the util/bitkey.hpp convention). For small |Z|
//     the counting kernel then processes 64 rows per step with bitwise
//     AND + popcount instead of a per-row inner loop over Z.
//   * The per-row kernel (the path above kPackedConditioningLimit) keeps
//     a stack of row cell arrays, one per depth: cells_0 = x·2 + y and
//     cells_{d+1} = cells_d | z_d << (d + 2). Each fold is a branch-free
//     loop the compiler vectorizes, validated by one OR per column; the
//     last column is folded inside the histogram pass. Consecutive
//     subsets of a lexicographic walk share all but their tail, so a
//     walk refolds only the depths past the first changed column.
//   * The histogram spreads consecutive rows over four sub-tables, so
//     runs of sticky rows in one cell do not serialize on one counter,
//     and sums them into the result up to 1024 strata. Above
//     kDenseStrataLimit strata the result is sparse (the non-empty keys).
//     Above 1024 strata, instead of summing the whole 4·2^|Z| table per
//     call, touched stratum keys are epoch-stamped and zeroed on first
//     touch, so a high-|Z| test pays O(touched) rather than O(2^|Z|).
//
// Counts are exact integers, so both paths produce bit-identical test
// statistics to the original per-row double accumulation. Multi-subset
// batched counting on top of this layer lives in stats/batch_ci.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "causaliot/stats/simd_backend.hpp"

namespace causaliot::stats {

/// Largest conditioning-set size for which the packed kernel wins: its
/// per-word cost is O(2^|Z|), the per-row kernel's is O(|Z| * rows), and
/// they cross around |Z| = 6. Callers holding PackedColumns should fall
/// back to the span-based tests above this size.
inline constexpr std::size_t kPackedConditioningLimit = 6;

/// Stratum count at and below which the per-row kernel keeps the dense
/// representation (full table cleared per call — a <= 8 KiB memset).
/// Above it the sparse epoch-stamped path avoids the O(2^|Z|) clear.
inline constexpr std::size_t kDenseStrataLimit = 256;

/// A binary column bit-packed into uint64_t words (bit r of word r/64 =
/// row r); rows beyond size() are zero-padded. Storage follows the SIMD
/// facade contract (stats/simd_backend.hpp): 64-byte aligned and padded
/// to a multiple of kSimdWordStride words, so the wide kernels never need
/// a scalar tail and the scalar kernels never need a ragged-tail branch.
class PackedColumn {
 public:
  PackedColumn() = default;
  /// Packs `column`; every value must be 0 or 1 (CHECKed).
  explicit PackedColumn(std::span<const std::uint8_t> column);

  std::size_t size() const { return size_; }
  /// The logical words, (size() + 63) / 64 of them.
  std::span<const std::uint64_t> words() const {
    return {words_.data(), (size_ + 63) / 64};
  }
  /// The full aligned storage including the zero padding — the span the
  /// SIMD kernels sweep. Its length is a multiple of kSimdWordStride.
  std::span<const std::uint64_t> padded_words() const {
    return {words_.data(), words_.size()};
  }

 private:
  std::size_t size_ = 0;
  AlignedWords words_;
};

/// View over one call's contingency counts, valid until the next call on
/// the producing context. `counts` is the stratum-major table
/// counts[key * 4 + x * 2 + y]. When `dense`, every key in
/// [0, counts.size() / 4) is valid. When sparse (!dense), only the keys
/// listed in `keys` (ascending, each with at least one non-zero cell)
/// hold meaningful values — the rest of the table is stale scratch and
/// must not be read. Iterating `keys` in order visits exactly the strata
/// a dense iteration would have found non-empty, in the same order, so
/// statistics accumulated either way are bit-identical.
struct StratumCounts {
  std::span<const std::uint64_t> counts;
  std::span<const std::uint32_t> keys;
  bool dense = true;
};

/// Reusable scratch for CI tests. Not thread-safe: use one context per
/// thread (the miner keeps one per worker).
class CiTestContext {
 public:
  /// Buckets rows into 2^|z| strata and counts the 2x2 table per stratum.
  /// The returned view is valid until the next call. Column lengths must
  /// match; |z| <= 20 (CHECKed by callers before the buffer is sized).
  /// Every value must be 0 or 1: a non-binary x or y aborts with
  /// "non-binary test value", a non-binary z column with "non-binary
  /// conditioning value".
  /// Equivalent to count_strata(x, y, z, 0): nothing is reused.
  StratumCounts count_strata(
      std::span<const std::uint8_t> x, std::span<const std::uint8_t> y,
      std::span<const std::span<const std::uint8_t>> z);

  /// Prefix-reuse form for a walk over conditioning sets. The context
  /// keeps the cell arrays of its previous call, and `reuse` says how
  /// many of them the caller vouches for: 0 = none, 1 = x and y hold the
  /// same bytes as before, d + 1 = so do z[0..d). A lexicographic walk
  /// that advanced index i passes i + 1. Only depths whose columns are
  /// also the same spans (data pointer and length) as in the previous
  /// call are kept, so an over-generous `reuse` after a call with other
  /// columns costs a refold, never a wrong count. Counts, keys and the
  /// CHECK messages are those of the zero-reuse call.
  StratumCounts count_strata(
      std::span<const std::uint8_t> x, std::span<const std::uint8_t> y,
      std::span<const std::span<const std::uint8_t>> z, std::size_t reuse);

  /// Packed-kernel equivalent: identical counts, word-at-a-time. Always
  /// dense (|z| <= kPackedConditioningLimit implies few strata).
  StratumCounts count_strata(
      const PackedColumn& x, const PackedColumn& y,
      std::span<const PackedColumn* const> z);

 private:
  // The per-row kernel with Cell-wide cell indices.
  template <typename Cell>
  StratumCounts count_rows(
      std::span<const std::uint8_t> x, std::span<const std::uint8_t> y,
      std::span<const std::span<const std::uint8_t>> z, std::size_t reuse);
  // Folds the cell arrays the call needs and returns the last depth the
  // stack holds: max(|z|, 1) - 1, the input of the fused last fold.
  template <typename Cell>
  const Cell* fold_prefix(
      std::span<const std::uint8_t> x, std::span<const std::uint8_t> y,
      std::span<const std::span<const std::uint8_t>> z, std::size_t reuse);

  std::vector<std::uint64_t> counts_;
  // Per-row kernel: the split histogram's sub-tables, all zero between
  // calls.
  std::vector<std::uint32_t> split_;
  // Per-row kernel: depth d's cell array (x·2 + y | z[0..d) folded in) at
  // offset d * rows_, 16-bit up to |Z| = 14 and 32-bit above; the first
  // depth_ are valid for the columns recorded in x_, y_ and z_, in the
  // width wide_ names.
  std::vector<std::uint16_t> narrow_cells_;
  std::vector<std::uint32_t> wide_cells_;
  bool wide_ = false;
  std::size_t rows_ = 0;
  std::size_t depth_ = 0;
  const std::uint8_t* x_ = nullptr;
  const std::uint8_t* y_ = nullptr;
  std::vector<const std::uint8_t*> z_;
  // Sparse path: stamps_[key] == epoch_ marks keys already zeroed this
  // call; touched_ lists them for the sorted result view.
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint32_t> touched_;
  std::uint64_t epoch_ = 0;
};

}  // namespace causaliot::stats
