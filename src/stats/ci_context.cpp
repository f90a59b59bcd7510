#include "causaliot/stats/ci_context.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "causaliot/util/check.hpp"

namespace causaliot::stats {

namespace {

// Gathers the low bit of each of 8 consecutive 0/1 bytes into the low 8
// bits of the result: bit i of ((v * kGather) >> 56) is byte i of v. The
// shifted partial products never collide (8i - 7j has a unique solution
// per target bit), so no carries corrupt the gathered byte.
constexpr std::uint64_t kGather = 0x0102040810204080ULL;
constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;

// The per-row kernel counts kBlockRows rows per fused fold (a 1 KiB
// buffer). Its split histogram is kSubTables uint32 tables of 4 * 2^|Z|
// cells, used up to kSplitStrataLimit strata (64 KiB of tables); above
// that the epoch-stamped sparse path avoids the O(2^|Z|) sum. A uint32
// sub-table cell cannot overflow below kSplitRowLimit rows.
constexpr std::size_t kBlockRows = 256;
constexpr std::size_t kSubTables = 4;
constexpr std::size_t kSplitStrataLimit = 1024;
constexpr std::size_t kSplitRowLimit = std::size_t{0xffffffff};

}  // namespace

PackedColumn::PackedColumn(std::span<const std::uint8_t> column)
    : size_(column.size()), words_((column.size() + 63) / 64) {
  // 8 rows per step: load a uint64 of bytes, validate them in one mask
  // test, and gather their low bits with a multiply instead of a per-row
  // shift-or loop. The byte-order of the load matters: byte i must land
  // at bits 8i, which holds only on little-endian hosts.
  const std::size_t full =
      std::endian::native == std::endian::little ? size_ / 8 : 0;
  for (std::size_t chunk = 0; chunk < full; ++chunk) {
    std::uint64_t v;
    std::memcpy(&v, column.data() + chunk * 8, 8);
    CAUSALIOT_CHECK_MSG((v & ~kLowBits) == 0, "non-binary column value");
    words_[chunk / 8] |= ((v * kGather) >> 56) << (chunk % 8 * 8);
  }
  for (std::size_t row = full * 8; row < size_; ++row) {
    CAUSALIOT_CHECK_MSG(column[row] <= 1, "non-binary column value");
    words_[row / 64] |=
        static_cast<std::uint64_t>(column[row]) << (row % 64);
  }
}

StratumCounts CiTestContext::count_strata(
    std::span<const std::uint8_t> x, std::span<const std::uint8_t> y,
    std::span<const std::span<const std::uint8_t>> z) {
  return count_strata(x, y, z, 0);
}

template <typename Cell>
const Cell* CiTestContext::fold_prefix(
    std::span<const std::uint8_t> x, std::span<const std::uint8_t> y,
    std::span<const std::span<const std::uint8_t>> z, std::size_t reuse) {
  const std::size_t n = x.size();
  const std::size_t depths = std::max<std::size_t>(z.size(), 1);
  constexpr bool kWide = sizeof(Cell) == sizeof(std::uint32_t);
  std::vector<Cell>& stack = [this]() -> std::vector<Cell>& {
    if constexpr (kWide) {
      return wide_cells_;
    } else {
      return narrow_cells_;
    }
  }();

  // The depths that stay: what the caller vouches for, cut back to the
  // arrays this context actually built from these very columns.
  std::size_t keep = std::min({reuse, depth_, depths});
  if (keep > 0 && (n != rows_ || x.data() != x_ || y.data() != y_ ||
                   kWide != wide_)) {
    keep = 0;
  }
  for (std::size_t d = 1; d < keep; ++d) {
    if (z[d - 1].data() != z_[d - 1]) {
      keep = d;
      break;
    }
  }
  depth_ = keep;
  if (stack.size() < depths * n) stack.resize(depths * n);
  if (z_.size() < depths) z_.resize(depths);
  Cell* const cells = stack.data();

  // Each fold is a loop with no branch and no cross-row dependency, so it
  // vectorizes; validation is one OR per column, checked after its loop.
  if (keep == 0) {
    const std::uint8_t* const xs = x.data();
    const std::uint8_t* const ys = y.data();
    std::uint8_t seen = 0;
    for (std::size_t row = 0; row < n; ++row) {
      cells[row] = static_cast<Cell>(xs[row] * 2 + ys[row]);
      seen |= xs[row] | ys[row];
    }
    CAUSALIOT_CHECK_MSG(seen <= 1, "non-binary test value");
    rows_ = n;
    x_ = xs;
    y_ = ys;
    wide_ = kWide;
    depth_ = 1;
  }
  for (std::size_t d = depth_; d < depths; ++d) {
    const Cell* const below = cells + (d - 1) * n;
    Cell* const out = cells + d * n;
    const std::uint8_t* const zs = z[d - 1].data();
    const unsigned shift = static_cast<unsigned>(d) + 1;
    std::uint8_t seen = 0;
    for (std::size_t row = 0; row < n; ++row) {
      out[row] = static_cast<Cell>(below[row] | zs[row] << shift);
      seen |= zs[row];
    }
    CAUSALIOT_CHECK_MSG(seen <= 1, "non-binary conditioning value");
    z_[d - 1] = zs;
    depth_ = d + 1;
  }
  return cells + (depths - 1) * n;
}

StratumCounts CiTestContext::count_strata(
    std::span<const std::uint8_t> x, std::span<const std::uint8_t> y,
    std::span<const std::span<const std::uint8_t>> z, std::size_t reuse) {
  // A cell index takes |Z| + 2 bits: 16-bit cells halve the stack (and
  // the bytes each fold moves) up to |Z| = 14.
  if (z.size() + 2 <= 16) return count_rows<std::uint16_t>(x, y, z, reuse);
  return count_rows<std::uint32_t>(x, y, z, reuse);
}

template <typename Cell>
StratumCounts CiTestContext::count_rows(
    std::span<const std::uint8_t> x, std::span<const std::uint8_t> y,
    std::span<const std::span<const std::uint8_t>> z, std::size_t reuse) {
  const std::size_t n = x.size();
  const std::size_t l = z.size();
  const std::size_t stratum_count = std::size_t{1} << l;

  // Every cell index but the last column's bit comes from the stack. The
  // last fold is fused into the counting pass: a block of rows at a time
  // is folded (a loop that vectorizes) into a buffer in L1 that the
  // histogram then reads, so the depth-|Z| array is never written out.
  // The last byte is masked to one bit so a bad value cannot index past
  // the table, and the OR of the raw bytes is checked before any count
  // is returned.
  const Cell* const cells = fold_prefix<Cell>(x, y, z, reuse);
  const std::uint8_t* const last = l > 0 ? z[l - 1].data() : nullptr;
  const unsigned shift = static_cast<unsigned>(l) + 1;
  alignas(64) Cell block[kBlockRows];
  const auto for_each_block = [&](auto&& count) {
    std::uint8_t seen = 0;
    for (std::size_t base = 0; base < n; base += kBlockRows) {
      const std::size_t rows = std::min(kBlockRows, n - base);
      if (last == nullptr) {
        count(cells + base, rows);
        continue;
      }
      const Cell* const below = cells + base;
      const std::uint8_t* const zs = last + base;
      for (std::size_t row = 0; row < rows; ++row) {
        block[row] = static_cast<Cell>(below[row] | (zs[row] & 1U) << shift);
        seen |= zs[row];
      }
      count(block, rows);
    }
    CAUSALIOT_CHECK_MSG(seen <= 1, "non-binary conditioning value");
  };

  const std::size_t cell_count = stratum_count * 4;
  if (stratum_count <= kSplitStrataLimit && n <= kSplitRowLimit) {
    // Split histogram: consecutive rows count into different sub-tables.
    // States are sticky (consecutive snapshots differ in one device), so
    // runs of rows hit one cell; in a single table each increment would
    // wait on the store of the one before.
    if (split_.size() < kSubTables * cell_count) {
      split_.resize(kSubTables * cell_count, 0);
    }
    std::uint32_t* const t0 = split_.data();
    std::uint32_t* const t1 = t0 + cell_count;
    std::uint32_t* const t2 = t1 + cell_count;
    std::uint32_t* const t3 = t2 + cell_count;
    for_each_block([&](const Cell* block_cells, std::size_t rows) {
      std::size_t row = 0;
      for (; row + kSubTables <= rows; row += kSubTables) {
        ++t0[block_cells[row]];
        ++t1[block_cells[row + 1]];
        ++t2[block_cells[row + 2]];
        ++t3[block_cells[row + 3]];
      }
      for (; row < rows; ++row) ++t0[block_cells[row]];
    });
    // Sum the sub-tables into the result and leave them zeroed for the
    // next call.
    if (counts_.size() < cell_count) counts_.resize(cell_count);
    std::uint64_t* const counts = counts_.data();
    for (std::size_t cell = 0; cell < cell_count; ++cell) {
      counts[cell] = std::uint64_t{t0[cell]} + t1[cell] + t2[cell] + t3[cell];
      t0[cell] = t1[cell] = t2[cell] = t3[cell] = 0;
    }
    if (stratum_count <= kDenseStrataLimit) {
      return {{counts_.data(), cell_count}, {}, true};
    }
    touched_.clear();
    for (std::uint32_t key = 0; key < stratum_count; ++key) {
      const std::uint64_t* const group = counts + std::size_t{key} * 4;
      if ((group[0] | group[1] | group[2] | group[3]) != 0) {
        touched_.push_back(key);
      }
    }
    return {{counts_.data(), counts_.size()}, touched_, false};
  }

  // Sparse: never clear the table. A key's cells are zeroed the first
  // time the key is seen this call (stamps_ carries the call epoch), so
  // setup cost is O(touched keys), not O(2^|Z|). Stale entries for other
  // keys remain in counts_ — the StratumCounts contract hides them.
  if (counts_.size() < stratum_count * 4) counts_.resize(stratum_count * 4);
  if (stamps_.size() < stratum_count) stamps_.resize(stratum_count, 0);
  ++epoch_;
  touched_.clear();
  for_each_block([this](const Cell* block_cells, std::size_t rows) {
    for (std::size_t row = 0; row < rows; ++row) {
      const std::uint32_t cell = block_cells[row];
      const std::uint32_t key = cell >> 2;
      if (stamps_[key] != epoch_) {
        stamps_[key] = epoch_;
        counts_[key * 4 + 0] = counts_[key * 4 + 1] = 0;
        counts_[key * 4 + 2] = counts_[key * 4 + 3] = 0;
        touched_.push_back(key);
      }
      ++counts_[cell];
    }
  });
  // Rows arrive in stream order; the result contract is ascending keys
  // (the order the dense iteration would visit them).
  std::sort(touched_.begin(), touched_.end());
  return {{counts_.data(), counts_.size()}, touched_, false};
}

StratumCounts CiTestContext::count_strata(
    const PackedColumn& x, const PackedColumn& y,
    std::span<const PackedColumn* const> z) {
  const std::size_t n = x.size();
  const std::size_t l = z.size();
  const std::size_t stratum_count = std::size_t{1} << l;
  counts_.assign(stratum_count * 4, 0);

  const std::uint64_t* x_words = x.padded_words().data();
  const std::uint64_t* y_words = y.padded_words().data();
  const std::uint64_t* z_words[kPackedConditioningLimit] = {};
  CAUSALIOT_CHECK_MSG(l <= kPackedConditioningLimit,
                      "conditioning set too large for the packed kernel");
  for (std::size_t j = 0; j < l; ++j) z_words[j] = z[j]->padded_words().data();

  // Column storage is zero-padded to the SIMD stride, so every pass
  // sweeps whole padded words with no ragged-tail branch. The padding
  // rows read as all-zero — stratum key 0, cell (0, 0) — and are
  // subtracted back out after counting.
  const std::size_t padded = x.padded_words().size();
  const std::uint64_t pad_rows = padded * 64 - n;

  if (l == 0) {
    // Marginal table via the SIMD facade: one fused sweep yields
    // P(x) and P(x & y), one more yields P(y); the four cells follow by
    // exact integer arithmetic, so the result is bit-identical to
    // counting each cell directly.
    const simd::Kernels& kernels = simd::kernels();
    const std::uint64_t* cols[1] = {x_words};
    std::uint64_t p_x = 0;
    std::uint64_t p_xy = 0;
    kernels.marginal_pass(cols, 1, y_words, padded, &p_x, &p_xy);
    const std::uint64_t p_y = kernels.and_popcount(y_words, y_words, padded);
    counts_[0] = n - p_x - p_y + p_xy;
    counts_[1] = p_y - p_xy;
    counts_[2] = p_x - p_xy;
    counts_[3] = p_xy;
    return {{counts_.data(), 4}, {}, true};
  }

  for (std::size_t w = 0; w < padded; ++w) {
    const std::uint64_t xw = x_words[w];
    const std::uint64_t yw = y_words[w];
    for (std::size_t key = 0; key < stratum_count; ++key) {
      std::uint64_t stratum_mask = ~std::uint64_t{0};
      for (std::size_t j = 0; j < l; ++j) {
        const std::uint64_t zw = z_words[j][w];
        stratum_mask &= (key >> j & 1U) != 0 ? zw : ~zw;
      }
      if (stratum_mask == 0) continue;
      counts_[key * 4 + 0] +=
          static_cast<std::uint64_t>(std::popcount(stratum_mask & ~xw & ~yw));
      counts_[key * 4 + 1] +=
          static_cast<std::uint64_t>(std::popcount(stratum_mask & ~xw & yw));
      counts_[key * 4 + 2] +=
          static_cast<std::uint64_t>(std::popcount(stratum_mask & xw & ~yw));
      counts_[key * 4 + 3] +=
          static_cast<std::uint64_t>(std::popcount(stratum_mask & xw & yw));
    }
  }
  counts_[0] -= pad_rows;
  return {{counts_.data(), stratum_count * 4}, {}, true};
}

}  // namespace causaliot::stats
