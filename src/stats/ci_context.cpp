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
  const std::size_t n = x.size();
  const std::size_t stratum_count = std::size_t{1} << z.size();

  // Phase 1: each row's cell index key * 4 + x * 2 + y, one column at a
  // time. The column loops have no branch and no cross-row dependency,
  // so they vectorize; validation is one OR per column, checked after
  // its loop, so a non-binary byte aborts before any count is read.
  if (cells_.size() < n) cells_.resize(n);
  std::uint32_t* const cells = cells_.data();
  const std::uint8_t* const xs = x.data();
  const std::uint8_t* const ys = y.data();
  std::uint8_t seen = 0;
  for (std::size_t row = 0; row < n; ++row) {
    cells[row] = static_cast<std::uint32_t>(xs[row] * 2 + ys[row]);
    seen |= xs[row] | ys[row];
  }
  CAUSALIOT_CHECK_MSG(seen <= 1, "non-binary test value");
  for (std::size_t j = 0; j < z.size(); ++j) {
    const std::uint8_t* const zs = z[j].data();
    const unsigned shift = static_cast<unsigned>(j) + 2;
    seen = 0;
    for (std::size_t row = 0; row < n; ++row) {
      cells[row] |= static_cast<std::uint32_t>(zs[row]) << shift;
      seen |= zs[row];
    }
    CAUSALIOT_CHECK_MSG(seen <= 1, "non-binary conditioning value");
  }

  // Phase 2: one histogram pass over the cell indices.
  if (stratum_count <= kDenseStrataLimit) {
    // Dense: the full clear is a small bounded memset.
    counts_.assign(stratum_count * 4, 0);
    for (std::size_t row = 0; row < n; ++row) ++counts_[cells[row]];
    return {{counts_.data(), stratum_count * 4}, {}, true};
  }

  // Sparse: never clear the table. A key's cells are zeroed the first
  // time the key is seen this call (stamps_ carries the call epoch), so
  // setup cost is O(touched keys), not O(2^|Z|). Stale entries for other
  // keys remain in counts_ — the StratumCounts contract hides them.
  if (counts_.size() < stratum_count * 4) counts_.resize(stratum_count * 4);
  if (stamps_.size() < stratum_count) stamps_.resize(stratum_count, 0);
  ++epoch_;
  touched_.clear();
  for (std::size_t row = 0; row < n; ++row) {
    const std::uint32_t key = cells[row] >> 2;
    if (stamps_[key] != epoch_) {
      stamps_[key] = epoch_;
      counts_[key * 4 + 0] = counts_[key * 4 + 1] = 0;
      counts_[key * 4 + 2] = counts_[key * 4 + 3] = 0;
      touched_.push_back(key);
    }
    ++counts_[cells[row]];
  }
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
