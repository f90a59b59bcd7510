#include "causaliot/stats/gsquare.hpp"

#include <cmath>

#include "causaliot/stats/special_functions.hpp"
#include "causaliot/util/check.hpp"
#include "ci_from_counts.hpp"

namespace causaliot::stats {

namespace internal {

// Computes the statistic from stratum-major 2x2 counts
// (counts[key * 4 + x * 2 + y], see CiTestContext::count_strata). Counts
// are exact integers, so this matches the historical per-row double
// accumulation bit for bit.
GSquareResult g_square_from_counts(const StratumCounts& strata,
                                   std::size_t sample_count) {
  GSquareResult result;
  result.sample_count = sample_count;

  double statistic = 0.0;
  double dof = 0.0;
  for_each_stratum(strata, [&](const std::uint64_t* cells) {
    double cell[2][2];
    for (int xv = 0; xv < 2; ++xv) {
      for (int yv = 0; yv < 2; ++yv) {
        cell[xv][yv] = static_cast<double>(
            cells[static_cast<std::size_t>(xv) * 2 +
                  static_cast<std::size_t>(yv)]);
      }
    }
    const double row_total[2] = {cell[0][0] + cell[0][1],
                                 cell[1][0] + cell[1][1]};
    const double col_total[2] = {cell[0][0] + cell[1][0],
                                 cell[0][1] + cell[1][1]};
    const double total = row_total[0] + row_total[1];
    if (total <= 0.0) return;
    // Adjusted dof: only rows/columns with non-zero marginals contribute.
    const int live_rows =
        (row_total[0] > 0.0 ? 1 : 0) + (row_total[1] > 0.0 ? 1 : 0);
    const int live_cols =
        (col_total[0] > 0.0 ? 1 : 0) + (col_total[1] > 0.0 ? 1 : 0);
    dof += static_cast<double>((live_rows - 1) * (live_cols - 1));
    for (int xv = 0; xv < 2; ++xv) {
      for (int yv = 0; yv < 2; ++yv) {
        const double observed = cell[xv][yv];
        if (observed <= 0.0) continue;  // 0 * ln(0) term is 0 in the limit.
        const double expected = row_total[xv] * col_total[yv] / total;
        statistic += 2.0 * observed * std::log(observed / expected);
      }
    }
  });
  // Rounding can leave a tiny negative statistic for perfectly independent
  // tables; clamp.
  if (statistic < 0.0) statistic = 0.0;

  result.statistic = statistic;
  result.dof = dof;
  result.p_value = dof > 0.0 ? chi_squared_sf(statistic, dof) : 1.0;
  return result;
}

// Shared preamble: empty-sample and small-sample-guard early outs. Returns
// true when `result` is already final.
bool g_square_preamble(std::size_t n, std::size_t conditioning_count,
                       const GSquareOptions& options, GSquareResult& result) {
  result.sample_count = n;
  if (n == 0) return true;
  const double nominal_dof =
      std::ldexp(1.0, static_cast<int>(conditioning_count));
  if (options.min_samples_per_dof > 0.0 &&
      static_cast<double>(n) < options.min_samples_per_dof * nominal_dof) {
    result.skipped_insufficient_data = true;
    return true;
  }
  return false;
}

}  // namespace internal

GSquareResult g_square_test(std::span<const std::uint8_t> x,
                            std::span<const std::uint8_t> y,
                            std::span<const std::span<const std::uint8_t>> z,
                            const GSquareOptions& options,
                            CiTestContext& context, std::size_t reuse) {
  const std::size_t n = x.size();
  CAUSALIOT_CHECK_MSG(y.size() == n, "column length mismatch");
  CAUSALIOT_CHECK_MSG(z.size() <= 20, "conditioning set too large");
  for (const auto& column : z) {
    CAUSALIOT_CHECK_MSG(column.size() == n, "column length mismatch");
  }

  GSquareResult result;
  if (internal::g_square_preamble(n, z.size(), options, result)) return result;
  return internal::g_square_from_counts(context.count_strata(x, y, z, reuse),
                                        n);
}

GSquareResult g_square_test(const PackedColumn& x, const PackedColumn& y,
                            std::span<const PackedColumn* const> z,
                            const GSquareOptions& options,
                            CiTestContext& context) {
  const std::size_t n = x.size();
  CAUSALIOT_CHECK_MSG(y.size() == n, "column length mismatch");
  for (const PackedColumn* column : z) {
    CAUSALIOT_CHECK_MSG(column->size() == n, "column length mismatch");
  }

  GSquareResult result;
  if (internal::g_square_preamble(n, z.size(), options, result)) return result;
  return internal::g_square_from_counts(context.count_strata(x, y, z), n);
}

GSquareResult g_square_test(std::span<const std::uint8_t> x,
                            std::span<const std::uint8_t> y,
                            std::span<const std::span<const std::uint8_t>> z,
                            const GSquareOptions& options) {
  CiTestContext context;
  return g_square_test(x, y, z, options, context);
}

GSquareResult g_square_test(std::span<const std::uint8_t> x,
                            std::span<const std::uint8_t> y,
                            const GSquareOptions& options) {
  return g_square_test(x, y, {}, options);
}

}  // namespace causaliot::stats
