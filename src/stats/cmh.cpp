#include "causaliot/stats/cmh.hpp"

#include <algorithm>
#include <cmath>

#include "causaliot/stats/special_functions.hpp"
#include "causaliot/util/check.hpp"
#include "ci_from_counts.hpp"

namespace causaliot::stats {

namespace internal {

// Computes the statistic from stratum-major 2x2 counts
// (counts[key * 4 + x * 2 + y], see CiTestContext::count_strata).
CmhResult cmh_from_counts(const StratumCounts& strata,
                          std::size_t sample_count) {
  CmhResult result;
  result.sample_count = sample_count;

  double deviation_sum = 0.0;
  double variance_sum = 0.0;
  for_each_stratum(strata, [&](const std::uint64_t* cells) {
    const double a = static_cast<double>(cells[3]);  // x=1, y=1
    const double b = static_cast<double>(cells[2]);  // x=1, y=0
    const double c = static_cast<double>(cells[1]);  // x=0, y=1
    const double d = static_cast<double>(cells[0]);  // x=0, y=0
    const double total = a + b + c + d;
    if (total < 2.0) return;
    const double row1 = a + b;
    const double col1 = a + c;
    const double row0 = c + d;
    const double col0 = b + d;
    if (row1 == 0.0 || row0 == 0.0 || col1 == 0.0 || col0 == 0.0) return;
    deviation_sum += a - row1 * col1 / total;
    variance_sum += row1 * row0 * col1 * col0 / (total * total * (total - 1));
    ++result.informative_strata;
  });
  if (variance_sum <= 0.0) return result;  // nothing informative

  // Continuity-corrected CMH statistic.
  const double corrected = std::max(0.0, std::fabs(deviation_sum) - 0.5);
  result.statistic = corrected * corrected / variance_sum;
  result.p_value = chi_squared_sf(result.statistic, 1.0);
  return result;
}

}  // namespace internal

CmhResult cmh_test(std::span<const std::uint8_t> x,
                   std::span<const std::uint8_t> y,
                   std::span<const std::span<const std::uint8_t>> z,
                   CiTestContext& context, std::size_t reuse) {
  const std::size_t n = x.size();
  CAUSALIOT_CHECK_MSG(y.size() == n, "column length mismatch");
  CAUSALIOT_CHECK_MSG(z.size() <= 20, "conditioning set too large");
  for (const auto& column : z) {
    CAUSALIOT_CHECK_MSG(column.size() == n, "column length mismatch");
  }
  if (n == 0) {
    CmhResult result;
    return result;
  }
  return internal::cmh_from_counts(context.count_strata(x, y, z, reuse), n);
}

CmhResult cmh_test(const PackedColumn& x, const PackedColumn& y,
                   std::span<const PackedColumn* const> z,
                   CiTestContext& context) {
  const std::size_t n = x.size();
  CAUSALIOT_CHECK_MSG(y.size() == n, "column length mismatch");
  for (const PackedColumn* column : z) {
    CAUSALIOT_CHECK_MSG(column->size() == n, "column length mismatch");
  }
  if (n == 0) {
    CmhResult result;
    return result;
  }
  return internal::cmh_from_counts(context.count_strata(x, y, z), n);
}

CmhResult cmh_test(std::span<const std::uint8_t> x,
                   std::span<const std::uint8_t> y,
                   std::span<const std::span<const std::uint8_t>> z) {
  CiTestContext context;
  return cmh_test(x, y, z, context);
}

CmhResult cmh_test(std::span<const std::uint8_t> x,
                   std::span<const std::uint8_t> y) {
  return cmh_test(x, y, {});
}

}  // namespace causaliot::stats
