// Cochran–Mantel–Haenszel conditional-independence test.
//
// The standard stratified 2x2 test: across the strata of the conditioning
// set it compares each table's observed a-cell with its hypergeometric
// expectation,
//
//   CMH = (|sum_z (a_z - E[a_z])| - 1/2)^2 / sum_z Var(a_z),
//
// which is chi-square with 1 dof under the null. Compared to G^2 it keeps
// power when individual strata are sparse (counts pool across strata
// instead of each stratum contributing its own dof), at the cost of only
// detecting effects with a consistent direction. TemporalPC can use it as
// an alternative CI test (MinerConfig::ci_test).
#pragma once

#include <cstdint>
#include <span>

#include "causaliot/stats/gsquare.hpp"

namespace causaliot::stats {

struct CmhResult {
  double statistic = 0.0;
  /// P(chi2(1) >= statistic); 1.0 when no stratum is informative.
  double p_value = 1.0;
  std::size_t sample_count = 0;
  std::size_t informative_strata = 0;
};

/// Tests x ⟂ y | z over aligned binary sample columns. |z| <= 20.
CmhResult cmh_test(std::span<const std::uint8_t> x,
                   std::span<const std::uint8_t> y,
                   std::span<const std::span<const std::uint8_t>> z);

/// Hot-path variant: reuses `context`'s scratch instead of allocating a
/// fresh stratum table. One context per thread. `reuse` is forwarded to
/// CiTestContext::count_strata (prefix reuse along a subset walk).
CmhResult cmh_test(std::span<const std::uint8_t> x,
                   std::span<const std::uint8_t> y,
                   std::span<const std::span<const std::uint8_t>> z,
                   CiTestContext& context, std::size_t reuse = 0);

/// Packed-column variant: word-parallel counting kernel, same result bit
/// for bit. |z| <= kPackedConditioningLimit.
CmhResult cmh_test(const PackedColumn& x, const PackedColumn& y,
                   std::span<const PackedColumn* const> z,
                   CiTestContext& context);

/// Marginal variant (single stratum).
CmhResult cmh_test(std::span<const std::uint8_t> x,
                   std::span<const std::uint8_t> y);

}  // namespace causaliot::stats
