// G-square (likelihood-ratio) conditional-independence test for binary data.
//
// TemporalPC (mining/) asks "is X independent of Y given conditioning set
// Z?" for lagged device states. After type unification every variable is
// binary, so the test reduces to a 2x2 contingency table per stratum of Z
// (at most 2^|Z| strata). The statistic
//
//   G^2 = 2 * sum_z sum_{x,y} n_xyz * ln( n_xyz * n_z / (n_xz * n_yz) )
//
// is asymptotically chi-square with (|X|-1)(|Y|-1)*|Z-strata| degrees of
// freedom under the null. Degrees of freedom are adjusted for strata with
// structurally-zero marginals, matching standard causal-discovery
// implementations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "causaliot/stats/ci_context.hpp"

namespace causaliot::stats {

struct GSquareResult {
  double statistic = 0.0;
  /// Adjusted degrees of freedom (0 when every stratum is degenerate).
  double dof = 0.0;
  /// P(chi2(dof) >= statistic); 1.0 when dof == 0 or the test was skipped
  /// for insufficient data.
  double p_value = 1.0;
  std::size_t sample_count = 0;
  /// True when the heuristic `min_samples_per_dof` guard skipped the test.
  bool skipped_insufficient_data = false;
};

struct GSquareOptions {
  /// If > 0, the test is skipped (treated as independent, p = 1) when
  /// sample_count < min_samples_per_dof * nominal_dof. Tetrad-style guard
  /// against meaningless high-dimension tests; 0 disables.
  double min_samples_per_dof = 0.0;
};

/// Tests x ⟂ y | z over aligned sample columns of 0/1 values.
/// All columns must have identical length; |z| <= 20.
GSquareResult g_square_test(std::span<const std::uint8_t> x,
                            std::span<const std::uint8_t> y,
                            std::span<const std::span<const std::uint8_t>> z,
                            const GSquareOptions& options = {});

/// Hot-path variant: reuses `context`'s scratch instead of allocating a
/// fresh stratum table. One context per thread. `reuse` is forwarded to
/// CiTestContext::count_strata (prefix reuse along a subset walk).
GSquareResult g_square_test(std::span<const std::uint8_t> x,
                            std::span<const std::uint8_t> y,
                            std::span<const std::span<const std::uint8_t>> z,
                            const GSquareOptions& options,
                            CiTestContext& context, std::size_t reuse = 0);

/// Packed-column variant: word-parallel counting kernel, same result bit
/// for bit. |z| <= kPackedConditioningLimit.
GSquareResult g_square_test(const PackedColumn& x, const PackedColumn& y,
                            std::span<const PackedColumn* const> z,
                            const GSquareOptions& options,
                            CiTestContext& context);

/// Convenience overload with no conditioning set (marginal independence).
GSquareResult g_square_test(std::span<const std::uint8_t> x,
                            std::span<const std::uint8_t> y,
                            const GSquareOptions& options = {});

}  // namespace causaliot::stats
