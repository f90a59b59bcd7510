#include "causaliot/stats/jenks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "causaliot/util/rng.hpp"

namespace causaliot::stats {
namespace {

// The k-class Fisher–Jenks dynamic program, kept here as the oracle for
// the library's one-pass two-class split. It is the DP the library used
// to run, with one change that reads no different value: the last
// class's row is filled only at j = m - 1, the one entry the backtrack
// reads, so m = 50k stays O(m) for k = 2 instead of O(m^2).
struct OracleBreaks {
  /// Upper bound (inclusive) of each class except the last; size k-1.
  std::vector<double> breaks;
  /// Goodness of variance fit in [0, 1]; 1 means perfect separation.
  double goodness_of_fit = 0.0;
};

bool oracle_natural_breaks(std::span<const double> values,
                           std::size_t class_count, OracleBreaks* out) {
  if (class_count < 2 || values.empty()) return false;
  std::map<double, double> counts;
  for (double v : values) counts[v] += 1.0;
  std::vector<double> value;
  std::vector<double> weight;
  for (const auto& [v, w] : counts) {
    value.push_back(v);
    weight.push_back(w);
  }
  const std::size_t m = value.size();
  if (m < class_count) return false;

  std::vector<double> pw(m + 1, 0.0), pwv(m + 1, 0.0), pwv2(m + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    pw[i + 1] = pw[i] + weight[i];
    pwv[i + 1] = pwv[i] + weight[i] * value[i];
    pwv2[i + 1] = pwv2[i] + weight[i] * value[i] * value[i];
  }
  const auto sse = [&](std::size_t i, std::size_t j) {
    const double w = pw[j + 1] - pw[i];
    const double s = pwv[j + 1] - pwv[i];
    const double s2 = pwv2[j + 1] - pwv2[i];
    return s2 - s * s / w;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // cost[c][j]: minimal SSE splitting prefix [0..j] into c+1 classes.
  std::vector<std::vector<double>> cost(class_count,
                                        std::vector<double>(m, kInf));
  std::vector<std::vector<std::size_t>> cut(class_count,
                                            std::vector<std::size_t>(m, 0));
  for (std::size_t j = 0; j < m; ++j) cost[0][j] = sse(0, j);
  for (std::size_t c = 1; c < class_count; ++c) {
    const std::size_t first_j = c + 1 == class_count ? m - 1 : c;
    for (std::size_t j = first_j; j < m; ++j) {
      for (std::size_t i = c; i <= j; ++i) {
        const double candidate = cost[c - 1][i - 1] + sse(i, j);
        if (candidate < cost[c][j]) {
          cost[c][j] = candidate;
          cut[c][j] = i;  // class c starts at distinct index i
        }
      }
    }
  }

  out->breaks.assign(class_count - 1, 0.0);
  std::size_t j = m - 1;
  for (std::size_t c = class_count - 1; c >= 1; --c) {
    const std::size_t start = cut[c][j];
    out->breaks[c - 1] = value[start - 1];  // last value of class c-1
    j = start - 1;
  }
  const double total_sse = sse(0, m - 1);
  out->goodness_of_fit =
      total_sse > 0.0 ? 1.0 - cost[class_count - 1][m - 1] / total_sse : 1.0;
  return true;
}

OracleBreaks oracle(std::span<const double> values, std::size_t k) {
  OracleBreaks result;
  EXPECT_TRUE(oracle_natural_breaks(values, k, &result));
  return result;
}

// The one-pass threshold must be the oracle's break, bit for bit.
void expect_matches_oracle(const std::vector<double>& values) {
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  const OracleBreaks expected = oracle(values, 2);
  ASSERT_EQ(expected.breaks.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(threshold.value()),
            std::bit_cast<std::uint64_t>(expected.breaks[0]))
      << threshold.value() << " vs " << expected.breaks[0];
}

TEST(Jenks, TwoClearClusters) {
  const std::vector<double> values{1, 2, 1.5, 2.5, 100, 101, 99, 102};
  const OracleBreaks result = oracle(values, 2);
  ASSERT_EQ(result.breaks.size(), 1u);
  EXPECT_GE(result.breaks[0], 2.5);
  EXPECT_LT(result.breaks[0], 99.0);
  EXPECT_GT(result.goodness_of_fit, 0.99);
  expect_matches_oracle(values);
}

TEST(Jenks, ThreeClusters) {
  std::vector<double> values;
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) values.push_back(rng.normal(0.0, 0.5));
  for (int i = 0; i < 50; ++i) values.push_back(rng.normal(50.0, 0.5));
  for (int i = 0; i < 50; ++i) values.push_back(rng.normal(100.0, 0.5));
  const OracleBreaks result = oracle(values, 3);
  ASSERT_EQ(result.breaks.size(), 2u);
  // Convention: a break is the last value of its class, so breaks sit at
  // the upper edge of each cluster.
  EXPECT_GT(result.breaks[0], -5.0);
  EXPECT_LT(result.breaks[0], 45.0);
  EXPECT_GT(result.breaks[1], 45.0);
  EXPECT_LT(result.breaks[1], 95.0);
}

TEST(Jenks, DuplicatesAreWeighted) {
  // The heavy cluster at 10 should not shift the break toward sparse
  // outliers.
  std::vector<double> values(100, 10.0);
  values.insert(values.end(), {200.0, 201.0, 202.0});
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  EXPECT_GE(threshold.value(), 10.0);
  EXPECT_LT(threshold.value(), 200.0);
  expect_matches_oracle(values);
}

TEST(Jenks, BreaksAreSorted) {
  util::Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.uniform_real(0, 1000));
  const OracleBreaks result = oracle(values, 4);
  EXPECT_TRUE(std::is_sorted(result.breaks.begin(), result.breaks.end()));
}

TEST(Jenks, ErrorOnTooFewDistinctValues) {
  EXPECT_FALSE(jenks_binary_threshold(std::vector<double>{5, 5, 5}).ok());
}

TEST(Jenks, ErrorOnEmptyInput) {
  EXPECT_FALSE(jenks_binary_threshold(std::vector<double>{}).ok());
}

TEST(Jenks, ErrorWhenNoCutHasAFiniteCost) {
  // Squares of +-1e200 overflow, so every cut's SSE is NaN; the scan
  // reports the failure instead of returning a value it never chose.
  EXPECT_FALSE(
      jenks_binary_threshold(std::vector<double>{-1e200, 1e200, 1e200}).ok());
}

TEST(Jenks, ExactlyTwoDistinctValues) {
  const std::vector<double> values{7, 0, 0, 7, 0};
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  EXPECT_EQ(threshold.value(), 0.0);
  EXPECT_DOUBLE_EQ(oracle(values, 2).goodness_of_fit, 1.0);
  expect_matches_oracle(values);
}

TEST(Jenks, ExactTieKeepsTheFirstMinimum) {
  // Distinct values 0, 10, 20 with equal weights: cutting after 0 and
  // after 10 both leave SSE 100 in exact arithmetic. The lower cut wins.
  const std::vector<double> values{20, 10, 0, 20, 10, 0};
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  EXPECT_EQ(threshold.value(), 0.0);
  expect_matches_oracle(values);
}

TEST(Jenks, SignedZerosCollapseLikeTheOracle) {
  // -0.0 == 0.0, so both land in one distinct value; the first seen
  // represents it, as in the oracle's std::map.
  expect_matches_oracle({-0.0, 0.0, 5.0, 5.0, 6.0});
  expect_matches_oracle({0.0, -0.0, 5.0, 5.0, 6.0});
  const auto threshold =
      jenks_binary_threshold(std::vector<double>{-0.0, 0.0, 5.0, 6.0});
  ASSERT_TRUE(threshold.ok());
  EXPECT_TRUE(std::signbit(threshold.value()));
}

TEST(JenksEquivalence, RandomInputsWithManyDuplicates) {
  util::Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    // Few distinct levels, many repeats, and small integers whose SSEs
    // are exact, so ties between cuts really occur.
    const std::uint64_t levels = 2 + rng.uniform(12);
    const std::size_t count = 2 + rng.uniform(300);
    std::vector<double> values;
    for (std::size_t i = 0; i < count; ++i) {
      values.push_back(static_cast<double>(rng.uniform(levels)));
    }
    if (std::all_of(values.begin(), values.end(),
                    [&](double v) { return v == values[0]; })) {
      values.push_back(values[0] + 1.0);
    }
    expect_matches_oracle(values);
  }
}

TEST(JenksEquivalence, RandomRealInputs) {
  util::Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    const double spread = rng.uniform_real(0.1, 1e4);
    const std::size_t count = 2 + rng.uniform(2000);
    std::vector<double> values;
    for (std::size_t i = 0; i < count; ++i) {
      // Rounded to a grid so duplicates mix with distinct reals.
      const double v = rng.normal(0.0, spread);
      values.push_back(trial % 2 == 0 ? std::round(v) : v);
    }
    values.push_back(spread * 3.0);  // at least two distinct values
    expect_matches_oracle(values);
  }
}

TEST(JenksEquivalence, LargeDistinctSet) {
  // m >= 50k distinct values, the scale of an ambient sensor over the
  // 28-day ContextAct trace.
  util::Rng rng(6);
  std::vector<double> values;
  for (int i = 0; i < 40000; ++i) values.push_back(rng.normal(20.0, 4.0));
  for (int i = 0; i < 30000; ++i) values.push_back(rng.normal(300.0, 60.0));
  for (int i = 0; i < 10000; ++i) {
    values.push_back(std::round(rng.uniform_real(0.0, 400.0)));
  }
  std::vector<double> distinct = values;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  ASSERT_GE(distinct.size(), 50000u);
  expect_matches_oracle(values);
}

TEST(JenksBinaryThreshold, SplitsBimodalData) {
  util::Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.normal(5.0, 1.0));
  for (int i = 0; i < 300; ++i) values.push_back(rng.normal(120.0, 10.0));
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  EXPECT_GT(threshold.value(), 2.0);
  EXPECT_LT(threshold.value(), 100.0);
}

// Property: for 2 classes, every value below the break is closer to the
// low-class mean and most values above are closer to the high-class mean.
class JenksSeparation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JenksSeparation, BreakSeparatesBimodalMass) {
  util::Rng rng(GetParam());
  std::vector<double> values;
  const double low_center = rng.uniform_real(0, 20);
  const double high_center = low_center + rng.uniform_real(60, 200);
  for (int i = 0; i < 200; ++i) values.push_back(rng.normal(low_center, 3));
  for (int i = 0; i < 200; ++i) values.push_back(rng.normal(high_center, 3));
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  std::size_t misassigned = 0;
  for (double v : values) {
    const bool below = v <= threshold.value();
    const bool from_low_cluster =
        std::abs(v - low_center) < std::abs(v - high_center);
    misassigned += below != from_low_cluster;
  }
  EXPECT_LE(misassigned, values.size() / 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JenksSeparation,
                         ::testing::Values(10ULL, 20ULL, 30ULL, 40ULL,
                                           50ULL));

}  // namespace
}  // namespace causaliot::stats
