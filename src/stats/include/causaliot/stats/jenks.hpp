// Two-class Fisher–Jenks natural break for 1-D discretization.
//
// The Event Preprocessor (§V-A) unifies ambient-numeric device states
// (brightness, temperature) to binary Low/High by splitting at the natural
// break that minimizes within-class variance. With two classes the exact
// optimum (Fisher 1958, Jenks 1967) is one scan over the m sorted distinct
// values: every cut's two within-class sums of squared errors come from
// prefix sums in O(1), so the search is O(m) after an O(n log n) sort.
#pragma once

#include <span>

#include "causaliot/util/result.hpp"

namespace causaliot::stats {

/// The Low/High cut point: the last (largest) value of the low class, so
/// a value v is Low iff v <= threshold. Among cuts with equal total
/// within-class SSE the lowest wins. Fails on empty input or fewer than
/// two distinct values.
util::Result<double> jenks_binary_threshold(std::span<const double> values);

}  // namespace causaliot::stats
