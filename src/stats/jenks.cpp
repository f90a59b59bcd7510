#include "causaliot/stats/jenks.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

namespace causaliot::stats {

util::Result<double> jenks_binary_threshold(std::span<const double> values) {
  if (values.empty()) {
    return util::Error::invalid_argument("empty value set");
  }
  // The distinct values are the runs of the sorted copy. The sort is
  // stable so that among values that compare equal (-0.0 and 0.0) the
  // first seen represents the run.
  std::vector<double> sorted(values.begin(), values.end());
  std::stable_sort(sorted.begin(), sorted.end());
  const auto for_each_distinct = [&](auto&& visit) {
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t run = i + 1;
      while (run < sorted.size() && sorted[run] == sorted[i]) ++run;
      visit(sorted[i], static_cast<double>(run - i));
      i = run;
    }
  };

  // Weighted totals, accumulated in the same order as the running prefix
  // sums below, so both passes produce the same doubles.
  std::size_t m = 0;
  double total_w = 0.0, total_wv = 0.0, total_wv2 = 0.0;
  for_each_distinct([&](double v, double w) {
    ++m;
    total_w += w;
    total_wv += w * v;
    total_wv2 += w * v * v;
  });
  if (m < 2) {
    return util::Error::failed_precondition(
        "fewer distinct values than classes");
  }

  // SSE of a class from its weight, weighted sum and weighted sum of
  // squares.
  const auto sse = [](double w, double s, double s2) {
    return s2 - s * s / w;
  };
  // Cutting after a distinct value puts it and everything below in the
  // low class. The strict < keeps the first minimum, so ties resolve to
  // the lowest threshold.
  double best = std::numeric_limits<double>::infinity();
  std::optional<double> threshold;
  std::size_t seen = 0;
  double w = 0.0, wv = 0.0, wv2 = 0.0;
  for_each_distinct([&](double v, double weight) {
    w += weight;
    wv += weight * v;
    wv2 += weight * v * v;
    if (++seen == m) return;  // the high class may not be empty
    const double candidate =
        sse(w, wv, wv2) + sse(total_w - w, total_wv - wv, total_wv2 - wv2);
    if (candidate < best) {
      best = candidate;
      threshold = v;
    }
  });
  if (!threshold) {
    return util::Error::failed_precondition("no finite two-class split");
  }
  return *threshold;
}

}  // namespace causaliot::stats
