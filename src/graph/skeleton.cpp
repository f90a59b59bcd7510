#include "causaliot/graph/skeleton.hpp"

#include <algorithm>

#include "causaliot/util/check.hpp"

namespace causaliot::graph {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffULL;
    hash *= kFnvPrime;
  }
}

}  // namespace

Skeleton::Skeleton(std::size_t max_lag,
                   std::vector<std::vector<LaggedNode>> causes)
    : max_lag_(max_lag), causes_(std::move(causes)) {
  CAUSALIOT_CHECK_MSG(causes_.empty() || max_lag_ >= 1,
                      "max_lag must be >= 1");
  // Immutable from here on: drop any growth slack, so approx_bytes does
  // not depend on how the caller built the lists.
  causes_.shrink_to_fit();
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, causes_.size());
  fnv_mix(hash, max_lag_);
  for (std::vector<LaggedNode>& child_causes : causes_) {
    child_causes.shrink_to_fit();
    CAUSALIOT_CHECK_MSG(std::is_sorted(child_causes.begin(),
                                       child_causes.end()),
                        "skeleton causes must be canonical");
    CAUSALIOT_CHECK_MSG(std::adjacent_find(child_causes.begin(),
                                           child_causes.end()) ==
                            child_causes.end(),
                        "duplicate cause");
    fnv_mix(hash, child_causes.size());
    for (const LaggedNode& cause : child_causes) {
      CAUSALIOT_CHECK_MSG(cause.device < causes_.size(),
                          "cause device out of range");
      CAUSALIOT_CHECK_MSG(cause.lag >= 1 && cause.lag <= max_lag_,
                          "cause lag out of range");
      fnv_mix(hash, cause.device);
      fnv_mix(hash, cause.lag);
    }
    edge_count_ += child_causes.size();
  }
  hash_ = hash;
}

const std::vector<LaggedNode>& Skeleton::causes(
    telemetry::DeviceId child) const {
  CAUSALIOT_CHECK(child < causes_.size());
  return causes_[child];
}

std::size_t Skeleton::approx_bytes() const {
  std::size_t bytes = sizeof(Skeleton) +
                      causes_.capacity() * sizeof(std::vector<LaggedNode>);
  for (const std::vector<LaggedNode>& child_causes : causes_) {
    bytes += child_causes.capacity() * sizeof(LaggedNode);
  }
  return bytes;
}

}  // namespace causaliot::graph
