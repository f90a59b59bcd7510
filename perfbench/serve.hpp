// Serving side of the benchmark: a fleet of tenants on one
// DetectionService, driven by an open-loop load generator either through
// DetectionService::submit or as JSONL over one loopback TCP connection
// into net::LineProtocolServer + serve::IngestRouter.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "causaliot/core/pipeline.hpp"
#include "causaliot/telemetry/device.hpp"
#include "common.hpp"

namespace perfbench {

/// p99 limit a rung must meet to count as sustained. Far above the
/// ~120 ns detection step and above the host's steal bursts (at 6.5% steal
/// the quiet-half p99 reached 52 ms at two thirds of capacity), so only a
/// growing queue breaches it.
inline constexpr double kLatencyLimitUs = 100000.0;
/// Median lateness of a rung's last quarter of sends above which its
/// backlog counts as growing. Steal bursts of tens of milliseconds leave
/// backlogs below it; 3% over capacity passes it within a 2 s rung.
inline constexpr double kBacklogLimitUs = 50000.0;

struct ServePlan {
  std::size_t tenants = 16;
  std::size_t shards = 1;
  /// Events arrive as JSONL over TCP instead of direct submit() calls.
  bool tcp = false;
  /// Seconds between tenant replacements (remove + add verbs, TCP only);
  /// 0 disables churn.
  double churn_period_s = 0.0;
  /// Offered rate of the latency rung (serve_p50_us, serve_p99_us).
  double nominal_eps = 1000.0;
  double nominal_s = 1.0;
  /// Fixed offered-rate ladder, ascending; serve_max_eps is searched on it.
  std::vector<double> ladder;
  double probe_s = 0.5;
};

/// One served fleet, built in set-up and measured in the timed phase.
class Fleet {
 public:
  /// Builds the service, the 1 s history sampler (as `causaliot serve`
  /// runs it), the ingest plane, and `plan.tenants` tenants instantiated
  /// from one template. Each tenant replays `stream` from a seed-chosen
  /// offset.
  Fleet(const causaliot::core::TrainedModel& model,
        const causaliot::telemetry::DeviceCatalog& catalog,
        std::vector<causaliot::preprocess::BinaryEvent> stream,
        const ServePlan& plan,
        std::uint64_t seed, const Options& options, SpanLog& spans);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Resident bytes the process grew by while the tenants were added,
  /// per tenant (meaningful for the first fleet a process builds).
  double bytes_per_tenant() const;

  /// The timed phase: the nominal latency rung, then the ladder search.
  /// `between_rungs` (may be empty) runs after each rung, with the fleet
  /// drained and idle.
  void run_timed(SpanLog& spans, const std::function<void()>& between_rungs);

  /// After the timed phase: traced-only probes, drain, the correctness
  /// gates (conservation, ingest accounting, alarms against a
  /// single-threaded replay) and the serving metrics.
  void finish(SpanLog& spans, Result& result);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
