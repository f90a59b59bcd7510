// Declarative alerting over the TimeSeriesStore.
//
// Rules are loaded once (from a JSONL file or a built-in set) and
// evaluated on every sampler tick — the TimeSeriesStore's post-sample
// hook is the intended driver, so alerts always see the tick's freshly
// published samples. Three rule kinds:
//
//   threshold  latest raw sample of any matching series compared
//              against a constant (`op` + `value`);
//   rate       per-second change over `window_seconds` — needs at
//              least two raw points inside the window;
//   absence    fires when no matching series exists at all, or the
//              newest sample is older than `stale_seconds` (a stalled
//              sampler or a metric that simply stopped being written).
//
// Each rule runs a pending -> firing -> resolved state machine with
// `for_seconds` hysteresis: the condition must hold continuously for
// that long before the rule fires (for_seconds == 0 fires on the first
// bad tick), and a pending rule whose condition clears falls back to
// inactive without ever firing. Every transition increments
// `obs_alert_transitions_total{rule,to}`, the current state is exported
// as `obs_alert_state{rule}` (0 inactive, 1 pending, 2 firing,
// 3 resolved) plus the `obs_alerts_firing` roll-up, so the alert plane
// is itself observable — and therefore retained by the history store.
//
// Rules file format: JSONL, one flat object per line, '#' comments and
// blank lines ignored. Each line is read by util::scan_flat_json, the
// same grammar as event traces and ingest lines (non-finite numbers
// such as `nan` or `inf` are rejected); string values may not contain
// backslash escapes.
//
//   {"name": "queue_sat", "metric": "serve_queue_depth",
//    "labels": "shard=0", "kind": "threshold", "op": ">=",
//    "value": 48, "for_seconds": 5}
//   {"name": "reject_spike", "metric": "serve_ingest_rejected_total",
//    "kind": "rate", "op": ">", "value": 5, "window_seconds": 10,
//    "for_seconds": 2}
//   {"name": "no_heartbeat", "metric": "serve_watchdog_shard_heartbeat",
//    "kind": "absence", "stale_seconds": 10}
//
// `labels` is a comma-separated subset match ("k=v,k2=v2"); matching
// series must carry every listed pair but may have more. Empty matches
// any instance of the family.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "causaliot/obs/registry.hpp"
#include "causaliot/obs/time_series.hpp"
#include "causaliot/util/result.hpp"

namespace causaliot::obs {

enum class AlertKind : std::uint8_t { kThreshold, kRate, kAbsence };
enum class AlertOp : std::uint8_t { kGt, kGe, kLt, kLe };
enum class AlertState : std::uint8_t {
  kInactive = 0,
  kPending = 1,
  kFiring = 2,
  kResolved = 3,
};

const char* alert_state_name(AlertState state);

struct AlertRule {
  std::string name;    // unique; the `rule` label on exported metrics
  std::string metric;  // family name, exact
  Labels labels;       // subset match; empty = any instance
  AlertKind kind = AlertKind::kThreshold;
  AlertOp op = AlertOp::kGt;
  double value = 0.0;          // threshold / rate bound
  double window_seconds = 0.0;  // rate lookback (required for kRate)
  double for_seconds = 0.0;     // hysteresis before pending -> firing
  double stale_seconds = 0.0;   // absence staleness (required for kAbsence)
};

/// Parses the JSONL rules format described above. Grammar errors (with
/// their byte offset), unknown keys, bad operators, duplicate rule names,
/// and kind/parameter mismatches are reported with their line number.
util::Result<std::vector<AlertRule>> parse_alert_rules(std::string_view text);

class AlertEngine {
 public:
  struct RuleStatus {
    const AlertRule* rule = nullptr;
    AlertState state = AlertState::kInactive;
    std::uint64_t since_ns = 0;      // when the current state was entered
    std::uint64_t last_eval_ns = 0;
    double last_value = 0.0;         // offending (or last observed) value
    std::string series;              // offending series, rendered
    std::uint64_t transitions = 0;
  };

  /// Registers the per-rule metrics eagerly so exposition order is
  /// stable from the first scrape. Rule names must be unique.
  AlertEngine(TimeSeriesStore& store, Registry& registry,
              std::vector<AlertRule> rules);

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /// One evaluation pass over every rule at the given timestamp.
  /// Intended as the store's post-sample hook; safe from any one thread
  /// at a time (internally serialized against status()/to_json()).
  void evaluate(std::uint64_t now_ns);

  std::size_t rule_count() const { return rules_.size(); }
  std::size_t firing_count() const;
  std::uint64_t evaluations() const;

  /// Snapshot of every rule's state (pointer valid for the engine's
  /// lifetime).
  std::vector<RuleStatus> status() const;

  /// The /alertz payloads. `now_ns` dates the "for N s" ages.
  std::string to_json(std::uint64_t now_ns) const;
  std::string to_text(std::uint64_t now_ns) const;

 private:
  struct Runtime {
    AlertRule rule;
    AlertState state = AlertState::kInactive;
    std::uint64_t pending_since_ns = 0;
    std::uint64_t since_ns = 0;
    std::uint64_t last_eval_ns = 0;
    double last_value = 0.0;
    std::string series;
    std::uint64_t transitions = 0;
    Counter* to_pending = nullptr;
    Counter* to_firing = nullptr;
    Counter* to_resolved = nullptr;
    Counter* to_inactive = nullptr;
    Gauge* state_gauge = nullptr;
  };

  /// True (plus offending value/series) if the rule's condition holds
  /// this tick.
  bool condition(const Runtime& rt, std::uint64_t now_ns, double& value,
                 std::string& series) const;
  void transition(Runtime& rt, AlertState to, std::uint64_t now_ns);

  TimeSeriesStore& store_;
  std::vector<Runtime> rules_;
  Counter* evaluations_ = nullptr;
  Gauge* firing_gauge_ = nullptr;

  mutable std::mutex mutex_;
};

}  // namespace causaliot::obs
