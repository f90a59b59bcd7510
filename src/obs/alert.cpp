#include "causaliot/obs/alert.hpp"

#include <algorithm>
#include <cinttypes>

#include "causaliot/util/check.hpp"
#include "causaliot/util/flat_json.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::obs {

namespace {

const char* op_name(AlertOp op) {
  switch (op) {
    case AlertOp::kGt: return ">";
    case AlertOp::kGe: return ">=";
    case AlertOp::kLt: return "<";
    case AlertOp::kLe: return "<=";
  }
  return "?";
}

const char* kind_name(AlertKind kind) {
  switch (kind) {
    case AlertKind::kThreshold: return "threshold";
    case AlertKind::kRate: return "rate";
    case AlertKind::kAbsence: return "absence";
  }
  return "?";
}

bool compare(AlertOp op, double value, double bound) {
  switch (op) {
    case AlertOp::kGt: return value > bound;
    case AlertOp::kGe: return value >= bound;
    case AlertOp::kLt: return value < bound;
    case AlertOp::kLe: return value <= bound;
  }
  return false;
}

/// Given the rule's direction, is `candidate` a worse offender than
/// `incumbent`? (Higher is worse for > / >=, lower for < / <=.)
bool worse(AlertOp op, double candidate, double incumbent) {
  switch (op) {
    case AlertOp::kGt:
    case AlertOp::kGe: return candidate > incumbent;
    case AlertOp::kLt:
    case AlertOp::kLe: return candidate < incumbent;
  }
  return false;
}

/// True when the series carries every pair the rule demands.
bool labels_subset(const Labels& wanted, const Labels& have) {
  for (const auto& [key, value] : wanted) {
    const auto it = std::find_if(have.begin(), have.end(), [&](const auto& p) {
      return p.first == key;
    });
    if (it == have.end() || it->second != value) return false;
  }
  return true;
}

std::string render_series(const TimeSeriesStore::SeriesRef& ref) {
  std::string out = ref.name;
  if (ref.labels.empty()) return out;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : ref.labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += value;
    out += '"';
  }
  out += '}';
  return out;
}

util::Error line_error(std::size_t line_number, const std::string& what) {
  return util::Error::parse_error(
      util::format("alert rules line %zu: %s", line_number, what.c_str()));
}

}  // namespace

const char* alert_state_name(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

util::Result<std::vector<AlertRule>> parse_alert_rules(std::string_view text) {
  std::vector<AlertRule> rules;
  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t newline = text.find('\n', start);
    const std::string_view line =
        text.substr(start, newline == std::string_view::npos
                               ? text.size() - start
                               : newline - start);
    ++line_number;
    start = newline == std::string_view::npos ? text.size() + 1 : newline + 1;
    const std::string_view content = util::trim(line);
    if (content.empty() || content.front() == '#') continue;

    AlertRule rule;
    bool has_value = false;
    bool has_kind = false;
    std::string refusal;  // why the first refused member was refused
    const auto visit = [&](std::string_view key,
                           const util::FlatJsonValue& member) {
      const auto refuse = [&](const char* why) {
        refusal = util::format("\"%.*s\" %s", static_cast<int>(key.size()),
                               key.data(), why);
        return false;
      };
      double* number = key == "value"            ? &rule.value
                       : key == "window_seconds" ? &rule.window_seconds
                       : key == "for_seconds"    ? &rule.for_seconds
                       : key == "stale_seconds"  ? &rule.stale_seconds
                                                 : nullptr;
      if (number != nullptr) {
        if (!member.is_number()) return refuse("must be a number");
        *number = member.number;
        has_value |= number == &rule.value;
        return true;
      }
      if (key != "name" && key != "metric" && key != "labels" &&
          key != "kind" && key != "op") {
        refusal = util::format("unknown key \"%.*s\"",
                               static_cast<int>(key.size()), key.data());
        return false;
      }
      if (!member.is_string() || member.escaped) {
        return refuse("must be a string without escapes");
      }
      const std::string_view str = member.text;
      if (key == "name") {
        rule.name = std::string(str);
      } else if (key == "metric") {
        rule.metric = std::string(str);
      } else if (key == "labels") {
        for (const std::string& item : util::split(str, ',')) {
          const std::string_view pair = util::trim(item);
          if (pair.empty()) continue;
          const std::size_t eq = pair.find('=');
          if (eq == std::string_view::npos || eq == 0) {
            return refuse("entries must look like k=v");
          }
          rule.labels.emplace_back(
              std::string(util::trim(pair.substr(0, eq))),
              std::string(util::trim(pair.substr(eq + 1))));
        }
        std::sort(rule.labels.begin(), rule.labels.end());
      } else if (key == "kind") {
        has_kind = true;
        if (str == "threshold") {
          rule.kind = AlertKind::kThreshold;
        } else if (str == "rate") {
          rule.kind = AlertKind::kRate;
        } else if (str == "absence") {
          rule.kind = AlertKind::kAbsence;
        } else {
          return refuse("must be threshold | rate | absence");
        }
      } else if (str == ">") {  // the key is "op" from here on
        rule.op = AlertOp::kGt;
      } else if (str == ">=") {
        rule.op = AlertOp::kGe;
      } else if (str == "<") {
        rule.op = AlertOp::kLt;
      } else if (str == "<=") {
        rule.op = AlertOp::kLe;
      } else {
        return refuse("must be > | >= | < | <=");
      }
      return true;
    };
    if (const auto error = util::scan_flat_json(line, visit)) {
      return line_error(line_number,
                        !refusal.empty()
                            ? refusal
                            : util::format("%s at offset %zu", error->what,
                                           error->offset));
    }

    if (rule.name.empty()) {
      return line_error(line_number, "\"name\" is required");
    }
    if (rule.metric.empty()) {
      return line_error(line_number, "\"metric\" is required");
    }
    if (!has_kind) rule.kind = AlertKind::kThreshold;
    switch (rule.kind) {
      case AlertKind::kThreshold:
        if (!has_value) {
          return line_error(line_number,
                            "threshold rules require \"value\"");
        }
        break;
      case AlertKind::kRate:
        if (!has_value) {
          return line_error(line_number, "rate rules require \"value\"");
        }
        if (rule.window_seconds <= 0.0) {
          return line_error(line_number,
                            "rate rules require \"window_seconds\" > 0");
        }
        break;
      case AlertKind::kAbsence:
        if (rule.stale_seconds <= 0.0) {
          return line_error(line_number,
                            "absence rules require \"stale_seconds\" > 0");
        }
        break;
    }
    for (const AlertRule& existing : rules) {
      if (existing.name == rule.name) {
        return line_error(line_number,
                          util::format("duplicate rule name \"%s\"",
                                       rule.name.c_str()));
      }
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

AlertEngine::AlertEngine(TimeSeriesStore& store, Registry& registry,
                         std::vector<AlertRule> rules)
    : store_(store) {
  rules_.reserve(rules.size());
  for (AlertRule& rule : rules) {
    for (const Runtime& existing : rules_) {
      CAUSALIOT_CHECK_MSG(existing.rule.name != rule.name,
                          "duplicate alert rule name");
    }
    Runtime rt;
    rt.rule = std::move(rule);
    const std::string& name = rt.rule.name;
    rt.to_pending = &registry.counter(
        "obs_alert_transitions_total", {{"rule", name}, {"to", "pending"}},
        "Alert rule state transitions by destination state");
    rt.to_firing = &registry.counter("obs_alert_transitions_total",
                                     {{"rule", name}, {"to", "firing"}});
    rt.to_resolved = &registry.counter("obs_alert_transitions_total",
                                       {{"rule", name}, {"to", "resolved"}});
    rt.to_inactive = &registry.counter("obs_alert_transitions_total",
                                       {{"rule", name}, {"to", "inactive"}});
    rt.state_gauge = &registry.gauge(
        "obs_alert_state", {{"rule", name}},
        "Current alert rule state (0 inactive, 1 pending, 2 firing, "
        "3 resolved)");
    rules_.push_back(std::move(rt));
  }
  evaluations_ = &registry.counter("obs_alert_evaluations_total", {},
                                   "Alert engine evaluation passes");
  firing_gauge_ =
      &registry.gauge("obs_alerts_firing", {}, "Alert rules currently firing");
}

bool AlertEngine::condition(const Runtime& rt, std::uint64_t now_ns,
                            double& value, std::string& series) const {
  const AlertRule& rule = rt.rule;
  switch (rule.kind) {
    case AlertKind::kThreshold: {
      const auto windows = store_.raw_window(rule.metric, 0, now_ns);
      bool found = false;
      double best = 0.0;
      std::string best_series;
      for (const auto& window : windows) {
        if (window.points.empty()) continue;
        if (!labels_subset(rule.labels, window.ref.labels)) continue;
        const double v = window.points.back().value;
        if (!found || worse(rule.op, v, best)) {
          best = v;
          best_series = render_series(window.ref);
        }
        found = true;
      }
      if (!found) return false;
      value = best;
      series = std::move(best_series);
      return compare(rule.op, best, rule.value);
    }
    case AlertKind::kRate: {
      const std::uint64_t window_ns =
          window_seconds_to_ns(rule.window_seconds);
      const auto windows = store_.raw_window(rule.metric, window_ns, now_ns);
      bool found = false;
      double best = 0.0;
      std::string best_series;
      for (const auto& window : windows) {
        if (window.points.size() < 2) continue;
        if (!labels_subset(rule.labels, window.ref.labels)) continue;
        const auto& first = window.points.front();
        const auto& last = window.points.back();
        if (last.t_ns <= first.t_ns) continue;
        const double dt =
            static_cast<double>(last.t_ns - first.t_ns) / 1e9;
        const double rate = (last.value - first.value) / dt;
        if (!found || worse(rule.op, rate, best)) {
          best = rate;
          best_series = render_series(window.ref);
        }
        found = true;
      }
      if (!found) return false;
      value = best;
      series = std::move(best_series);
      return compare(rule.op, best, rule.value);
    }
    case AlertKind::kAbsence: {
      const auto windows = store_.raw_window(rule.metric, 0, now_ns);
      bool found = false;
      std::uint64_t newest_ns = 0;
      std::string newest_series;
      for (const auto& window : windows) {
        if (window.points.empty()) continue;
        if (!labels_subset(rule.labels, window.ref.labels)) continue;
        const std::uint64_t t = window.points.back().t_ns;
        if (!found || t > newest_ns) {
          newest_ns = t;
          newest_series = render_series(window.ref);
        }
        found = true;
      }
      if (!found) {
        value = 0.0;
        series = rule.metric + " (no matching series)";
        return true;
      }
      const double age_seconds =
          now_ns > newest_ns
              ? static_cast<double>(now_ns - newest_ns) / 1e9
              : 0.0;
      value = age_seconds;
      series = std::move(newest_series);
      return age_seconds > rule.stale_seconds;
    }
  }
  return false;
}

void AlertEngine::transition(Runtime& rt, AlertState to,
                             std::uint64_t now_ns) {
  rt.state = to;
  rt.since_ns = now_ns;
  ++rt.transitions;
  switch (to) {
    case AlertState::kPending: rt.to_pending->increment(); break;
    case AlertState::kFiring: rt.to_firing->increment(); break;
    case AlertState::kResolved: rt.to_resolved->increment(); break;
    case AlertState::kInactive: rt.to_inactive->increment(); break;
  }
  rt.state_gauge->set(static_cast<std::int64_t>(to));
}

void AlertEngine::evaluate(std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  evaluations_->increment();
  std::int64_t firing = 0;
  for (Runtime& rt : rules_) {
    double value = rt.last_value;
    std::string series = rt.series;
    const bool cond = condition(rt, now_ns, value, series);
    rt.last_eval_ns = now_ns;
    rt.last_value = value;
    rt.series = std::move(series);
    const double for_ns = rt.rule.for_seconds * 1e9;
    switch (rt.state) {
      case AlertState::kInactive:
      case AlertState::kResolved:
        if (cond) {
          if (rt.rule.for_seconds <= 0.0) {
            transition(rt, AlertState::kFiring, now_ns);
          } else {
            rt.pending_since_ns = now_ns;
            transition(rt, AlertState::kPending, now_ns);
          }
        }
        break;
      case AlertState::kPending:
        if (!cond) {
          transition(rt, AlertState::kInactive, now_ns);
        } else if (static_cast<double>(now_ns - rt.pending_since_ns) >=
                   for_ns) {
          transition(rt, AlertState::kFiring, now_ns);
        }
        break;
      case AlertState::kFiring:
        if (!cond) transition(rt, AlertState::kResolved, now_ns);
        break;
    }
    if (rt.state == AlertState::kFiring) ++firing;
  }
  firing_gauge_->set(firing);
}

std::size_t AlertEngine::firing_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t firing = 0;
  for (const Runtime& rt : rules_) {
    if (rt.state == AlertState::kFiring) ++firing;
  }
  return firing;
}

std::uint64_t AlertEngine::evaluations() const {
  return evaluations_->value();
}

std::vector<AlertEngine::RuleStatus> AlertEngine::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RuleStatus> out;
  out.reserve(rules_.size());
  for (const Runtime& rt : rules_) {
    RuleStatus status;
    status.rule = &rt.rule;
    status.state = rt.state;
    status.since_ns = rt.since_ns;
    status.last_eval_ns = rt.last_eval_ns;
    status.last_value = rt.last_value;
    status.series = rt.series;
    status.transitions = rt.transitions;
    out.push_back(std::move(status));
  }
  return out;
}

std::string AlertEngine::to_json(std::uint64_t now_ns) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = util::format(
      "{\"firing\": %zu, \"evaluations\": %" PRIu64 ", \"rules\": [",
      [&] {
        std::size_t firing = 0;
        for (const Runtime& rt : rules_) {
          if (rt.state == AlertState::kFiring) ++firing;
        }
        return firing;
      }(),
      evaluations_->value());
  bool first = true;
  for (const Runtime& rt : rules_) {
    if (!first) out += ", ";
    first = false;
    const double age_seconds =
        rt.since_ns > 0 && now_ns > rt.since_ns
            ? static_cast<double>(now_ns - rt.since_ns) / 1e9
            : 0.0;
    out += util::format(
        "{\"name\": \"%s\", \"metric\": \"%s\", \"kind\": \"%s\", "
        "\"op\": \"%s\", \"value\": %.12g, \"for_seconds\": %.3f, "
        "\"state\": \"%s\", \"state_age_seconds\": %.3f, "
        "\"since_unix_ms\": %lld, \"last_value\": %.12g, "
        "\"series\": \"%s\", \"transitions\": %" PRIu64 "}",
        util::json_escape(rt.rule.name).c_str(),
        util::json_escape(rt.rule.metric).c_str(), kind_name(rt.rule.kind),
        op_name(rt.rule.op), rt.rule.value, rt.rule.for_seconds,
        alert_state_name(rt.state), age_seconds,
        rt.since_ns > 0
            ? static_cast<long long>(store_.to_unix_ms(rt.since_ns))
            : 0LL,
        rt.last_value, util::json_escape(rt.series).c_str(), rt.transitions);
  }
  out += "]}";
  return out;
}

std::string AlertEngine::to_text(std::uint64_t now_ns) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t firing = 0;
  for (const Runtime& rt : rules_) {
    if (rt.state == AlertState::kFiring) ++firing;
  }
  std::string out = util::format(
      "alerts: %zu rules, %zu firing, %" PRIu64 " evaluations\n",
      rules_.size(), firing, evaluations_->value());
  for (const Runtime& rt : rules_) {
    const double age_seconds =
        rt.since_ns > 0 && now_ns > rt.since_ns
            ? static_cast<double>(now_ns - rt.since_ns) / 1e9
            : 0.0;
    std::string condition_text;
    switch (rt.rule.kind) {
      case AlertKind::kThreshold:
        condition_text = util::format("%s %s %.12g", rt.rule.metric.c_str(),
                                      op_name(rt.rule.op), rt.rule.value);
        break;
      case AlertKind::kRate:
        condition_text = util::format(
            "rate(%s, %.0fs) %s %.12g/s", rt.rule.metric.c_str(),
            rt.rule.window_seconds, op_name(rt.rule.op), rt.rule.value);
        break;
      case AlertKind::kAbsence:
        condition_text = util::format("absent(%s) > %.0fs",
                                      rt.rule.metric.c_str(),
                                      rt.rule.stale_seconds);
        break;
    }
    out += util::format(
        "[%-8s] %-24s %s  value=%.12g  series=%s  for %.1fs  "
        "(transitions %" PRIu64 ")\n",
        alert_state_name(rt.state), rt.rule.name.c_str(),
        condition_text.c_str(), rt.last_value, rt.series.c_str(), age_seconds,
        rt.transitions);
  }
  return out;
}

}  // namespace causaliot::obs
