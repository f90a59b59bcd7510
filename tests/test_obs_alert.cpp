// AlertEngine semantics, driven deterministically: rules-file parsing
// (including every rejection path), the exact pending -> firing ->
// resolved transition sequence under for_duration hysteresis, rate and
// absence rules, label-subset targeting, the exported transition /
// state metrics, and the /alertz JSON + text payloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "causaliot/obs/alert.hpp"
#include "causaliot/obs/registry.hpp"
#include "causaliot/obs/time_series.hpp"

namespace causaliot::obs {
namespace {

constexpr std::uint64_t kSecond = 1'000'000'000ull;

TimeSeriesConfig manual_config() {
  TimeSeriesConfig config;
  config.interval_ms = 0;  // tests drive sample_at() directly
  config.raw_capacity = 64;
  config.agg_capacity = 64;
  config.downsample_every = 8;
  return config;
}

// --- rules-file parsing ---

TEST(ObsAlertRules, ParsesEveryKindWithCommentsAndBlanks) {
  const auto rules = parse_alert_rules(
      "# ops ruleset\n"
      "\n"
      "{\"name\": \"queue_sat\", \"metric\": \"serve_queue_depth\", "
      "\"labels\": \"shard=0\", \"kind\": \"threshold\", \"op\": \">=\", "
      "\"value\": 48, \"for_seconds\": 5}\n"
      "{\"name\": \"reject_spike\", \"metric\": \"rejected_total\", "
      "\"kind\": \"rate\", \"op\": \">\", \"value\": 5, "
      "\"window_seconds\": 10, \"for_seconds\": 2}\n"
      "{\"name\": \"gone\", \"metric\": \"heartbeat\", "
      "\"kind\": \"absence\", \"stale_seconds\": 10}\n");
  ASSERT_TRUE(rules.ok()) << rules.error().to_string();
  ASSERT_EQ(rules->size(), 3u);

  const AlertRule& threshold = (*rules)[0];
  EXPECT_EQ(threshold.name, "queue_sat");
  EXPECT_EQ(threshold.metric, "serve_queue_depth");
  ASSERT_EQ(threshold.labels.size(), 1u);
  EXPECT_EQ(threshold.labels[0].first, "shard");
  EXPECT_EQ(threshold.labels[0].second, "0");
  EXPECT_EQ(threshold.kind, AlertKind::kThreshold);
  EXPECT_EQ(threshold.op, AlertOp::kGe);
  EXPECT_DOUBLE_EQ(threshold.value, 48.0);
  EXPECT_DOUBLE_EQ(threshold.for_seconds, 5.0);

  EXPECT_EQ((*rules)[1].kind, AlertKind::kRate);
  EXPECT_DOUBLE_EQ((*rules)[1].window_seconds, 10.0);
  EXPECT_EQ((*rules)[2].kind, AlertKind::kAbsence);
  EXPECT_DOUBLE_EQ((*rules)[2].stale_seconds, 10.0);
}

TEST(ObsAlertRules, RejectsMalformedRulesWithLineNumbers) {
  const auto check = [](std::string_view text, std::string_view needle) {
    const auto rules = parse_alert_rules(text);
    ASSERT_FALSE(rules.ok()) << "expected rejection: " << text;
    EXPECT_NE(rules.error().to_string().find(needle), std::string::npos)
        << rules.error().to_string();
  };
  check("not json\n", "line 1");
  check("{\"metric\": \"m\", \"value\": 1}\n", "\"name\" is required");
  check("{\"name\": \"r\", \"value\": 1}\n", "\"metric\" is required");
  check("{\"name\": \"r\", \"metric\": \"m\"}\n",
        "threshold rules require \"value\"");
  check("{\"name\": \"r\", \"metric\": \"m\", \"kind\": \"rate\", "
        "\"value\": 1}\n",
        "\"window_seconds\" > 0");
  check("{\"name\": \"r\", \"metric\": \"m\", \"kind\": \"absence\"}\n",
        "\"stale_seconds\" > 0");
  check("{\"name\": \"r\", \"metric\": \"m\", \"op\": \"!=\", "
        "\"value\": 1}\n",
        "\"op\" must be");
  check("{\"name\": \"r\", \"metric\": \"m\", \"kind\": \"sigma\", "
        "\"value\": 1}\n",
        "\"kind\" must be");
  check("{\"name\": \"r\", \"metric\": \"m\", \"value\": 1, "
        "\"bogus\": 2}\n",
        "unknown key \"bogus\"");
  check("{\"name\": \"r\", \"metric\": \"m\", \"labels\": \"oops\", "
        "\"value\": 1}\n",
        "k=v");
  check("{\"name\": \"r\", \"metric\": \"m\", \"value\": 1}\n"
        "{\"name\": \"r\", \"metric\": \"m\", \"value\": 2}\n",
        "line 2: duplicate rule name");
  check("{\"name\": \"a\\\"b\", \"metric\": \"m\", \"value\": 1}\n",
        "\"name\" must be a string without escapes");
  check("# non-finite numbers are grammar errors\n"
        "{\"name\": \"r\", \"metric\": \"m\", \"value\": nan}\n",
        "line 2: non-finite number");
  check("{\"name\": \"r\", \"metric\": \"m\", \"value\": 1}\n"
        "{\"name\": \"q\", \"metric\": \"m\", \"kind\": \"rate\", "
        "\"value\": 1, \"window_seconds\": inf}\n",
        "line 2: non-finite number");
}

// --- the state machine, tick by tick ---

AlertRule threshold_rule(std::string name, std::string metric, double value,
                         double for_seconds) {
  AlertRule rule;
  rule.name = std::move(name);
  rule.metric = std::move(metric);
  rule.kind = AlertKind::kThreshold;
  rule.op = AlertOp::kGt;
  rule.value = value;
  rule.for_seconds = for_seconds;
  return rule;
}

TEST(ObsAlert, ThresholdWithHysteresisWalksTheExactTransitionSequence) {
  Registry registry;
  Gauge& gauge = registry.gauge("m");
  TimeSeriesStore store(registry, manual_config());
  AlertEngine engine(store, registry,
                     {threshold_rule("hot", "m", 10.0, 2.0)});

  std::vector<AlertState> states;
  const auto tick = [&](std::uint64_t t_s, std::int64_t value) {
    gauge.set(value);
    store.sample_at(t_s * kSecond);
    engine.evaluate(t_s * kSecond);
    states.push_back(engine.status()[0].state);
  };

  tick(1, 5);   // healthy            -> inactive
  tick(2, 15);  // first bad tick     -> pending (for 2s)
  tick(3, 15);  // 1s elapsed         -> still pending
  tick(4, 15);  // 2s elapsed         -> firing
  tick(5, 15);  // still bad          -> still firing
  tick(6, 5);   // recovered          -> resolved
  tick(7, 15);  // bad again          -> pending (hysteresis restarts)
  tick(8, 5);   // cleared early      -> inactive, never fired
  EXPECT_EQ(states,
            (std::vector<AlertState>{
                AlertState::kInactive, AlertState::kPending,
                AlertState::kPending, AlertState::kFiring,
                AlertState::kFiring, AlertState::kResolved,
                AlertState::kPending, AlertState::kInactive}));

  // Every transition is metered, by destination state.
  const auto transitions = [&](const char* to) {
    return registry
        .counter("obs_alert_transitions_total",
                 {{"rule", "hot"}, {"to", to}})
        .value();
  };
  EXPECT_EQ(transitions("pending"), 2u);
  EXPECT_EQ(transitions("firing"), 1u);
  EXPECT_EQ(transitions("resolved"), 1u);
  EXPECT_EQ(transitions("inactive"), 1u);
  EXPECT_EQ(registry.gauge("obs_alert_state", {{"rule", "hot"}}).value(),
            static_cast<std::int64_t>(AlertState::kInactive));
  EXPECT_EQ(registry.gauge("obs_alerts_firing").value(), 0);
  EXPECT_EQ(registry.counter("obs_alert_evaluations_total").value(), 8u);

  const AlertEngine::RuleStatus status = engine.status()[0];
  EXPECT_EQ(status.transitions, 5u);
  EXPECT_DOUBLE_EQ(status.last_value, 5.0);
  EXPECT_EQ(status.series, "m");
}

TEST(ObsAlert, ZeroForSecondsFiresOnTheFirstBadTick) {
  Registry registry;
  Gauge& gauge = registry.gauge("m");
  TimeSeriesStore store(registry, manual_config());
  AlertEngine engine(store, registry,
                     {threshold_rule("hot", "m", 10.0, 0.0)});

  gauge.set(99);
  store.sample_at(kSecond);
  engine.evaluate(kSecond);
  EXPECT_EQ(engine.status()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.firing_count(), 1u);
  EXPECT_EQ(registry.gauge("obs_alerts_firing").value(), 1);
}

TEST(ObsAlert, LabelSubsetTargetsOneInstanceAndNamesTheOffender) {
  Registry registry;
  Gauge& shard0 = registry.gauge("depth", {{"shard", "0"}});
  Gauge& shard1 = registry.gauge("depth", {{"shard", "1"}});
  TimeSeriesStore store(registry, manual_config());

  AlertRule rule = threshold_rule("deep", "depth", 10.0, 0.0);
  rule.labels = {{"shard", "1"}};
  AlertEngine engine(store, registry, {std::move(rule)});

  shard0.set(99);  // over the line, but the rule only watches shard 1
  shard1.set(5);
  store.sample_at(1 * kSecond);
  engine.evaluate(1 * kSecond);
  EXPECT_EQ(engine.status()[0].state, AlertState::kInactive);

  shard1.set(42);
  store.sample_at(2 * kSecond);
  engine.evaluate(2 * kSecond);
  const AlertEngine::RuleStatus status = engine.status()[0];
  EXPECT_EQ(status.state, AlertState::kFiring);
  EXPECT_DOUBLE_EQ(status.last_value, 42.0);
  EXPECT_EQ(status.series, "depth{shard=\"1\"}");
}

TEST(ObsAlert, RateRuleMeasuresPerSecondChangeOverTheWindow) {
  Registry registry;
  Counter& counter = registry.counter("rejected_total");
  TimeSeriesStore store(registry, manual_config());

  AlertRule rule;
  rule.name = "spike";
  rule.metric = "rejected_total";
  rule.kind = AlertKind::kRate;
  rule.op = AlertOp::kGt;
  rule.value = 5.0;  // per second
  rule.window_seconds = 60.0;
  AlertEngine engine(store, registry, {std::move(rule)});

  store.sample_at(0);
  engine.evaluate(0);
  // One point: no rate yet, the rule cannot trigger.
  EXPECT_EQ(engine.status()[0].state, AlertState::kInactive);

  counter.add(40);  // 40 over 10 s = 4/s: under the 5/s bound
  store.sample_at(10 * kSecond);
  engine.evaluate(10 * kSecond);
  EXPECT_EQ(engine.status()[0].state, AlertState::kInactive);
  EXPECT_DOUBLE_EQ(engine.status()[0].last_value, 4.0);

  counter.add(160);  // 200 over 20 s = 10/s: over it
  store.sample_at(20 * kSecond);
  engine.evaluate(20 * kSecond);
  EXPECT_EQ(engine.status()[0].state, AlertState::kFiring);
  EXPECT_DOUBLE_EQ(engine.status()[0].last_value, 10.0);
}

TEST(ObsAlert, AbsenceRuleFiresOnMissingThenStaleSeries) {
  Registry registry;
  TimeSeriesConfig config = manual_config();
  config.selectors = {"m"};  // so other metrics never refresh the series
  TimeSeriesStore store(registry, config);

  AlertRule rule;
  rule.name = "gone";
  rule.metric = "m";
  rule.kind = AlertKind::kAbsence;
  rule.stale_seconds = 10.0;
  AlertEngine engine(store, registry, {std::move(rule)});

  // No such series at all: absent from the first evaluation.
  engine.evaluate(1 * kSecond);
  EXPECT_EQ(engine.status()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.status()[0].series, "m (no matching series)");

  // The metric appears and is fresh: the alert resolves.
  registry.gauge("m").set(1);
  store.sample_at(2 * kSecond);
  engine.evaluate(2 * kSecond);
  EXPECT_EQ(engine.status()[0].state, AlertState::kResolved);

  // Time passes with no new samples: stale again.
  engine.evaluate(20 * kSecond);
  EXPECT_EQ(engine.status()[0].state, AlertState::kFiring);
  EXPECT_DOUBLE_EQ(engine.status()[0].last_value, 18.0);  // age seconds
}

TEST(ObsAlert, JsonAndTextPayloadsNameRuleStateAndOffender) {
  Registry registry;
  Gauge& gauge = registry.gauge("m");
  TimeSeriesStore store(registry, manual_config());
  AlertEngine engine(store, registry,
                     {threshold_rule("hot", "m", 10.0, 0.0)});
  gauge.set(77);
  store.sample_at(kSecond);
  engine.evaluate(kSecond);

  const std::string json = engine.to_json(2 * kSecond);
  EXPECT_NE(json.find("\"firing\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"hot\""), std::string::npos);
  EXPECT_NE(json.find("\"state\": \"firing\""), std::string::npos);
  EXPECT_NE(json.find("\"last_value\": 77"), std::string::npos);
  EXPECT_NE(json.find("\"state_age_seconds\": 1.000"), std::string::npos);

  const std::string text = engine.to_text(2 * kSecond);
  EXPECT_NE(text.find("1 firing"), std::string::npos);
  EXPECT_NE(text.find("[firing"), std::string::npos);
  EXPECT_NE(text.find("hot"), std::string::npos);
  EXPECT_NE(text.find("m > 10"), std::string::npos);
}

}  // namespace
}  // namespace causaliot::obs
