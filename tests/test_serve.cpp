// DetectionService integration tests: the acceptance bar for the serving
// subsystem. A replayed trace through >= 4 concurrent tenant sessions
// must produce, per tenant, the exact same alarm sequence as the batch
// EventMonitor on the same trace; a hot model swap mid-stream must lose
// no events; backpressure counters must be exact under each policy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "causaliot/core/experiment.hpp"
#include "causaliot/detect/explanation.hpp"
#include "causaliot/detect/root_cause.hpp"
#include "causaliot/serve/alarm_json.hpp"
#include "causaliot/serve/blame.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::HomeProfile profile = sim::contextact_profile();
    profile.days = 6.0;
    core::ExperimentConfig config;
    config.seed = 77;
    experiment_ =
        new core::Experiment(core::build_experiment(std::move(profile), config));
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  /// The reference: the batch monitor path over the same runtime stream,
  /// including the end-of-stream window flush (mirrored by shutdown()).
  static std::vector<detect::AnomalyReport> batch_alarms(std::size_t k_max) {
    detect::EventMonitor monitor = experiment_->model.make_monitor(
        k_max, experiment_->test_series.snapshot_state(0));
    std::vector<detect::AnomalyReport> alarms;
    for (const auto& event : experiment_->test_runtime_events) {
      if (auto report = monitor.process(event)) {
        alarms.push_back(std::move(*report));
      }
    }
    if (auto tail = monitor.finish()) alarms.push_back(std::move(*tail));
    return alarms;
  }

  static std::shared_ptr<const ModelSnapshot> snapshot(std::uint64_t version) {
    const core::TrainedModel& model = experiment_->model;
    return make_snapshot(model.graph, model.score_threshold,
                         model.laplace_alpha, version);
  }

  static core::Experiment* experiment_;
};

core::Experiment* ServeTest::experiment_ = nullptr;

/// Thread-safe per-tenant alarm collector. Per-tenant order is total:
/// a tenant's alarms all come from its single shard worker (and then,
/// after the workers joined, from the shutdown flush).
struct AlarmLog {
  std::mutex mutex;
  std::map<std::string, std::vector<ServedAlarm>> by_tenant;

  AlarmCallback callback() {
    return [this](const ServedAlarm& alarm) {
      std::lock_guard<std::mutex> lock(mutex);
      by_tenant[alarm.tenant_name].push_back(alarm);
    };
  }
};

void expect_matches_batch(const std::vector<ServedAlarm>& served,
                          const std::vector<detect::AnomalyReport>& batch) {
  ASSERT_EQ(served.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const detect::AnomalyReport& got = served[i].report;
    const detect::AnomalyReport& want = batch[i];
    ASSERT_EQ(got.entries.size(), want.entries.size()) << "alarm " << i;
    EXPECT_EQ(got.ended_by_abrupt_event, want.ended_by_abrupt_event)
        << "alarm " << i;
    for (std::size_t e = 0; e < want.entries.size(); ++e) {
      EXPECT_EQ(got.entries[e].stream_index, want.entries[e].stream_index);
      EXPECT_EQ(got.entries[e].event, want.entries[e].event);
      // Same code path, same doubles: bit-identical, not approximately.
      EXPECT_EQ(got.entries[e].score, want.entries[e].score);
    }
  }
}

/// Attribution is a pure function of (report, graph, config): a served
/// alarm's ranked blame must equal a recomputation under the training
/// graph bit-for-bit, score doubles included.
void expect_same_attribution(const detect::RootCauseAttribution& got,
                             const detect::RootCauseAttribution& want) {
  EXPECT_EQ(got.edges_walked, want.edges_walked);
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (std::size_t i = 0; i < want.ranked.size(); ++i) {
    EXPECT_EQ(got.ranked[i].device, want.ranked[i].device);
    EXPECT_EQ(got.ranked[i].score, want.ranked[i].score);  // bitwise
    EXPECT_EQ(got.ranked[i].flagged, want.ranked[i].flagged);
    EXPECT_EQ(got.ranked[i].path, want.ranked[i].path);
  }
}

TEST_F(ServeTest, MultiTenantReplayMatchesBatchMonitor) {
  constexpr std::size_t kTenants = 5;
  const std::vector<detect::AnomalyReport> batch = batch_alarms(3);
  ASSERT_FALSE(batch.empty());  // the bar is meaningless on a silent trace

  ServiceConfig config;
  config.shard_count = 2;
  config.queue_capacity = 256;
  config.overflow = util::OverflowPolicy::kBlock;  // lossless
  config.session.k_max = 3;
  AlarmLog log;
  DetectionService service(config, log.callback());

  std::vector<TenantHandle> handles;
  for (std::size_t i = 0; i < kTenants; ++i) {
    handles.push_back(service.add_tenant("home-" + std::to_string(i),
                                         snapshot(1),
                                         experiment_->test_series.snapshot_state(0)));
  }
  service.start();
  const ReplayStats replay = replay_trace(service, handles,
                                          experiment_->test_runtime_events);
  service.shutdown();

  const std::size_t events = experiment_->test_runtime_events.size();
  EXPECT_EQ(replay.submitted, events * kTenants);
  EXPECT_EQ(replay.rejected, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.events_submitted, events * kTenants);
  EXPECT_EQ(stats.events_processed, events * kTenants);
  EXPECT_EQ(stats.queue_dropped_oldest, 0u);
  EXPECT_EQ(stats.queue_rejected, 0u);
  EXPECT_EQ(stats.latency.count, events * kTenants);
  EXPECT_LE(stats.latency.p50, stats.latency.p99);
  EXPECT_LE(stats.latency.p99, stats.latency.max);

  // Every tenant independently reproduces the batch alarm sequence.
  for (const TenantHandle handle : handles) {
    const std::string& name = service.session(handle).name();
    ASSERT_TRUE(log.by_tenant.count(name)) << name;
    expect_matches_batch(log.by_tenant[name], batch);
    EXPECT_EQ(service.session(handle).events_processed(), events);
  }
  EXPECT_EQ(stats.alarms_total, batch.size() * kTenants);
}

TEST_F(ServeTest, HotSwapMidStreamLosesNoEvents) {
  constexpr std::size_t kTenants = 4;
  const std::vector<detect::AnomalyReport> batch = batch_alarms(2);
  ASSERT_FALSE(batch.empty());

  ServiceConfig config;
  config.shard_count = 2;
  config.session.k_max = 2;
  AlarmLog log;
  DetectionService service(config, log.callback());
  std::vector<TenantHandle> handles;
  for (std::size_t i = 0; i < kTenants; ++i) {
    handles.push_back(service.add_tenant("home-" + std::to_string(i),
                                         snapshot(1),
                                         experiment_->test_series.snapshot_state(0)));
  }
  service.start();

  // First half under model v1, then publish an equivalent v2 snapshot for
  // every tenant while its worker is mid-stream, then the second half.
  // The swap transplants the monitor state, so the alarm sequence must be
  // indistinguishable from an uninterrupted run.
  const auto& events = experiment_->test_runtime_events;
  const std::size_t half = events.size() / 2;
  for (std::size_t j = 0; j < half; ++j) {
    for (const TenantHandle handle : handles) {
      ASSERT_EQ(service.submit(handle, events[j]),
                DetectionService::SubmitResult::kAccepted);
    }
  }
  for (const TenantHandle handle : handles) {
    service.swap_model(handle, snapshot(2));
  }
  for (std::size_t j = half; j < events.size(); ++j) {
    for (const TenantHandle handle : handles) {
      ASSERT_EQ(service.submit(handle, events[j]),
                DetectionService::SubmitResult::kAccepted);
    }
  }
  service.shutdown();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.events_submitted, events.size() * kTenants);
  EXPECT_EQ(stats.events_processed, events.size() * kTenants);
  EXPECT_EQ(stats.model_swaps_published, kTenants);
  EXPECT_EQ(stats.model_swaps_adopted, kTenants);
  for (const TenantHandle handle : handles) {
    const TenantSession& session = service.session(handle);
    EXPECT_EQ(session.events_processed(), events.size());
    EXPECT_EQ(session.swaps_adopted(), 1u);
    EXPECT_EQ(session.active_model().version, 2u);
    expect_matches_batch(log.by_tenant[session.name()], batch);
    // The swap must not perturb the ranked blame either: every served
    // alarm is non-empty and bit-identical to the batch attribution.
    const std::vector<ServedAlarm>& served = log.by_tenant[session.name()];
    for (std::size_t i = 0; i < served.size(); ++i) {
      ASSERT_FALSE(served[i].root_causes.ranked.empty()) << "alarm " << i;
      expect_same_attribution(
          served[i].root_causes,
          detect::attribute_root_cause(batch[i], &experiment_->model.graph));
    }
  }
  EXPECT_EQ(service.blame().attributions(), batch.size() * kTenants);
}

TEST_F(ServeTest, SessionAdoptsPublishedModelAtEventBoundary) {
  // Deterministic single-threaded view of the swap: after adopting a
  // snapshot with threshold 1.0 (scores are <= 1, and alarms need a score
  // strictly above the threshold), the session must fall silent — proof
  // the new model actually took over.
  const auto& events = experiment_->test_runtime_events;
  SessionConfig config;
  config.k_max = 1;
  TenantSession session("solo", snapshot(1), config,
                        experiment_->test_series.snapshot_state(0));

  std::size_t alarms_before = 0;
  const std::size_t half = events.size() / 2;
  for (std::size_t j = 0; j < half; ++j) {
    alarms_before += session.process(events[j]).has_value();
  }
  ASSERT_GT(alarms_before, 0u);
  session.adopt(make_snapshot(experiment_->model.graph,
                              /*score_threshold=*/1.0,
                              experiment_->model.laplace_alpha, 2));
  std::size_t alarms_after = 0;
  for (std::size_t j = half; j < events.size(); ++j) {
    alarms_after += session.process(events[j]).has_value();
  }
  EXPECT_EQ(alarms_after, 0u);
  EXPECT_EQ(session.swaps_adopted(), 1u);
  EXPECT_EQ(session.active_model().version, 2u);
  EXPECT_EQ(session.events_processed(), events.size());
}

TEST_F(ServeTest, RejectPolicyCountsExactly) {
  // Submitting before start() makes the overflow deterministic: the queue
  // fills with no consumer, so with capacity 4 the 5th and 6th submissions
  // must be rejected — and shutdown() still processes the accepted 4.
  ServiceConfig config;
  config.shard_count = 1;
  config.queue_capacity = 4;
  config.overflow = util::OverflowPolicy::kReject;
  DetectionService service(config, nullptr);
  const TenantHandle home = service.add_tenant(
      "home", snapshot(1), experiment_->test_series.snapshot_state(0));

  const auto& events = experiment_->test_runtime_events;
  ASSERT_GE(events.size(), 6u);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t j = 0; j < 6; ++j) {
    switch (service.submit(home, events[j])) {
      case DetectionService::SubmitResult::kAccepted: ++accepted; break;
      case DetectionService::SubmitResult::kRejected: ++rejected; break;
      case DetectionService::SubmitResult::kClosed: FAIL(); break;
      case DetectionService::SubmitResult::kUnknownTenant: FAIL(); break;
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rejected, 2u);
  service.shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.events_submitted, 6u);
  EXPECT_EQ(stats.queue_rejected, 2u);
  EXPECT_EQ(stats.events_processed, 4u);
  EXPECT_EQ(service.session(home).events_processed(), 4u);
  // Once shut down, further submissions report kClosed.
  EXPECT_EQ(service.submit(home, events[0]),
            DetectionService::SubmitResult::kClosed);
}

TEST_F(ServeTest, DropOldestPolicyEvictsAndCounts) {
  ServiceConfig config;
  config.shard_count = 1;
  config.queue_capacity = 4;
  config.overflow = util::OverflowPolicy::kDropOldest;
  DetectionService service(config, nullptr);
  const TenantHandle home = service.add_tenant(
      "home", snapshot(1), experiment_->test_series.snapshot_state(0));

  const auto& events = experiment_->test_runtime_events;
  for (std::size_t j = 0; j < 6; ++j) {
    // DropOldest never refuses the new event; it evicts the front.
    EXPECT_EQ(service.submit(home, events[j]),
              DetectionService::SubmitResult::kAccepted);
  }
  service.shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.events_submitted, 6u);
  EXPECT_EQ(stats.queue_dropped_oldest, 2u);
  EXPECT_EQ(stats.queue_rejected, 0u);
  EXPECT_EQ(stats.events_processed, 4u);
}

TEST_F(ServeTest, FindTenantRoundTripsHandles) {
  ServiceConfig config;
  config.shard_count = 3;
  DetectionService service(config, nullptr);
  std::vector<TenantHandle> handles;
  for (std::size_t i = 0; i < 4; ++i) {
    handles.push_back(service.add_tenant("home-" + std::to_string(i),
                                         snapshot(1),
                                         experiment_->test_series.snapshot_state(0)));
  }
  EXPECT_EQ(service.tenant_count(), 4u);
  EXPECT_EQ(service.shard_count(), 3u);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(service.find_tenant("home-" + std::to_string(i)), handles[i]);
    EXPECT_EQ(service.session(handles[i]).name(),
              "home-" + std::to_string(i));
  }
  EXPECT_EQ(service.find_tenant("no-such-home"),
            DetectionService::kInvalidTenant);
}

// Minimal JSON field extractors for the flat renderer output (keys are
// unique at top level; nested objects live inside arrays we skip past).
std::string json_string_field(const std::string& json,
                              const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "<missing " + key + ">";
  const std::size_t begin = at + needle.size();
  const std::size_t end = json.find('"', begin);
  return json.substr(begin, end - begin);
}

double json_number_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::size_t json_array_size(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": [";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return static_cast<std::size_t>(-1);
  const std::size_t begin = at + needle.size();
  const std::size_t end = json.find(']', begin);
  std::size_t objects = 0;
  for (std::size_t i = begin; i < end; ++i) {
    objects += json[i] == '{';
  }
  return objects;
}

TEST_F(ServeTest, AlarmJsonCarriesProvenanceFieldByField) {
  const std::vector<detect::AnomalyReport> batch = batch_alarms(2);
  ASSERT_FALSE(batch.empty());

  ServiceConfig config;
  config.shard_count = 1;
  config.overflow = util::OverflowPolicy::kBlock;
  config.session.k_max = 2;
  AlarmLog log;
  DetectionService service(config, log.callback());
  const TenantHandle home = service.add_tenant(
      "home-0", snapshot(7), experiment_->test_series.snapshot_state(0));
  service.start();
  replay_trace(service, {&home, 1}, experiment_->test_runtime_events);
  service.shutdown();

  const std::vector<ServedAlarm>& served = log.by_tenant["home-0"];
  ASSERT_EQ(served.size(), batch.size());
  const telemetry::DeviceCatalog& catalog = experiment_->catalog();
  const double threshold = experiment_->model.score_threshold;
  for (const ServedAlarm& alarm : served) {
    const std::string json = alarm_to_json(alarm, catalog);
    const detect::AnomalyEntry& head = alarm.report.contextual();
    const telemetry::DeviceInfo& info = catalog.info(head.event.device);

    EXPECT_EQ(json_string_field(json, "type"), "alarm");
    EXPECT_EQ(json_string_field(json, "tenant"), "home-0");
    EXPECT_EQ(json_string_field(json, "severity"),
              severity_label(alarm.severity));
    EXPECT_EQ(json_string_field(json, "device"), info.name);
    EXPECT_EQ(json_string_field(json, "state"),
              detect::state_label(info, head.event.state));
    EXPECT_NEAR(json_number_field(json, "score"), head.score, 1e-6);
    EXPECT_NEAR(json_number_field(json, "threshold"), threshold, 1e-6);
    EXPECT_NEAR(json_number_field(json, "margin"), head.score - threshold,
                1e-6);
    EXPECT_NEAR(json_number_field(json, "probability"), 1.0 - head.score,
                1e-6);
    EXPECT_EQ(json_number_field(json, "stream_index"),
              static_cast<double>(head.stream_index));
    EXPECT_NEAR(json_number_field(json, "timestamp"), head.event.timestamp,
                1e-3);
    EXPECT_EQ(json_number_field(json, "model_version"), 7.0);
    EXPECT_EQ(json_number_field(json, "suppressed_duplicates"),
              static_cast<double>(alarm.suppressed_duplicates));
    EXPECT_EQ(json_number_field(json, "chain"),
              static_cast<double>(alarm.report.chain_length()));
    EXPECT_EQ(json_array_size(json, "context"), head.causes.size());
    EXPECT_EQ(json_array_size(json, "entries"), alarm.report.entries.size());
    // The hint derives from the ranked attribution (rank-1 fallback for
    // single-entry reports), and the full ranked list rides along as the
    // exact renderer output.
    EXPECT_EQ(json_string_field(json, "hint"),
              detect::attribution_hint(alarm.report, alarm.root_causes,
                                       catalog));
    ASSERT_FALSE(alarm.root_causes.ranked.empty());
    EXPECT_NE(json.find("\"root_causes\": " +
                        root_causes_json(alarm.root_causes, &catalog)),
              std::string::npos)
        << json;
    if (alarm.report.chain_length() <= 1) {
      EXPECT_EQ(json_string_field(json, "hint"),
                detect::root_cause_hint(head, catalog));
    }
    // The threshold provenance matches the snapshot that scored it.
    EXPECT_EQ(alarm.score_threshold, threshold);
  }
}

TEST_F(ServeTest, RegistrySnapshotExposesServeMetrics) {
  constexpr std::size_t kTenants = 2;
  const std::vector<detect::AnomalyReport> batch = batch_alarms(1);
  ASSERT_FALSE(batch.empty());

  obs::Registry registry;
  ServiceConfig config;
  config.shard_count = 2;
  config.overflow = util::OverflowPolicy::kBlock;
  config.registry = &registry;
  AlarmLog log;
  DetectionService service(config, log.callback());
  std::vector<TenantHandle> handles;
  for (std::size_t i = 0; i < kTenants; ++i) {
    handles.push_back(service.add_tenant(
        "home-" + std::to_string(i), snapshot(1),
        experiment_->test_series.snapshot_state(0)));
  }
  service.start();
  replay_trace(service, handles, experiment_->test_runtime_events);
  service.shutdown();

  // The injected registry is the one the service reports through.
  EXPECT_EQ(&service.registry(), &registry);
  const std::size_t events = experiment_->test_runtime_events.size();
  const std::string json = service.registry_json();
  EXPECT_NE(json.find(util::format(
                "{\"name\": \"serve_events_submitted_total\", \"labels\": "
                "{}, \"kind\": \"counter\", \"value\": %llu}",
                static_cast<unsigned long long>(events * kTenants))),
            std::string::npos)
      << json;

  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("# TYPE serve_events_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find(util::format("serve_events_submitted_total %llu",
                                   static_cast<unsigned long long>(
                                       events * kTenants))),
            std::string::npos);
  // Per-tenant alarm attribution and per-shard processed counters.
  for (std::size_t i = 0; i < kTenants; ++i) {
    EXPECT_NE(
        prom.find(util::format(
            "serve_tenant_alarms_total{tenant=\"home-%zu\"} %llu", i,
            static_cast<unsigned long long>(batch.size()))),
        std::string::npos)
        << prom;
  }
  EXPECT_NE(prom.find("serve_events_processed_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("serve_events_processed_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("serve_event_latency_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("serve_queue_depth{shard=\"0\"} 0"),
            std::string::npos);
}

TEST_F(ServeTest, StatsJsonIsWellFormedAndNonEmpty) {
  ServiceConfig config;
  DetectionService service(config, nullptr);
  const std::string json = service.stats_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ns\""), std::string::npos);
}

}  // namespace
}  // namespace causaliot::serve
