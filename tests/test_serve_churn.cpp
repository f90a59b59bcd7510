// Dynamic tenant churn under live ingestion load — the TSan centerpiece
// for the network ingestion plane. While two survivor tenants replay the
// full runtime stream through submit(), a churn thread adds and removes
// ephemeral tenants over a loopback TCP socket (control verbs + event
// lines through net::LineProtocolServer -> IngestRouter). The bar:
//
//   * survivors' alarm sequences are bit-identical to a static run with
//     no churn and no sockets — churn must not perturb detection;
//   * the conservation identity holds exactly: everything the shard
//     queues accepted is a processed event, an orphaned event, or a
//     control message — nothing lost, nothing duplicated;
//   * directory counters reconcile with what the churn thread actually
//     managed to do.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "causaliot/core/experiment.hpp"
#include "causaliot/graph/analysis.hpp"
#include "causaliot/net/line_server.hpp"
#include "causaliot/serve/ingest.hpp"
#include "causaliot/serve/service.hpp"

namespace causaliot::serve {
namespace {

class ChurnTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::HomeProfile profile = sim::contextact_profile();
    profile.days = 6.0;
    core::ExperimentConfig config;
    config.seed = 77;  // same home as test_serve: known to alarm
    experiment_ = new core::Experiment(
        core::build_experiment(std::move(profile), config));
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  static std::shared_ptr<const ModelSnapshot> snapshot() {
    const core::TrainedModel& model = experiment_->model;
    return make_snapshot(model.graph, model.score_threshold,
                         model.laplace_alpha, /*version=*/1);
  }

  static ServiceConfig service_config() {
    ServiceConfig config;
    config.shard_count = 2;
    config.queue_capacity = 256;
    config.overflow = util::OverflowPolicy::kBlock;  // lossless survivors
    config.session.k_max = 3;
    return config;
  }

  static core::Experiment* experiment_;
};

core::Experiment* ChurnTest::experiment_ = nullptr;

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

void expect_bit_identical(const std::vector<ServedAlarm>& got,
                          const std::vector<ServedAlarm>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].report.entries.size(), want[i].report.entries.size())
        << "alarm " << i;
    for (std::size_t e = 0; e < want[i].report.entries.size(); ++e) {
      EXPECT_EQ(got[i].report.entries[e].stream_index,
                want[i].report.entries[e].stream_index);
      EXPECT_EQ(got[i].report.entries[e].event,
                want[i].report.entries[e].event);
      // Same code path, same doubles: bit-identical, not approximate.
      EXPECT_EQ(got[i].report.entries[e].score,
                want[i].report.entries[e].score);
    }
    // Churn must not perturb the ranked root-cause attribution either:
    // device order, blame doubles, and walk paths all reproduce exactly.
    const auto& got_ranked = got[i].root_causes.ranked;
    const auto& want_ranked = want[i].root_causes.ranked;
    ASSERT_EQ(got_ranked.size(), want_ranked.size()) << "alarm " << i;
    EXPECT_FALSE(want_ranked.empty()) << "alarm " << i;
    for (std::size_t r = 0; r < want_ranked.size(); ++r) {
      EXPECT_EQ(got_ranked[r].device, want_ranked[r].device);
      EXPECT_EQ(got_ranked[r].score, want_ranked[r].score);  // bitwise
      EXPECT_EQ(got_ranked[r].flagged, want_ranked[r].flagged);
      EXPECT_EQ(got_ranked[r].path, want_ranked[r].path);
    }
    EXPECT_EQ(got[i].root_causes.edges_walked,
              want[i].root_causes.edges_walked);
  }
}

/// Blocking loopback client for the churn stream; reads are drained on
/// a second thread so server responses can never wedge the writer.
class ChurnClient {
 public:
  explicit ChurnClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                           sizeof(address)) == 0;
    drainer_ = std::thread([this] {
      char buffer[4096];
      std::string pending;
      while (true) {
        const ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (got <= 0) break;
        pending.append(buffer, static_cast<std::size_t>(got));
        std::size_t newline;
        while ((newline = pending.find('\n')) != std::string::npos) {
          const std::string line = pending.substr(0, newline);
          pending.erase(0, newline + 1);
          std::lock_guard<std::mutex> lock(mutex_);
          responses_.push_back(line);
        }
      }
    });
  }
  ~ChurnClient() {
    finish();
  }

  bool connected() const { return connected_; }

  void send(const std::string& data) {
    ASSERT_EQ(::send(fd_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }

  /// Half-closes the write side and joins the response drainer (the
  /// server answers everything already received, then EOFs).
  std::vector<std::string> finish() {
    if (fd_ >= 0 && !finished_) {
      finished_ = true;
      ::shutdown(fd_, SHUT_WR);
      drainer_.join();
      ::close(fd_);
      fd_ = -1;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    return responses_;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool finished_ = false;
  std::thread drainer_;
  std::mutex mutex_;
  std::vector<std::string> responses_;
};

TEST_F(ChurnTest, SurvivorsUnperturbedAndNothingLost) {
  const auto& events = experiment_->test_runtime_events;
  const std::vector<std::uint8_t> initial_state =
      experiment_->test_series.snapshot_state(0);

  // --- Reference: static run, no churn, no sockets. ---
  AlarmLog static_log;
  {
    DetectionService service(service_config(), static_log.callback());
    std::vector<TenantHandle> handles;
    handles.push_back(service.add_tenant("s0", snapshot(), initial_state));
    handles.push_back(service.add_tenant("s1", snapshot(), initial_state));
    service.start();
    replay_trace(service, handles, events);
    service.shutdown();
  }
  ASSERT_FALSE(static_log.by_tenant["s0"].empty());  // bar is meaningful

  // --- Churn run: same survivors + socket-driven tenant churn. The
  // ephemerals instantiate from a registered template, so the 25 cycles
  // also exercise skeleton interning and copy-on-write sharing under
  // live add/remove (the weak intern pool must drain on eviction). ---
  AlarmLog churn_log;
  TemplateRegistry registry;
  // Publish a reloaded copy of the mined model: loading builds a
  // skeleton of its own, so the template and the ephemerals are its only
  // holders (the survivors share the fixture graph's skeleton) and the
  // drain check at the end sees exactly their release.
  std::shared_ptr<const ModelTemplate> fleet;
  {
    const std::string path = ::testing::TempDir() + "churn_fleet.dig";
    ASSERT_TRUE(experiment_->model.graph.save(path).ok());
    const auto reloaded = graph::InteractionGraph::load(path);
    ASSERT_TRUE(reloaded.ok());
    fleet = registry.publish("fleet", reloaded.value(),
                             experiment_->model.score_threshold,
                             experiment_->model.laplace_alpha,
                             /*version=*/1);
  }
  ASSERT_NE(fleet, nullptr);
  ServiceConfig churn_config = service_config();
  churn_config.templates = &registry;
  DetectionService service(churn_config, churn_log.callback());
  std::vector<TenantHandle> survivors;
  survivors.push_back(service.add_tenant("s0", snapshot(), initial_state));
  survivors.push_back(service.add_tenant("s1", snapshot(), initial_state));

  IngestConfig ingest;
  ingest.model = snapshot();
  ingest.initial_state = initial_state;
  IngestRouter router(service, experiment_->catalog(), std::move(ingest));
  net::LineServerConfig line_config;
  net::LineProtocolServer tcp(
      line_config, [&router](std::string_view line) {
        return IngestRouter::response_line(router.handle_line(line));
      });

  service.start();
  const auto port = tcp.start();
  ASSERT_TRUE(port.ok());

  // Pre-render a small burst of event lines (device names from the
  // catalog) sent to each ephemeral tenant between its add and remove.
  constexpr std::size_t kCycles = 25;
  constexpr std::size_t kBurst = 20;
  std::string burst_template;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const auto& event = events[i % events.size()];
    burst_template +=
        "{\"tenant\": \"@\", \"device\": \"" +
        experiment_->catalog().info(event.device).name +
        "\", \"value\": " + std::to_string(static_cast<int>(event.state)) +
        ", \"timestamp\": " + std::to_string(event.timestamp) + "}\n";
  }

  std::thread churner([&] {
    ChurnClient client(port.value());
    ASSERT_TRUE(client.connected());
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
      const std::string name = "eph-" + std::to_string(cycle);
      std::string script = "{\"op\": \"add_tenant\", \"tenant\": \"" +
                           name + "\", \"template\": \"fleet\"}\n";
      std::string burst = burst_template;
      std::size_t at;
      while ((at = burst.find('@')) != std::string::npos) {
        burst.replace(at, 1, name);
      }
      script += burst;
      script +=
          "{\"op\": \"remove_tenant\", \"tenant\": \"" + name + "\"}\n";
      client.send(script);
    }
    const std::vector<std::string> responses = client.finish();
    // Controls answer on the wire; event lines are quiet. Every control
    // must have succeeded — per-connection ordering guarantees the add
    // is processed before the events and the remove.
    ASSERT_EQ(responses.size(), 2 * kCycles);
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
      EXPECT_EQ(responses[2 * cycle], "OK add_tenant");
      EXPECT_EQ(responses[2 * cycle + 1], "OK remove_tenant");
    }
  });

  // Survivors replay the full stream while the churn rages.
  const ReplayStats replay = replay_trace(service, survivors, events);
  EXPECT_EQ(replay.rejected, 0u);  // kBlock is lossless

  churner.join();
  tcp.stop();
  service.shutdown();

  // Survivors' alarms: bit-identical to the static run.
  expect_bit_identical(churn_log.by_tenant["s0"],
                       static_log.by_tenant["s0"]);
  expect_bit_identical(churn_log.by_tenant["s1"],
                       static_log.by_tenant["s1"]);

  // Directory accounting reconciles with what actually happened.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.tenants_added, 2 + kCycles);
  EXPECT_EQ(stats.tenants_removed, kCycles);
  EXPECT_EQ(stats.tenant_count, 2u);

  // Conservation: every queue admission is a processed event, an
  // orphaned event, or one of the kCycles RemoveTenant controls (adds
  // publish a ready session and queue nothing).
  EXPECT_EQ(stats.queue_accepted,
            stats.events_processed + stats.events_orphaned + kCycles);
  // Nothing the producers submitted evaporated: submit() admissions
  // equal processed + orphaned (kBlock: no drops, no rejects).
  EXPECT_EQ(stats.events_submitted,
            stats.events_processed + stats.events_orphaned);
  EXPECT_EQ(stats.queue_dropped_oldest, 0u);
  EXPECT_EQ(stats.queue_rejected, 0u);
  EXPECT_EQ(router.accepted_total(), kCycles * kBurst);

  // Template plumbing reconciles too: every ephemeral's shared model
  // bytes were released with its removal, leaving exactly the two
  // survivors' snapshots (one skeleton + base, two deltas), and evicting
  // the template drains the weak skeleton intern pool once the last
  // reference drops.
  EXPECT_EQ(registry.template_count(), 1u);
  EXPECT_EQ(registry.skeleton_count(), 1u);
  const graph::MemoryFootprint survivor =
      graph::memory_footprint(snapshot()->graph);
  const DetectionService::ModelStats models = service.model_stats();
  EXPECT_EQ(models.resident_bytes, survivor.skeleton_bytes +
                                       survivor.base_cpt_bytes +
                                       2 * survivor.delta_cpt_bytes);
  EXPECT_EQ(models.private_equivalent_bytes, 2 * survivor.total_bytes());
  EXPECT_TRUE(registry.evict("fleet"));
  fleet.reset();
  EXPECT_EQ(registry.skeleton_count(), 0u);
}

TEST_F(ChurnTest, RemovedTenantFlushesItsPendingWindow) {
  // A tenant mid-anomaly-window at remove time must flush that window
  // through the alarm callback (same contract as shutdown()), not drop
  // it silently with the session.
  const auto& events = experiment_->test_runtime_events;
  AlarmLog log;
  DetectionService service(service_config(), log.callback());
  const TenantHandle doomed = service.add_tenant(
      "doomed", snapshot(), experiment_->test_series.snapshot_state(0));
  service.start();

  // Feed the full stream; the final window is still open afterwards.
  for (const auto& event : events) {
    ASSERT_EQ(service.submit(doomed, event),
              DetectionService::SubmitResult::kAccepted);
  }
  ASSERT_TRUE(service.remove_tenant(doomed));
  service.shutdown();

  // The static reference run flushes via shutdown(); the removed tenant
  // must have produced the identical sequence via the removal path.
  AlarmLog reference;
  {
    DetectionService ref_service(service_config(), reference.callback());
    const TenantHandle tenant = ref_service.add_tenant(
        "doomed", snapshot(), experiment_->test_series.snapshot_state(0));
    ref_service.start();
    for (const auto& event : events) {
      ASSERT_EQ(ref_service.submit(tenant, event),
                DetectionService::SubmitResult::kAccepted);
    }
    ref_service.shutdown();
  }
  expect_bit_identical(log.by_tenant["doomed"],
                       reference.by_tenant["doomed"]);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.events_processed, events.size());
  EXPECT_EQ(stats.events_orphaned, 0u);
  EXPECT_EQ(stats.tenant_count, 0u);
}

}  // namespace
}  // namespace causaliot::serve
