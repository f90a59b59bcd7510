// Per-tenant model-health telemetry (serve::ModelHealth) and the
// introspection plane wired onto a live DetectionService: EWMA/window
// semantics, snapshot provenance, gauge publication, and the /readyz
// 503 -> 200 -> 503 lifecycle observed through real loopback sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "causaliot/obs/http_server.hpp"
#include "causaliot/obs/registry.hpp"
#include "causaliot/serve/introspection.hpp"
#include "causaliot/serve/model_health.hpp"
#include "causaliot/serve/service.hpp"

namespace causaliot::serve {
namespace {

// --- ModelHealth unit tests (private registry, no service) ---

TEST(ModelHealth, EwmaSeedsFromFirstEventThenSmooths) {
  obs::Registry registry;
  HealthConfig config;
  config.ewma_alpha = 0.5;
  config.window_events = 8;
  ModelHealth health(registry, config);
  health.add_tenant(0, "home-a", 1);

  health.on_event(0, 0.5);  // first event seeds, no decay toward 0
  EXPECT_DOUBLE_EQ(health.view(0).score_ewma, 0.5);
  health.on_event(0, 1.0);  // 0.5 + 0.5 * (1.0 - 0.5)
  EXPECT_DOUBLE_EQ(health.view(0).score_ewma, 0.75);
  EXPECT_EQ(health.view(0).events_total, 2u);
}

TEST(ModelHealth, WindowRatesAndScoreDeciles) {
  obs::Registry registry;
  HealthConfig config;
  config.window_events = 64;
  ModelHealth health(registry, config);
  health.add_tenant(0, "home-a", 1);

  health.on_event(0, 0.05);  // decile 0
  health.on_event(0, 0.55);  // decile 5
  health.on_event(0, 1.0);   // clamped into the top decile
  health.on_event(0, -0.5);  // clamped into the bottom decile
  health.on_alarm(0, /*collective=*/false);
  health.on_alarm(0, /*collective=*/true);

  const ModelHealth::TenantView view = health.view(0);
  EXPECT_EQ(view.window_events, 4u);
  EXPECT_EQ(view.window_alarms, 2u);
  EXPECT_EQ(view.window_collective, 1u);
  EXPECT_DOUBLE_EQ(view.alarm_rate, 0.5);
  EXPECT_DOUBLE_EQ(view.collective_rate, 0.25);
  EXPECT_EQ(view.score_deciles[0], 2u);
  EXPECT_EQ(view.score_deciles[5], 1u);
  EXPECT_EQ(view.score_deciles[9], 1u);
}

TEST(ModelHealth, RollingWindowIsBoundedByBucketRotation) {
  obs::Registry registry;
  HealthConfig config;
  config.window_events = 8;  // bucket capacity 1: rotates every event
  ModelHealth health(registry, config);
  health.add_tenant(0, "home-a", 1);

  for (int i = 0; i < 100; ++i) {
    health.on_event(0, 0.9);
    health.on_alarm(0, false);
  }
  const ModelHealth::TenantView view = health.view(0);
  EXPECT_EQ(view.events_total, 100u);
  // The window forgot the early events; rates stay rates, not totals.
  EXPECT_EQ(view.window_events, 8u);
  EXPECT_EQ(view.window_alarms, 8u);
  EXPECT_DOUBLE_EQ(view.alarm_rate, 1.0);
  EXPECT_EQ(view.score_deciles[9], 8u);
}

TEST(ModelHealth, SnapshotProvenanceTracksPublishAndAdopt) {
  obs::Registry registry;
  ModelHealth health(registry, HealthConfig{});
  health.add_tenant(0, "home-a", 1);

  health.on_event(0, 0.1);
  health.on_event(0, 0.1);
  ModelHealth::TenantView view = health.view(0);
  EXPECT_EQ(view.model_version, 1u);
  EXPECT_EQ(view.published_version, 1u);
  EXPECT_EQ(view.events_since_snapshot, 2u);
  EXPECT_GE(view.snapshot_age_seconds, 0.0);

  health.on_published(0, 2);  // published but not yet adopted
  view = health.view(0);
  EXPECT_EQ(view.model_version, 1u);
  EXPECT_EQ(view.published_version, 2u);

  health.on_adopted(0, 2);  // adoption resets the per-snapshot clock
  health.on_event(0, 0.1);
  view = health.view(0);
  EXPECT_EQ(view.model_version, 2u);
  EXPECT_EQ(view.events_since_snapshot, 1u);
}

TEST(ModelHealth, RefreshPublishesLabeledGauges) {
  obs::Registry registry;
  HealthConfig config;
  config.ewma_alpha = 1.0;  // EWMA == latest score: exact gauge values
  ModelHealth health(registry, config);
  health.add_tenant(0, "home-a", 7);
  health.add_tenant(1, "home-b", 9);

  health.on_event(0, 0.25);
  health.on_alarm(0, false);
  health.refresh();

  const obs::Labels a = {{"tenant", "home-a"}};
  const obs::Labels b = {{"tenant", "home-b"}};
  EXPECT_EQ(registry.gauge("serve_tenant_score_ewma_ppm", a).value(), 250000);
  EXPECT_EQ(registry.gauge("serve_tenant_alarm_rate_ppm", a).value(),
            1000000);
  EXPECT_EQ(registry.gauge("serve_tenant_model_version", a).value(), 7);
  EXPECT_EQ(registry.gauge("serve_tenant_model_version", b).value(), 9);
  EXPECT_EQ(registry.gauge("serve_tenant_events_since_snapshot", a).value(),
            1);
  // And the same families appear in the exposition text.
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("serve_tenant_score_ewma_ppm{tenant=\"home-a\"}"),
            std::string::npos);
  EXPECT_NE(text.find("serve_tenant_model_version{tenant=\"home-b\"}"),
            std::string::npos);
}

TEST(ModelHealth, TenantsJsonCarriesWindowAndProvenance) {
  obs::Registry registry;
  ModelHealth health(registry, HealthConfig{});
  health.add_tenant(0, "home-a", 3);
  health.on_event(0, 0.95);

  const std::string json = health.tenants_json();
  EXPECT_NE(json.find("\"name\": \"home-a\""), std::string::npos);
  EXPECT_NE(json.find("\"model_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"events\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"score_deciles\": [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]"),
            std::string::npos);
}

// --- DetectionService integration over loopback sockets ---

// Same 2-device model the detect suite uses: device 1's only cause is
// device 0 at lag 1, P(1 on | 0 was on) = 1, P(1 on | 0 was off) = 0,
// device 0's marginal is 50/50.
graph::InteractionGraph copy_graph() {
  graph::InteractionGraph graph(2, 2);
  graph.set_causes(0, {});
  graph.set_causes(1, {{0, 1}});
  graph::Cpt& cpt0 = graph.cpt(0);
  for (int i = 0; i < 50; ++i) {
    cpt0.observe(cpt0.pack({}), 0);
    cpt0.observe(cpt0.pack({}), 1);
  }
  graph::Cpt& cpt1 = graph.cpt(1);
  for (int i = 0; i < 100; ++i) {
    cpt1.observe(cpt1.pack({1}), 1);
    cpt1.observe(cpt1.pack({0}), 0);
  }
  return graph;
}

std::shared_ptr<const ModelSnapshot> tiny_snapshot(std::uint64_t version) {
  return make_snapshot(copy_graph(), /*score_threshold=*/0.9,
                       /*laplace_alpha=*/0.0, version);
}

// Waits until the tenant's processed-event total reaches `target` (the
// submit path is asynchronous: events land via the shard worker).
void wait_for_events(const DetectionService& service, std::size_t tenant,
                     std::uint64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.health().view(tenant).events_total < target) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "tenant " << tenant << " never reached " << target << " events";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

struct HttpReply {
  int status = 0;
  std::string content_type;
  std::string body;
};

// Minimal blocking GET against 127.0.0.1:port.
HttpReply http_get(std::uint16_t port, const std::string& target) {
  HttpReply out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return out;
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string wire;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    wire.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos) return out;
  out.body = wire.substr(head_end + 4);
  out.status = std::atoi(wire.c_str() + wire.find(' ') + 1);
  const std::size_t type_at = wire.find("Content-Type: ");
  if (type_at != std::string::npos && type_at < head_end) {
    const std::size_t type_end = wire.find('\r', type_at);
    out.content_type =
        wire.substr(type_at + 14, type_end - type_at - 14);
  }
  return out;
}

TEST(Introspection, ReadyzFlipsAcrossServiceLifecycleOverLoopback) {
  ServiceConfig config;
  config.shard_count = 1;
  config.session.k_max = 1;
  DetectionService service(config, [](const ServedAlarm&) {});
  const TenantHandle home =
      service.add_tenant("home-a", tiny_snapshot(1), {0, 0});

  obs::HttpServer server;
  attach_introspection(server, service);
  ASSERT_TRUE(server.start().ok());
  const std::uint16_t port = server.port();

  // Liveness is up as soon as the server answers; readiness is not.
  EXPECT_EQ(http_get(port, "/healthz").status, 200);
  EXPECT_EQ(http_get(port, "/readyz").status, 503);

  service.start();
  EXPECT_EQ(http_get(port, "/readyz").status, 200);
  EXPECT_EQ(http_get(port, "/readyz").body, "ready\n");

  // Feed a deterministic stream: device 0 on (score 0.5, quiet), then
  // device 1 stays-off-given-0-on (score 1.0 -> contextual alarm).
  ASSERT_EQ(service.submit(home, {0, 1, 1.0}),
            DetectionService::SubmitResult::kAccepted);
  ASSERT_EQ(service.submit(home, {1, 0, 2.0}),
            DetectionService::SubmitResult::kAccepted);
  wait_for_events(service, home, 2);

  // /statusz: service summary + per-tenant health as JSON.
  const HttpReply statusz = http_get(port, "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_EQ(statusz.content_type, "application/json");
  EXPECT_NE(statusz.body.find("\"ready\": true"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"name\": \"home-a\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"events\": 2"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"alarms\": 1"), std::string::npos);

  // /metrics: the same per-tenant gauges in Prometheus text.
  const HttpReply metrics = http_get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, std::string(obs::kContentTypePrometheus));
  EXPECT_NE(
      metrics.body.find("serve_tenant_score_ewma_ppm{tenant=\"home-a\"}"),
      std::string::npos);
  EXPECT_NE(
      metrics.body.find("serve_tenant_alarm_rate_ppm{tenant=\"home-a\"}"),
      std::string::npos);
  EXPECT_NE(metrics.body.find("serve_events_processed_total"),
            std::string::npos);

  // /tracez answers JSON even when tracing is idle.
  const HttpReply tracez = http_get(port, "/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"stages\""), std::string::npos);

  // Shutdown drains and readiness drops before the scrape plane does.
  service.shutdown();
  EXPECT_EQ(http_get(port, "/readyz").status, 503);
  EXPECT_EQ(http_get(port, "/healthz").status, 200);
  server.stop();
}

TEST(Introspection, ModelSwapUpdatesHealthProvenance) {
  ServiceConfig config;
  config.shard_count = 1;
  DetectionService service(config, [](const ServedAlarm&) {});
  const TenantHandle home =
      service.add_tenant("home-a", tiny_snapshot(1), {0, 0});
  service.start();

  ASSERT_EQ(service.submit(home, {0, 1, 1.0}),
            DetectionService::SubmitResult::kAccepted);
  wait_for_events(service, home, 1);

  service.swap_model(home, tiny_snapshot(2));
  // Published immediately; adopted only at the next event boundary.
  EXPECT_EQ(service.health().view(home).published_version, 2u);

  ASSERT_EQ(service.submit(home, {0, 0, 2.0}),
            DetectionService::SubmitResult::kAccepted);
  wait_for_events(service, home, 2);
  const ModelHealth::TenantView view = service.health().view(home);
  EXPECT_EQ(view.model_version, 2u);
  EXPECT_EQ(view.events_since_snapshot, 1u);
  service.shutdown();
}

TEST(Introspection, EveryPublishedSwapIsAdoptedByDrain) {
  // Back-to-back swaps, a swap right before a removal, and a swap after
  // shutdown: each accepted swap is one FIFO control the worker adopts,
  // and a refused one leaves no trace in the counters or the bytes.
  ServiceConfig config;
  config.shard_count = 1;
  DetectionService service(config, [](const ServedAlarm&) {});
  const TenantHandle a = service.add_tenant("home-a", tiny_snapshot(1), {0, 0});
  const TenantHandle b = service.add_tenant("home-b", tiny_snapshot(1), {0, 0});
  EXPECT_TRUE(service.swap_model(a, tiny_snapshot(2)));
  EXPECT_TRUE(service.swap_model(a, tiny_snapshot(3)));
  ASSERT_EQ(service.submit(a, {0, 1, 1.0}),
            DetectionService::SubmitResult::kAccepted);
  EXPECT_TRUE(service.swap_model(a, tiny_snapshot(4)));
  EXPECT_TRUE(service.remove_tenant(a));
  service.start();
  service.shutdown();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.model_swaps_published, 3u);
  EXPECT_EQ(stats.model_swaps_adopted, 3u);
  EXPECT_EQ(stats.events_processed, 1u);
  // Three swaps and one remove are the only controls.
  EXPECT_EQ(stats.queue_accepted,
            stats.events_processed + stats.events_orphaned + 4);

  const std::size_t resident = service.model_stats().resident_bytes;
  EXPECT_FALSE(service.swap_model(b, tiny_snapshot(5)));
  EXPECT_EQ(service.stats().model_swaps_published, 3u);
  EXPECT_EQ(service.model_stats().resident_bytes, resident);
  EXPECT_EQ(service.health().view(b).published_version, 1u);
}

TEST(Introspection, SwapModelRefusesBadInputOnTheCallersThread) {
  ServiceConfig config;
  config.shard_count = 1;
  DetectionService service(config, [](const ServedAlarm&) {});
  const TenantHandle home =
      service.add_tenant("home-a", tiny_snapshot(1), {0, 0});
  const TenantHandle gone =
      service.add_tenant("home-gone", tiny_snapshot(1), {0, 0});
  ASSERT_TRUE(service.remove_tenant(gone));
  service.start();
  const std::size_t resident = service.model_stats().resident_bytes;

  EXPECT_FALSE(service.swap_model(gone, tiny_snapshot(2)));
  EXPECT_FALSE(service.swap_model(home + 100, tiny_snapshot(2)));
  EXPECT_FALSE(
      service.swap_model(DetectionService::kInvalidTenant, tiny_snapshot(2)));
  EXPECT_FALSE(service.swap_model(home, nullptr));
  EXPECT_FALSE(service.swap_model(
      home, make_snapshot(graph::InteractionGraph(3, 2), 0.9, 0.0, 2)));
  EXPECT_EQ(service.stats().model_swaps_published, 0u);
  EXPECT_EQ(service.model_stats().resident_bytes, resident);
  EXPECT_EQ(service.health().view(home).published_version, 1u);

  // The tenant keeps serving on its original model.
  ASSERT_EQ(service.submit(home, {0, 1, 1.0}),
            DetectionService::SubmitResult::kAccepted);
  service.shutdown();
  EXPECT_EQ(service.stats().events_processed, 1u);
  EXPECT_EQ(service.stats().model_swaps_adopted, 0u);
  EXPECT_EQ(service.session(home).active_model().version, 1u);
}

TEST(Introspection, GlobalRegistryHostsServiceHealthAfterReset) {
  // The CLI runs against Registry::global(); reset_for_test() isolates
  // this suite from whatever earlier tests recorded there.
  obs::Registry& global = obs::Registry::global();
  global.reset_for_test();
  ASSERT_EQ(global.family_count(), 0u);

  ServiceConfig config;
  config.registry = &global;
  DetectionService service(config, [](const ServedAlarm&) {});
  service.add_tenant("home-g", tiny_snapshot(4), {0, 0});
  EXPECT_NE(
      service.prometheus().find(
          "serve_tenant_model_version{tenant=\"home-g\"} 4"),
      std::string::npos);

  // Leave the global registry clean for later suites in this binary.
  // shutdown() first: after it, the (idempotent) destructor never touches
  // the service's cached registry handles again, so resetting here is
  // safe even though the service object is still in scope.
  service.shutdown();
  global.reset_for_test();
}

}  // namespace
}  // namespace causaliot::serve
