// The ingestion plane's protocol core: the flat-JSONL scanner, the
// shared IngestRouter (outcomes + rejection counters + control verbs),
// the HTTP ingest/tenant routes, and a raw-TCP end-to-end through
// net::LineProtocolServer — one line handler behind every transport.
#include "causaliot/serve/ingest.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "causaliot/core/experiment.hpp"
#include "causaliot/net/line_server.hpp"
#include "causaliot/obs/http_server.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::serve {
namespace {

// --- scanner units (no service needed) ---

TEST(ScanIngestLine, ParsesFullEventLine) {
  IngestFields fields;
  ASSERT_TRUE(scan_ingest_line(
      R"({"tenant": "home-0", "device": "pe_kitchen", "value": 1, )"
      R"("timestamp": 12.5})",
      fields));
  EXPECT_EQ(fields.tenant, "home-0");
  EXPECT_EQ(fields.device, "pe_kitchen");
  EXPECT_EQ(fields.value, 1.0);
  EXPECT_EQ(fields.timestamp, 12.5);
  EXPECT_FALSE(fields.has_op);
}

TEST(ScanIngestLine, ParsesControlLineAndUnknownKeys) {
  IngestFields fields;
  ASSERT_TRUE(scan_ingest_line(
      R"({"op": "add_tenant", "tenant": "t", "note": "hi", "n": 3, )"
      R"("flag": true})",
      fields));
  EXPECT_TRUE(fields.has_op);
  EXPECT_EQ(fields.op, "add_tenant");
  EXPECT_EQ(fields.tenant, "t");
}

TEST(ScanIngestLine, ToleratesWhitespaceAndCrlf) {
  IngestFields fields;
  EXPECT_TRUE(scan_ingest_line(
      "  { \"device\" : \"d\" , \"value\" : 0 , \"timestamp\" : 1e3 }\r",
      fields));
  EXPECT_EQ(fields.timestamp, 1000.0);
  IngestFields empty;
  EXPECT_TRUE(scan_ingest_line("{}", empty));
  EXPECT_FALSE(empty.has_device);
}

TEST(ScanIngestLine, RejectsMalformedLines) {
  IngestFields fields;
  EXPECT_FALSE(scan_ingest_line("not json", fields));
  EXPECT_FALSE(scan_ingest_line("{\"device\": }", fields));
  EXPECT_FALSE(scan_ingest_line("{\"device\": \"d\"", fields));  // no brace
  EXPECT_FALSE(scan_ingest_line("{\"value\": \"str\"}", fields));
  EXPECT_FALSE(scan_ingest_line("{\"device\": \"a\\\"b\"}", fields));
  EXPECT_FALSE(scan_ingest_line("{\"a\": 1} trailing", fields));
  EXPECT_FALSE(scan_ingest_line("{\"a\": {\"nested\": 1}}", fields));
  // Non-finite numbers are parse errors, under any key.
  EXPECT_FALSE(scan_ingest_line(
      R"({"device": "d", "value": 1, "timestamp": inf})", fields));
  EXPECT_FALSE(scan_ingest_line(
      R"({"device": "d", "value": nan, "timestamp": 1})", fields));
  EXPECT_FALSE(scan_ingest_line(
      R"({"device": "d", "value": 1, "timestamp": 1, "note": -infinity})",
      fields));
}

// --- router + transports over a real service ---

class IngestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::HomeProfile profile = sim::contextact_profile();
    profile.days = 4.0;
    core::ExperimentConfig config;
    config.seed = 99;
    experiment_ = new core::Experiment(
        core::build_experiment(std::move(profile), config));
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  /// Service (2 shards, kReject) + router with "base" preregistered and
  /// a default tenant. Returns after start().
  struct Plane {
    std::unique_ptr<DetectionService> service;
    std::unique_ptr<IngestRouter> router;
  };
  static Plane make_plane(std::size_t queue_capacity = 4096) {
    const core::TrainedModel& model = experiment_->model;
    auto snapshot = make_snapshot(model.graph, model.score_threshold,
                                  model.laplace_alpha, /*version=*/1);
    ServiceConfig config;
    config.shard_count = 2;
    config.queue_capacity = queue_capacity;
    config.overflow = util::OverflowPolicy::kReject;
    Plane plane;
    plane.service = std::make_unique<DetectionService>(
        config, [](const ServedAlarm&) {});
    plane.service->add_tenant("base", snapshot,
                              experiment_->test_series.snapshot_state(0));
    IngestConfig ingest;
    ingest.model = snapshot;
    ingest.initial_state = experiment_->test_series.snapshot_state(0);
    ingest.default_tenant = "base";
    plane.router = std::make_unique<IngestRouter>(
        *plane.service, experiment_->catalog(), std::move(ingest));
    plane.service->start();
    return plane;
  }

  static std::string device_name(std::size_t id) {
    return experiment_->catalog().info(id).name;
  }
  static std::string event_line(const std::string& tenant, std::size_t device,
                                double timestamp, int value = 1) {
    std::string line = "{";
    if (!tenant.empty()) line += "\"tenant\": \"" + tenant + "\", ";
    return line + "\"device\": \"" + device_name(device) +
           "\", \"value\": " + std::to_string(value) +
           ", \"timestamp\": " + std::to_string(timestamp) + "}";
  }

  static core::Experiment* experiment_;
};

core::Experiment* IngestTest::experiment_ = nullptr;

using Outcome = IngestRouter::Outcome;

TEST_F(IngestTest, RoutesEventsAndCountsEveryRejection) {
  Plane plane = make_plane();
  IngestRouter& router = *plane.router;

  EXPECT_EQ(router.handle_line(event_line("base", 0, 1.0)).outcome,
            Outcome::kAccepted);
  EXPECT_EQ(router.handle_line(event_line("", 1, 2.0)).outcome,
            Outcome::kAccepted);  // default tenant
  EXPECT_EQ(router.handle_line("   ").outcome, Outcome::kBlank);
  EXPECT_EQ(router.handle_line("garbage").outcome, Outcome::kParseError);
  EXPECT_EQ(router.handle_line("{\"device\": \"x\"}").outcome,
            Outcome::kParseError);  // missing fields
  EXPECT_EQ(router.handle_line(event_line("ghost", 0, 3.0)).outcome,
            Outcome::kUnknownTenant);
  EXPECT_EQ(
      router
          .handle_line("{\"device\": \"no_such\", \"value\": 1, "
                       "\"timestamp\": 4}")
          .outcome,
      Outcome::kUnknownDevice);

  EXPECT_EQ(router.lines_total(), 6u);  // blank not counted
  EXPECT_EQ(router.accepted_total(), 2u);
  EXPECT_EQ(router.rejected_total(), 4u);

  plane.service->shutdown();
  const ServiceStats stats = plane.service->stats();
  EXPECT_EQ(stats.events_submitted, 2u);
  EXPECT_EQ(stats.events_processed, 2u);
  // The rejection reasons surface as labeled counters on the registry.
  const std::string prom = plane.service->registry().to_prometheus();
  EXPECT_NE(prom.find("serve_ingest_rejected_total{reason=\"parse\"} 2"),
            std::string::npos);
  EXPECT_NE(
      prom.find("serve_ingest_rejected_total{reason=\"unknown-tenant\"} 1"),
      std::string::npos);
  EXPECT_NE(
      prom.find("serve_ingest_rejected_total{reason=\"unknown-device\"} 1"),
      std::string::npos);
}

TEST_F(IngestTest, NonFiniteNumbersAreParseRejections) {
  Plane plane = make_plane();
  IngestRouter& router = *plane.router;
  const std::string device = device_name(0);
  for (const std::string& line : {
           R"({"device": ")" + device + R"(", "value": 1, "timestamp": inf})",
           R"({"device": ")" + device + R"(", "value": nan, "timestamp": 1})",
       }) {
    const IngestRouter::LineResult result = router.handle_line(line);
    EXPECT_EQ(result.outcome, Outcome::kParseError) << line;
    EXPECT_EQ(IngestRouter::response_line(result), "ERR parse") << line;
  }
  EXPECT_EQ(router.handle_line(event_line("", 0, 1.0)).outcome,
            Outcome::kAccepted);

  plane.service->shutdown();
  EXPECT_EQ(plane.service->stats().events_submitted, 1u);
  EXPECT_NE(plane.service->registry().to_prometheus().find(
                "serve_ingest_rejected_total{reason=\"parse\"} 2"),
            std::string::npos);
}

TEST_F(IngestTest, ControlVerbsDriveTenantChurn) {
  Plane plane = make_plane();
  IngestRouter& router = *plane.router;
  DetectionService& service = *plane.service;

  auto result =
      router.handle_line(R"({"op": "add_tenant", "tenant": "dyn"})");
  EXPECT_EQ(result.outcome, Outcome::kControlOk);
  EXPECT_EQ(*IngestRouter::response_line(result), "OK add_tenant");
  EXPECT_NE(service.find_tenant("dyn"), DetectionService::kInvalidTenant);

  // Events route to the new tenant immediately.
  EXPECT_EQ(router.handle_line(event_line("dyn", 0, 1.0)).outcome,
            Outcome::kAccepted);

  result = router.handle_line(R"({"op": "add_tenant", "tenant": "dyn"})");
  EXPECT_EQ(result.outcome, Outcome::kControlFailed);
  EXPECT_EQ(*IngestRouter::response_line(result), "ERR tenant-exists");

  result = router.handle_line(R"({"op": "remove_tenant", "tenant": "dyn"})");
  EXPECT_EQ(result.outcome, Outcome::kControlOk);
  EXPECT_EQ(service.find_tenant("dyn"), DetectionService::kInvalidTenant);
  EXPECT_EQ(router.handle_line(event_line("dyn", 0, 2.0)).outcome,
            Outcome::kUnknownTenant);

  result = router.handle_line(R"({"op": "remove_tenant", "tenant": "dyn"})");
  EXPECT_EQ(result.outcome, Outcome::kControlFailed);
  result = router.handle_line(R"({"op": "explode", "tenant": "x"})");
  EXPECT_EQ(result.outcome, Outcome::kControlFailed);
  EXPECT_EQ(*IngestRouter::response_line(result), "ERR unknown-op");
  result = router.handle_line(R"({"op": "add_tenant"})");
  EXPECT_EQ(result.outcome, Outcome::kControlFailed);
  EXPECT_EQ(*IngestRouter::response_line(result), "ERR missing-tenant");

  plane.service->shutdown();
  const ServiceStats stats = plane.service->stats();
  EXPECT_EQ(stats.tenants_added, 2u);  // base + dyn
  EXPECT_EQ(stats.tenants_removed, 1u);
}

TEST_F(IngestTest, OverflowSurfacesAsErrResponse) {
  // Unstarted service with a tiny kReject queue: pushes pile up until
  // the queue answers kRejected, which the router maps to overflow.
  const core::TrainedModel& model = experiment_->model;
  auto snapshot = make_snapshot(model.graph, model.score_threshold,
                                model.laplace_alpha, 1);
  ServiceConfig config;
  config.shard_count = 1;
  config.queue_capacity = 2;
  config.overflow = util::OverflowPolicy::kReject;
  DetectionService service(config, [](const ServedAlarm&) {});
  service.add_tenant("base", snapshot,
                     experiment_->test_series.snapshot_state(0));
  IngestConfig ingest;
  ingest.default_tenant = "base";
  IngestRouter router(service, experiment_->catalog(), std::move(ingest));

  EXPECT_EQ(router.handle_line(event_line("", 0, 1.0)).outcome,
            Outcome::kAccepted);
  EXPECT_EQ(router.handle_line(event_line("", 0, 2.0)).outcome,
            Outcome::kAccepted);
  const auto result = router.handle_line(event_line("", 0, 3.0));
  EXPECT_EQ(result.outcome, Outcome::kOverflow);
  EXPECT_EQ(*IngestRouter::response_line(result), "ERR overflow");

  service.start();
  service.shutdown();
  EXPECT_EQ(router.handle_line(event_line("", 0, 4.0)).outcome,
            Outcome::kClosed);
}

// --- HTTP transport ---

/// One-shot HTTP/1.1 request over loopback; returns the raw response.
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& path, const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  std::string request = method + " " + path + " HTTP/1.1\r\n" +
                        "Host: localhost\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST_F(IngestTest, HttpIngestBatchAndTenantRoutes) {
  Plane plane = make_plane();
  obs::HttpServer http({.port = 0});
  attach_ingest(http, *plane.router);
  ASSERT_TRUE(http.start().ok());
  const std::uint16_t port = http.port();

  // Batch: two good lines, one bad, one blank.
  const std::string batch = event_line("base", 0, 1.0) + "\n" +
                            event_line("base", 1, 2.0) + "\n\nnot json\n";
  std::string response = http_request(port, "POST", "/ingest", batch);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"lines\": 3, \"accepted\": 2, \"controls\": 0, "
                          "\"rejected\": 1"),
            std::string::npos);
  EXPECT_NE(response.find("\"reason\": \"parse\""), std::string::npos);

  // Tenant lifecycle.
  response = http_request(port, "POST", "/tenants", "{\"tenant\": \"web\"}");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("{\"added\": \"web\"}"), std::string::npos);
  EXPECT_NE(plane.service->find_tenant("web"),
            DetectionService::kInvalidTenant);

  response = http_request(port, "POST", "/tenants", "{\"tenant\": \"web\"}");
  EXPECT_NE(response.find("409"), std::string::npos);
  response = http_request(port, "POST", "/tenants", "nonsense");
  EXPECT_NE(response.find("400"), std::string::npos);

  response = http_request(port, "DELETE", "/tenants/web", "");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(plane.service->find_tenant("web"),
            DetectionService::kInvalidTenant);
  response = http_request(port, "DELETE", "/tenants/web", "");
  EXPECT_NE(response.find("404"), std::string::npos);

  http.stop();
  plane.service->shutdown();
}

TEST_F(IngestTest, HttpIngestAnswers503OnBackpressure) {
  // kReject + unstarted service: the batch trips overflow, and the
  // transport must escalate it to a retryable 503.
  const core::TrainedModel& model = experiment_->model;
  auto snapshot = make_snapshot(model.graph, model.score_threshold,
                                model.laplace_alpha, 1);
  ServiceConfig config;
  config.shard_count = 1;
  config.queue_capacity = 1;
  config.overflow = util::OverflowPolicy::kReject;
  DetectionService service(config, [](const ServedAlarm&) {});
  service.add_tenant("base", snapshot,
                     experiment_->test_series.snapshot_state(0));
  IngestConfig ingest;
  ingest.default_tenant = "base";
  IngestRouter router(service, experiment_->catalog(), std::move(ingest));
  obs::HttpServer http({.port = 0});
  attach_ingest(http, router);
  ASSERT_TRUE(http.start().ok());

  const std::string batch =
      event_line("", 0, 1.0) + "\n" + event_line("", 0, 2.0) + "\n";
  const std::string response =
      http_request(http.port(), "POST", "/ingest", batch);
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("\"reason\": \"overflow\""), std::string::npos);

  http.stop();
  service.start();
  service.shutdown();
}

// --- raw-TCP transport ---

TEST_F(IngestTest, TcpLineProtocolEndToEnd) {
  Plane plane = make_plane();
  net::LineServerConfig line_config;
  net::LineProtocolServer tcp(
      line_config, [&](std::string_view line) {
        return IngestRouter::response_line(plane.router->handle_line(line));
      });
  const auto port = tcp.start();
  ASSERT_TRUE(port.ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port.value());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string payload =
      event_line("base", 0, 1.0) + "\n" +                       // quiet
      "{\"op\": \"add_tenant\", \"tenant\": \"tcp\"}\n" +       // OK
      event_line("tcp", 1, 2.0) + "\n" +                        // quiet
      "{\"op\": \"remove_tenant\", \"tenant\": \"tcp\"}\n" +    // OK
      event_line("tcp", 1, 3.0) + "\n" +                        // ERR
      "broken\n";                                               // ERR
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(payload.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_EQ(response,
            "OK add_tenant\nOK remove_tenant\nERR unknown-tenant\n"
            "ERR parse\n");

  tcp.stop();
  plane.service->shutdown();
  const ServiceStats stats = plane.service->stats();
  EXPECT_EQ(stats.events_submitted, 2u);
  EXPECT_EQ(stats.events_processed, 2u);
  EXPECT_EQ(stats.tenants_added, 2u);
  EXPECT_EQ(stats.tenants_removed, 1u);
  // Conservation: everything the queues accepted was either an event
  // that was processed/orphaned or a control message (the one remove;
  // adds queue nothing).
  EXPECT_EQ(stats.queue_accepted,
            stats.events_processed + stats.events_orphaned + 1u /*controls*/);
}

}  // namespace
}  // namespace causaliot::serve
