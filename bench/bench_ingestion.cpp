// Ingestion-plane soak benchmarks (google-benchmark): events/sec from
// raw TCP JSONL bytes on a loopback socket all the way through
// net::LineProtocolServer -> serve::IngestRouter -> shard queues ->
// Algorithm 2, with a clean-drain conservation check every iteration:
// submitted - rejected == processed + orphaned, nothing lost or
// duplicated. BM_ScanIngestLine isolates the parse floor; the soak
// numbers land in BENCH_serving.json via tools/run_bench.sh.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "causaliot/core/pipeline.hpp"
#include "causaliot/net/line_server.hpp"
#include "causaliot/serve/ingest.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/util/check.hpp"
#include "causaliot/util/rng.hpp"

namespace {

using namespace causaliot;

constexpr std::size_t kDevices = 22;

preprocess::StateSeries synthetic_series(std::size_t device_count,
                                         std::size_t event_count,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> state(device_count, 0);
  preprocess::StateSeries series(device_count, state);
  telemetry::DeviceId last = 0;
  for (std::size_t j = 0; j < event_count; ++j) {
    telemetry::DeviceId device;
    if (rng.bernoulli(0.6)) {
      device = (last + 1) % static_cast<telemetry::DeviceId>(device_count);
    } else {
      device = static_cast<telemetry::DeviceId>(rng.uniform(device_count));
    }
    state[device] ^= 1;
    series.apply({device, state[device], static_cast<double>(j)});
    last = device;
  }
  return series;
}

struct IngestFixture {
  core::TrainedModel model;
  std::vector<preprocess::BinaryEvent> events;
  std::vector<std::uint8_t> initial_state;
  telemetry::DeviceCatalog catalog;
};

const IngestFixture& fixture() {
  static const IngestFixture data = [] {
    IngestFixture out;
    const preprocess::StateSeries series =
        synthetic_series(kDevices, 20000, 42);
    core::PipelineConfig config;
    config.laplace_alpha = 0.1;
    out.model = core::Pipeline(config).train_on_series(series, 2);
    out.events = series.events();
    out.initial_state = series.snapshot_state(0);
    for (std::size_t i = 0; i < kDevices; ++i) {
      telemetry::DeviceInfo info;
      info.name = "dev_" + std::to_string(i);
      info.room = "bench";
      CAUSALIOT_CHECK(out.catalog.add(std::move(info)).ok());
    }
    return out;
  }();
  return data;
}

/// Tenant name "t<i>". Built by append: g++ 12 reports a false
/// -Wrestrict inside `"t" + std::to_string(i)` once it is inlined here.
std::string tenant_name(std::size_t i) {
  std::string name = "t";
  name += std::to_string(i);
  return name;
}

/// Pre-rendered JSONL chunk: `lines` events round-robin over `tenants`
/// tenant names ("t0".."tN-1"), cycling the fixture event stream.
std::string render_lines(std::size_t lines, std::size_t tenants,
                         std::size_t phase) {
  const IngestFixture& data = fixture();
  std::string out;
  out.reserve(lines * 80);
  for (std::size_t i = 0; i < lines; ++i) {
    const auto& event = data.events[(phase + i) % data.events.size()];
    out += "{\"tenant\": \"t" + std::to_string(i % tenants) +
           "\", \"device\": \"dev_" + std::to_string(event.device) +
           "\", \"value\": " + std::to_string(static_cast<int>(event.state)) +
           ", \"timestamp\": " + std::to_string(event.timestamp) + "}\n";
  }
  return out;
}

/// Streams `payload` to the port in large writes; returns false on any
/// socket failure.
bool stream_payload(std::uint16_t port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return false;
  }
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t wrote = ::send(fd, payload.data() + sent,
                                 payload.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  ::shutdown(fd, SHUT_WR);
  // Wait for the server-side EOF so every line is routed before return.
  char buffer[4096];
  while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
  }
  ::close(fd);
  return true;
}

/// The parse floor: the flat scanner over pre-rendered lines, no
/// sockets, no service.
void BM_ScanIngestLine(benchmark::State& state) {
  const std::string payload = render_lines(4096, 4, 0);
  std::vector<std::string_view> lines;
  std::string_view rest = payload;
  std::size_t newline;
  while ((newline = rest.find('\n')) != std::string_view::npos) {
    lines.push_back(rest.substr(0, newline));
    rest = rest.substr(newline + 1);
  }
  std::size_t parsed = 0;
  for (auto _ : state) {
    for (const std::string_view line : lines) {
      serve::IngestFields fields;
      parsed += serve::scan_ingest_line(line, fields) ? 1 : 0;
      benchmark::DoNotOptimize(fields);
    }
  }
  CAUSALIOT_CHECK(parsed == state.iterations() * lines.size());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * lines.size()));
}
BENCHMARK(BM_ScanIngestLine);

/// Full plane: loopback TCP JSONL into a running multi-shard service.
/// One complete lifetime per iteration, clean drain checked exactly.
void BM_IngestTcpSoak(benchmark::State& state) {
  const auto shard_count = static_cast<std::size_t>(state.range(0));
  const auto tenant_count = static_cast<std::size_t>(state.range(1));
  const auto client_count = static_cast<std::size_t>(state.range(2));
  constexpr std::size_t kLinesPerClient = 50000;
  const IngestFixture& data = fixture();

  std::vector<std::string> payloads;
  for (std::size_t c = 0; c < client_count; ++c) {
    payloads.push_back(
        render_lines(kLinesPerClient, tenant_count, c * 1327));
  }

  std::uint64_t alarms = 0;
  for (auto _ : state) {
    serve::ServiceConfig config;
    config.shard_count = shard_count;
    config.queue_capacity = 8192;
    config.overflow = util::OverflowPolicy::kBlock;  // lossless soak
    serve::DetectionService service(config, nullptr);
    auto snapshot =
        serve::make_snapshot(data.model.graph, data.model.score_threshold,
                             data.model.laplace_alpha, 1);
    for (std::size_t i = 0; i < tenant_count; ++i) {
      service.add_tenant(tenant_name(i), snapshot,
                         data.initial_state);
    }
    serve::IngestConfig ingest_config;
    serve::IngestRouter router(service, data.catalog,
                               std::move(ingest_config));
    net::LineServerConfig line_config;
    line_config.socket.worker_count = client_count;  // one per connection
    net::LineProtocolServer tcp(
        line_config, [&router](std::string_view line) {
          return serve::IngestRouter::response_line(
              router.handle_line(line));
        });
    service.start();
    const auto port = tcp.start();
    CAUSALIOT_CHECK(port.ok());

    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < client_count; ++c) {
      clients.emplace_back([&, c] {
        CAUSALIOT_CHECK(stream_payload(port.value(), payloads[c]));
      });
    }
    for (auto& client : clients) client.join();
    tcp.stop();
    service.shutdown();

    // Clean drain: every line that reached the router was accepted, and
    // every accepted event was processed — zero lost, zero duplicated.
    const serve::ServiceStats stats = service.stats();
    const std::uint64_t sent = client_count * kLinesPerClient;
    CAUSALIOT_CHECK(router.lines_total() == sent);
    CAUSALIOT_CHECK(router.accepted_total() == sent);
    CAUSALIOT_CHECK(stats.events_submitted ==
                    stats.events_processed + stats.events_orphaned);
    CAUSALIOT_CHECK(stats.events_processed == sent);
    CAUSALIOT_CHECK(tcp.stats().lines_total == sent);
    alarms = stats.alarms_total;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * client_count * kLinesPerClient));
  state.counters["shards"] = static_cast<double>(shard_count);
  state.counters["tenants"] = static_cast<double>(tenant_count);
  state.counters["clients"] = static_cast<double>(client_count);
  state.counters["alarms"] = static_cast<double>(alarms);
}
BENCHMARK(BM_IngestTcpSoak)
    ->Args({1, 1, 1})
    ->Args({2, 4, 1})
    ->Args({2, 4, 2})
    ->Args({4, 8, 2})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The soak under tenant churn: one client streams events to static
/// tenants while a second connection cycles add/remove on ephemeral
/// tenants. Conservation must still hold exactly.
void BM_IngestChurnSoak(benchmark::State& state) {
  constexpr std::size_t kLines = 50000;
  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kCycles = 50;
  const IngestFixture& data = fixture();
  const std::string payload = render_lines(kLines, kTenants, 0);

  for (auto _ : state) {
    serve::ServiceConfig config;
    config.shard_count = 2;
    config.queue_capacity = 8192;
    config.overflow = util::OverflowPolicy::kBlock;
    serve::DetectionService service(config, nullptr);
    auto snapshot =
        serve::make_snapshot(data.model.graph, data.model.score_threshold,
                             data.model.laplace_alpha, 1);
    for (std::size_t i = 0; i < kTenants; ++i) {
      service.add_tenant(tenant_name(i), snapshot,
                         data.initial_state);
    }
    serve::IngestConfig ingest_config;
    ingest_config.model = snapshot;
    ingest_config.initial_state = data.initial_state;
    serve::IngestRouter router(service, data.catalog,
                               std::move(ingest_config));
    net::LineServerConfig line_config;
    line_config.socket.worker_count = 2;
    net::LineProtocolServer tcp(
        line_config, [&router](std::string_view line) {
          return serve::IngestRouter::response_line(
              router.handle_line(line));
        });
    service.start();
    const auto port = tcp.start();
    CAUSALIOT_CHECK(port.ok());

    std::thread churner([&] {
      std::string script;
      for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
        const std::string name = "eph-" + std::to_string(cycle);
        script += "{\"op\": \"add_tenant\", \"tenant\": \"" + name + "\"}\n";
        script +=
            "{\"tenant\": \"" + name +
            "\", \"device\": \"dev_0\", \"value\": 1, \"timestamp\": 1}\n";
        script +=
            "{\"op\": \"remove_tenant\", \"tenant\": \"" + name + "\"}\n";
      }
      CAUSALIOT_CHECK(stream_payload(port.value(), script));
    });
    CAUSALIOT_CHECK(stream_payload(port.value(), payload));
    churner.join();
    tcp.stop();
    service.shutdown();

    const serve::ServiceStats stats = service.stats();
    CAUSALIOT_CHECK(stats.events_submitted ==
                    stats.events_processed + stats.events_orphaned);
    CAUSALIOT_CHECK(stats.tenants_added == kTenants + kCycles);
    CAUSALIOT_CHECK(stats.tenants_removed == kCycles);
    // Queue admissions == events + the kCycles RemoveTenant controls
    // (adds queue nothing).
    CAUSALIOT_CHECK(stats.queue_accepted ==
                    stats.events_processed + stats.events_orphaned + kCycles);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (kLines + kCycles)));
}
BENCHMARK(BM_IngestChurnSoak)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
