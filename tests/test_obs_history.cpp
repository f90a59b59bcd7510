// TimeSeriesStore retention semantics, driven deterministically through
// sample_at() with synthetic timestamps: what gets sampled, how the
// raw ring wraps, the exact contents of downsampled buckets, selector
// and window filtering, the history JSON payload, and — the TSan
// centerpiece — the single-writer / many-scraper ring discipline under
// a live sampler thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "causaliot/obs/http_server.hpp"
#include "causaliot/obs/registry.hpp"
#include "causaliot/obs/time_series.hpp"
#include "causaliot/serve/introspection.hpp"
#include "causaliot/serve/service.hpp"

namespace causaliot::obs {
namespace {

constexpr std::uint64_t kSecond = 1'000'000'000ull;

TimeSeriesConfig manual_config() {
  TimeSeriesConfig config;
  config.interval_ms = 0;  // externally driven: tests call sample_at()
  config.raw_capacity = 8;
  config.agg_capacity = 8;
  config.downsample_every = 4;
  return config;
}

TEST(ObsHistory, SamplesCountersAndGaugesButNotHistograms) {
  Registry registry;
  registry.counter("c_total").add(3);
  registry.gauge("g").set(-7);
  registry.histogram("h").record(5);

  TimeSeriesStore store(registry, manual_config());
  store.sample_at(1 * kSecond);

  EXPECT_EQ(store.samples_taken(), 1u);
  EXPECT_EQ(store.series_count(), 2u);  // histogram skipped
  const auto windows = store.raw_window("", 0, 1 * kSecond);
  ASSERT_EQ(windows.size(), 2u);
  // Deterministic (name, labels) order, mirroring the exposition.
  EXPECT_EQ(windows[0].ref.name, "c_total");
  ASSERT_EQ(windows[0].points.size(), 1u);
  EXPECT_EQ(windows[0].points[0].t_ns, 1 * kSecond);
  EXPECT_DOUBLE_EQ(windows[0].points[0].value, 3.0);
  EXPECT_EQ(windows[1].ref.name, "g");
  EXPECT_DOUBLE_EQ(windows[1].points[0].value, -7.0);
}

TEST(ObsHistory, RawRingWrapKeepsTheNewestCapacityMinusOnePoints) {
  Registry registry;
  Gauge& gauge = registry.gauge("g");
  TimeSeriesConfig config = manual_config();
  config.raw_capacity = 4;
  TimeSeriesStore store(registry, config);

  for (std::uint64_t i = 0; i < 10; ++i) {
    gauge.set(static_cast<std::int64_t>(i));
    store.sample_at(i * kSecond);
  }
  const auto windows = store.raw_window("g", 0, 10 * kSecond);
  ASSERT_EQ(windows.size(), 1u);
  // 10 pushes through a 4-slot ring: samples 7, 8, 9 survive (the slot
  // holding sample 6 is the writer's next target and is never trusted).
  ASSERT_EQ(windows[0].points.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(windows[0].points[i].t_ns, (7 + i) * kSecond);
    EXPECT_DOUBLE_EQ(windows[0].points[i].value,
                     static_cast<double>(7 + i));
  }
}

TEST(ObsHistory, DownsamplingFoldsExactMinMaxSumCountBuckets) {
  Registry registry;
  Gauge& gauge = registry.gauge("g");
  TimeSeriesStore store(registry, manual_config());  // downsample_every = 4

  const std::int64_t values[] = {5, 1, 9, 3,  // bucket 0
                                 2, 8, 4, 6,  // bucket 1
                                 7};          // partial: not folded yet
  for (std::uint64_t i = 0; i < 9; ++i) {
    gauge.set(values[i]);
    store.sample_at((i + 1) * kSecond);
  }

  const auto windows = store.agg_window("g", 0, 9 * kSecond);
  ASSERT_EQ(windows.size(), 1u);
  ASSERT_EQ(windows[0].points.size(), 2u);

  const auto& first = windows[0].points[0];
  EXPECT_EQ(first.t_first_ns, 1 * kSecond);
  EXPECT_EQ(first.t_last_ns, 4 * kSecond);
  EXPECT_DOUBLE_EQ(first.min, 1.0);
  EXPECT_DOUBLE_EQ(first.max, 9.0);
  EXPECT_DOUBLE_EQ(first.sum, 18.0);
  EXPECT_EQ(first.count, 4u);

  const auto& second = windows[0].points[1];
  EXPECT_EQ(second.t_first_ns, 5 * kSecond);
  EXPECT_EQ(second.t_last_ns, 8 * kSecond);
  EXPECT_DOUBLE_EQ(second.min, 2.0);
  EXPECT_DOUBLE_EQ(second.max, 8.0);
  EXPECT_DOUBLE_EQ(second.sum, 20.0);
  EXPECT_EQ(second.count, 4u);
}

TEST(ObsHistory, WindowFiltersByTimestamp) {
  Registry registry;
  Gauge& gauge = registry.gauge("g");
  TimeSeriesStore store(registry, manual_config());
  for (std::uint64_t i = 1; i <= 6; ++i) {
    gauge.set(static_cast<std::int64_t>(i));
    store.sample_at(i * kSecond);
  }
  // Points newer than now - 2s: t in {4s, 5s, 6s}.
  const auto windows = store.raw_window("g", 2 * kSecond, 6 * kSecond);
  ASSERT_EQ(windows.size(), 1u);
  ASSERT_EQ(windows[0].points.size(), 3u);
  EXPECT_EQ(windows[0].points.front().t_ns, 4 * kSecond);
  EXPECT_EQ(windows[0].points.back().t_ns, 6 * kSecond);
}

TEST(ObsHistory, SelectorsRestrictSamplingAndQueries) {
  Registry registry;
  registry.counter("serve_events_total").add(1);
  registry.counter("serve_alarms_total").add(2);
  registry.counter("obs_ticks_total").add(3);

  TimeSeriesConfig config = manual_config();
  config.selectors = {"serve_*"};
  TimeSeriesStore store(registry, config);
  store.sample_at(1 * kSecond);

  EXPECT_EQ(store.series_count(), 2u);  // obs_ticks_total never sampled
  EXPECT_EQ(store.raw_window("obs_ticks_total", 0, kSecond).size(), 0u);
  EXPECT_EQ(store.raw_window("serve_*", 0, kSecond).size(), 2u);
  EXPECT_EQ(store.raw_window("serve_alarms_total", 0, kSecond).size(), 1u);
  EXPECT_EQ(store.raw_window("", 0, kSecond).size(), 2u);
}

TEST(ObsHistory, LabeledInstancesBecomeDistinctSeries) {
  Registry registry;
  registry.counter("hits_total", {{"shard", "0"}}).add(1);
  registry.counter("hits_total", {{"shard", "1"}}).add(2);
  TimeSeriesStore store(registry, manual_config());
  store.sample_at(kSecond);

  const auto refs = store.series_refs();
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].name, "hits_total");
  ASSERT_EQ(refs[0].labels.size(), 1u);
  EXPECT_EQ(refs[0].labels[0].second, "0");
  EXPECT_EQ(refs[1].labels[0].second, "1");
}

TEST(ObsHistory, HistoryJsonCarriesBothTiers) {
  Registry registry;
  Gauge& gauge = registry.gauge("g", {{"shard", "0"}});
  TimeSeriesStore store(registry, manual_config());
  for (std::uint64_t i = 1; i <= 5; ++i) {
    gauge.set(static_cast<std::int64_t>(10 * i));
    store.sample_at(i * kSecond);
  }

  const std::string raw = store.history_json("g", 0.0, "raw", 5 * kSecond);
  EXPECT_NE(raw.find("\"tier\": \"raw\""), std::string::npos);
  EXPECT_NE(raw.find("\"name\": \"g\""), std::string::npos);
  EXPECT_NE(raw.find("\"shard\": \"0\""), std::string::npos);
  EXPECT_NE(raw.find("\"value\": 50"), std::string::npos);

  const std::string agg = store.history_json("g", 0.0, "agg", 5 * kSecond);
  EXPECT_NE(agg.find("\"tier\": \"agg\""), std::string::npos);
  EXPECT_NE(agg.find("\"min\": 10"), std::string::npos);
  EXPECT_NE(agg.find("\"max\": 40"), std::string::npos);
  EXPECT_NE(agg.find("\"sum\": 100"), std::string::npos);
  EXPECT_NE(agg.find("\"count\": 4"), std::string::npos);

  const std::string none =
      store.history_json("absent_metric", 0.0, "raw", 5 * kSecond);
  EXPECT_NE(none.find("\"series\": []"), std::string::npos);
}

TEST(ObsHistory, PrePostHooksBracketTheSnapshot) {
  Registry registry;
  Gauge& gauge = registry.gauge("g");
  TimeSeriesStore store(registry, manual_config());
  std::vector<std::string> order;
  store.set_pre_sample([&](std::uint64_t now_ns) {
    EXPECT_EQ(now_ns, kSecond);
    gauge.set(42);  // refresh-derived-gauges slot: visible to this tick
    order.push_back("pre");
  });
  store.set_post_sample([&](std::uint64_t now_ns) {
    EXPECT_EQ(now_ns, kSecond);
    // The tick's samples are already published to readers here.
    const auto windows = store.raw_window("g", 0, now_ns);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_DOUBLE_EQ(windows[0].points.back().value, 42.0);
    order.push_back("post");
  });
  store.sample_at(kSecond);
  EXPECT_EQ(order, (std::vector<std::string>{"pre", "post"}));
}

// The TSan concurrency bar: one live sampler thread hammering the rings
// while scrape threads read windows and history JSON. The reader-side
// seqlock discipline must produce internally consistent windows —
// strictly increasing timestamps, never more than capacity - 1 points —
// with no data races anywhere.
TEST(ObsHistory, ConcurrentScrapesSeeConsistentWindows) {
  Registry registry;
  Gauge& gauge = registry.gauge("g");
  Registry* registry_ptr = &registry;

  TimeSeriesConfig config;
  config.interval_ms = 1;  // aggressive sampler
  config.raw_capacity = 16;
  config.agg_capacity = 16;
  config.downsample_every = 2;
  TimeSeriesStore store(registry, config);
  store.set_pre_sample([registry_ptr](std::uint64_t) {
    // Mutate the registry from the sampler side too.
    registry_ptr->gauge("g").add(1);
  });
  store.start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&store, &stop, &config] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto windows = store.raw_window("g", 0, ~std::uint64_t{0} / 2);
        for (const auto& window : windows) {
          EXPECT_LE(window.points.size(), config.raw_capacity - 1);
          for (std::size_t i = 1; i < window.points.size(); ++i) {
            // A torn or mis-dropped slot would read as out-of-order.
            EXPECT_LE(window.points[i - 1].t_ns, window.points[i].t_ns);
          }
        }
        const std::string json =
            store.history_json("", 0.0, "agg", ~std::uint64_t{0} / 2);
        EXPECT_FALSE(json.empty());
      }
    });
  }
  // Writer churn from a second producer thread against the same gauge.
  std::thread producer([&gauge, &stop] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) gauge.set(++i);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : scrapers) t.join();
  producer.join();
  store.stop();
  EXPECT_GT(store.samples_taken(), 1u);
}

TEST(ObsHistory, StartStopLifecycleIsIdempotent) {
  Registry registry;
  registry.gauge("g").set(1);
  TimeSeriesConfig config;
  config.interval_ms = 1;
  TimeSeriesStore store(registry, config);
  EXPECT_FALSE(store.running());
  store.start();
  EXPECT_TRUE(store.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  store.stop();
  EXPECT_FALSE(store.running());
  store.stop();  // idempotent
  EXPECT_GE(store.samples_taken(), 1u);
}

TEST(ObsHistory, WindowSecondsToNsSaturates) {
  EXPECT_EQ(window_seconds_to_ns(0.0), 0u);
  EXPECT_EQ(window_seconds_to_ns(-5.0), 0u);
  EXPECT_EQ(window_seconds_to_ns(1.5), 1'500'000'000u);
  EXPECT_EQ(window_seconds_to_ns(1e30), 18446744073709549568ull);
}

// Minimal blocking GET against 127.0.0.1:port; returns the status code
// and fills `body`.
int http_get(std::uint16_t port, const std::string& target,
             std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return 0;
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string wire;
  char chunk[4096];
  for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
    wire.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  body = wire.substr(head_end + 4);
  return std::atoi(wire.c_str() + wire.find(' ') + 1);
}

TEST(ObsHistory, HttpWindowRejectsNonFiniteAndClampsHugeValues) {
  serve::DetectionService service(serve::ServiceConfig{},
                                  [](const serve::ServedAlarm&) {});
  service.registry().gauge("g").set(5);
  TimeSeriesStore store(service.registry(), manual_config());
  store.sample_at(1 * kSecond);

  HttpServer server;
  serve::IntrospectionOptions options;
  options.history = &store;
  serve::attach_introspection(server, service, options);
  ASSERT_TRUE(server.start().ok());

  std::string body;
  for (const char* window : {"inf", "nan", "-inf", "infinity"}) {
    EXPECT_EQ(http_get(server.port(),
                       std::string("/metrics/history?series=g&window=") +
                           window,
                       body),
              400)
        << window;
  }
  // A finite window far beyond 2^64 ns covers the whole ring.
  EXPECT_EQ(
      http_get(server.port(), "/metrics/history?series=g&window=1e30", body),
      200);
  EXPECT_NE(body.find("\"name\": \"g\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"value\": 5"), std::string::npos) << body;
  server.stop();
}

}  // namespace
}  // namespace causaliot::obs
