#include "serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "causaliot/net/line_server.hpp"
#include "causaliot/net/socket_io.hpp"
#include "causaliot/obs/alert.hpp"
#include "causaliot/obs/time_series.hpp"
#include "causaliot/serve/ingest.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/serve/template_registry.hpp"
#include "causaliot/serve/watchdog.hpp"

namespace perfbench {

using namespace causaliot;

namespace {

/// Generator tick: events due in a tick are sent at its start.
constexpr std::uint64_t kTickNs = 100'000;
/// Tenants the traced run adds and removes on the live service.
constexpr std::size_t kProbeTenants = 16;
constexpr double kProbeSeconds = 0.3;
constexpr double kProbeEps = 20000.0;
constexpr double kWarmupSeconds = 0.5;
/// Latency is also kept per window of scheduled send time; the reported
/// quantiles are medians over windows, so one host hiccup moves one window.
constexpr std::uint64_t kWindowNs = 250'000'000;
/// Length of the traced run's segment with the history sampler on.
constexpr double kSamplerProbeSeconds = 3.0;
/// Median lateness beyond which the nominal rung is invalid.
constexpr double kMaxGeneratorLateUs = 1000.0;
/// How long a segment's tail may take to drain before it counts as stuck.
constexpr std::uint64_t kDrainTimeoutNs = 2'000'000'000;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a over the bytes of each added value.
class Fingerprint {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char byte : bytes) {
      hash_ = (hash_ ^ byte) * 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Everything a served alarm carries that a replay must reproduce.
std::uint64_t alarm_fingerprint(const detect::AnomalyReport& report,
                                detect::AlarmSeverity severity,
                                const detect::RootCauseAttribution& causes) {
  Fingerprint f;
  f.add(report.entries.size());
  for (const detect::AnomalyEntry& entry : report.entries) {
    f.add(entry.event.device);
    f.add(entry.event.state);
    f.add(entry.event.timestamp);
    f.add(entry.stream_index);
    f.add(entry.score);
    for (const graph::LaggedNode& cause : entry.causes) {
      f.add(cause.device);
      f.add(cause.lag);
    }
    for (const std::uint8_t value : entry.cause_values) f.add(value);
  }
  f.add(report.ended_by_abrupt_event);
  f.add(static_cast<std::uint8_t>(severity));
  for (const detect::RootCauseCandidate& candidate : causes.ranked) {
    f.add(candidate.device);
    f.add(candidate.score);
    f.add(candidate.flagged);
    f.add(candidate.path.size());
  }
  return f.value();
}

/// Log-linear histogram (128 sub-buckets per power of two) of
/// nanosecond values; quantiles interpolate inside the bucket.
class Histogram {
 public:
  void add(std::uint64_t value, std::uint64_t count = 1) {
    counts_[index(value)] += count;
    total_ += count;
  }
  std::uint64_t total() const { return total_; }
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }

  /// Quantile in nanoseconds; 0 when empty.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double next = seen + static_cast<double>(counts_[i]);
      if (next >= rank) {
        const double within = (rank - seen) / static_cast<double>(counts_[i]);
        return lower(i) + (lower(i + 1) - lower(i)) * within;
      }
      seen = next;
    }
    return lower(counts_.size() - 1);
  }

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  static std::size_t index(std::uint64_t value) {
    if (value < kSub) return static_cast<std::size_t>(value);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(value));
    const unsigned shift = msb - kSubBits;
    return static_cast<std::size_t>((shift + 1) * kSub +
                                    ((value >> shift) & (kSub - 1)));
  }
  static double lower(std::size_t index) {
    if (index < kSub) return static_cast<double>(index);
    const std::size_t shift = index / kSub - 1;
    const std::size_t mantissa = index % kSub;
    return std::ldexp(static_cast<double>(kSub + mantissa),
                      static_cast<int>(shift));
  }

  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>((64 - kSubBits + 1) * kSub + 1, 0);
  std::uint64_t total_ = 0;
};

enum class Transport : std::uint8_t { kDirect, kTcp };

/// One open-loop run at a fixed offered rate.
struct SegmentStats {
  double rate = 0.0;
  std::uint64_t start_ns = 0;
  /// Scheduled send -> the shard's processed counter passing the event.
  Histogram latency;
  /// The same, per window of scheduled send time, with the host CPU time
  /// the hypervisor stole during each window (jiffies, all CPUs).
  std::vector<Histogram> windows;
  std::vector<double> window_steal;
  /// Per tick: how far behind schedule its sends began; `tail_late` holds
  /// the last quarter of the ticks, where a growing backlog shows.
  Histogram late;
  Histogram tail_late;
  std::uint64_t events = 0;
  /// Start of the schedule to the last observed completion.
  double elapsed_s = 0.0;
  bool drained = true;

  double p50_us() const { return latency.quantile(0.50) / 1e3; }
  double p99_us() const { return latency.quantile(0.99) / 1e3; }

  /// Latency pooled over the half of the windows in which the hypervisor
  /// stole the least CPU time. Steal arrives in bursts of milliseconds and
  /// sets the tail of any window it hits; ranking windows by steal, not by
  /// latency, leaves every stall the program itself causes in the sample.
  Histogram quiet_latency() const {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (windows[i].total() > 0) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return window_steal[a] < window_steal[b];
                     });
    Histogram quiet;
    for (std::size_t i = 0; i < (order.size() + 1) / 2; ++i) {
      quiet.merge(windows[order[i]]);
    }
    return quiet;
  }
  double quiet_us(double q) const { return quiet_latency().quantile(q) / 1e3; }

  /// The rung held its rate: the tail of the quiet sample meets the
  /// latency limit and sends were not falling ever further behind.
  bool sustained() const {
    return drained && quiet_us(0.99) <= kLatencyLimitUs &&
           tail_late.quantile(0.5) / 1e3 <= kBacklogLimitUs;
  }
};

struct TenantState {
  std::string name;
  std::size_t offset = 0;
  std::uint64_t sent = 0;
  std::size_t shard = 0;
};

/// Events routed to one shard, in FIFO order, and how many of them its
/// processed + orphaned counters have passed.
struct ShardTrack {
  obs::Counter* processed = nullptr;
  obs::Counter* orphaned = nullptr;
  std::uint64_t sent = 0;
  std::uint64_t recorded = 0;
  /// (sequence number one past the batch, scheduled send time).
  std::deque<std::pair<std::uint64_t, std::uint64_t>> batches;

  std::uint64_t done() const { return processed->value() + orphaned->value(); }
};

/// Host CPU time stolen by the hypervisor and total CPU time, in jiffies
/// (the aggregate "cpu" line of /proc/stat).
std::pair<double, double> host_steal_and_total() {
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return {0.0, 0.0};
  unsigned long long f[8] = {};
  const int read =
      std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &f[0],
                  &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]);
  std::fclose(file);
  if (read != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const unsigned long long value : f) total += static_cast<double>(value);
  return {static_cast<double>(f[7]), total};
}

void append_number(std::string& out, double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, ec == std::errc{} ? end : buffer);
}

}  // namespace

struct Fleet::Impl {
  Impl(const core::TrainedModel& model,
       const telemetry::DeviceCatalog& catalog_in,
       std::vector<preprocess::BinaryEvent> stream_in, const ServePlan& plan_in,
       std::uint64_t seed, const Options& options_in, SpanLog& spans);
  ~Impl();

  // --- set-up
  std::size_t add_tenant(std::string name);
  void connect_client();

  // --- generator
  preprocess::BinaryEvent event_at(const TenantState& tenant,
                                   std::uint64_t k) const;
  void append_event_line(std::string& lines, const TenantState& tenant,
                         const preprocess::BinaryEvent& event) const;
  void churn_one(std::string& lines, std::uint64_t scheduled_ns);
  SegmentStats run_segment(double rate, double seconds, Transport transport,
                           std::vector<std::size_t>& slots, bool churn,
                           SpanLog& spans);
  void poll(std::uint64_t now);
  void read_responses(std::uint64_t now, bool blocking);
  bool all_recorded() const;

  // --- after the timed phase
  void run_sampler_probe(SpanLog& spans);
  void run_probes(SpanLog& spans);
  std::size_t replay_and_compare(SpanLog& spans, Result& result);

  ServePlan plan;
  Options options;
  const telemetry::DeviceCatalog& catalog;
  std::vector<preprocess::BinaryEvent> stream;
  /// Timestamp shift added each time a tenant wraps around the stream.
  double stream_period_s = 0.0;
  /// Stream positions where the replayed home has every device off, so a
  /// tenant starting there matches its all-zero initial state.
  std::vector<std::size_t> start_offsets;
  std::uint64_t rng_state = 0;
  std::size_t device_count = 0;

  serve::TemplateRegistry templates;
  std::shared_ptr<const serve::ModelTemplate> model_template;
  /// Served alarm fingerprints by tenant handle. Sized once in set-up;
  /// each handle's list is only written by its shard's worker (and by
  /// shutdown after the workers joined).
  std::vector<std::vector<std::uint64_t>> served_alarms;
  std::unique_ptr<serve::DetectionService> service;
  std::unique_ptr<serve::Watchdog> watchdog;
  std::unique_ptr<obs::TimeSeriesStore> history;
  std::unique_ptr<obs::AlertEngine> alerts;
  std::unique_ptr<serve::IngestRouter> router;
  std::unique_ptr<net::LineProtocolServer> line_server;
  int client_fd = -1;

  /// Every tenant ever added; the index is the service's tenant handle.
  std::vector<TenantState> tenants;
  std::vector<std::size_t> main_slots;
  std::size_t slot_cursor = 0;
  std::vector<ShardTrack> tracks;
  SegmentStats* latency_sink = nullptr;

  std::uint64_t events_offered = 0;
  std::uint64_t submits_not_accepted = 0;
  std::uint64_t lines_sent = 0;
  std::uint64_t bytes_sent = 0;
  double tcp_elapsed_s = 0.0;
  std::uint64_t next_churn_ns = 0;
  std::size_t churn_limit = 0;
  std::size_t churns = 0;
  /// Control verbs awaiting their response: (is add, scheduled ns).
  std::deque<std::pair<bool, std::uint64_t>> pending_controls;
  std::vector<double> add_rtt_us;
  std::vector<double> remove_rtt_us;
  std::uint64_t control_errors = 0;
  std::uint64_t controls_sent = 0;
  /// Tenants whose service handle differs from the routing model's.
  std::size_t misrouted = 0;
  std::string response_buffer;

  // Per-call timers (traced run only).
  std::atomic<bool> timing{false};
  Histogram submit_ns;
  /// handle_line time per line; written only by the line server's
  /// connection thread, read after line_server->stop() joined it.
  Histogram handler_ns;
  std::uint64_t handler_total_ns = 0;
  /// History sampler timings, written by its thread (the pre- and
  /// post-sample hooks run there back to back).
  std::atomic<std::uint64_t> refresh_ns{0};
  std::atomic<std::uint64_t> refreshes{0};
  std::uint64_t sample_start_ns = 0;
  std::atomic<std::uint64_t> sample_ns{0};
  std::size_t queue_depth_max = 0;
  std::uint64_t next_depth_poll_ns = 0;

  // Results.
  SegmentStats nominal;
  /// Share of host CPU time the hypervisor stole during the nominal rung.
  double nominal_steal_share = 0.0;
  double nominal_untraced_p50_us = 0.0;
  double max_eps = 0.0;
  std::vector<std::string> ladder_log;
  double bytes_per_tenant = 0.0;
  std::vector<double> add_us;
  std::vector<double> remove_us;
  SegmentStats sampler_segment;
  double history_bytes = 0.0;
  double prometheus_ms = 0.0;
  double prometheus_bytes = 0.0;
  double series = 0.0;
  double scan_ns = 0.0;
};

Fleet::Impl::Impl(const core::TrainedModel& model,
                  const telemetry::DeviceCatalog& catalog_in,
                  std::vector<preprocess::BinaryEvent> stream_in,
                  const ServePlan& plan_in, std::uint64_t seed,
                  const Options& options_in, SpanLog& spans)
    : plan(plan_in),
      options(options_in),
      catalog(catalog_in),
      stream(std::move(stream_in)),
      rng_state(seed),
      device_count(model.graph.device_count()) {
  const SpanLog::Scope setup_span = spans.open("serve.setup");
  stream_period_s = stream.back().timestamp - stream.front().timestamp + 1.0;
  std::vector<std::uint8_t> state(device_count, 0);
  std::size_t devices_on = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (devices_on == 0) start_offsets.push_back(i);
    std::uint8_t& device = state[stream[i].device];
    devices_on += stream[i].state != 0 ? (device == 0) : 0;
    devices_on -= stream[i].state == 0 ? (device != 0) : 0;
    device = stream[i].state != 0 ? 1 : 0;
  }
  model_template =
      templates.publish("default", model.graph, model.score_threshold,
                        model.laplace_alpha, /*version=*/1);

  const double timed_s = plan.nominal_s * 2 + kWarmupSeconds +
                         plan.probe_s * 16 + kSamplerProbeSeconds +
                         kProbeSeconds + 1.0;
  churn_limit = plan.churn_period_s > 0.0
                    ? static_cast<std::size_t>(timed_s / plan.churn_period_s)
                    : 0;
  served_alarms.resize(plan.tenants + churn_limit + kProbeTenants);

  serve::ServiceConfig config;
  config.shard_count = plan.shards;
  config.catalog = &catalog;
  config.templates = &templates;
  service = std::make_unique<serve::DetectionService>(
      config, [this](const serve::ServedAlarm& alarm) {
        if (alarm.tenant < served_alarms.size()) {
          served_alarms[alarm.tenant].push_back(alarm_fingerprint(
              alarm.report, alarm.severity, alarm.root_causes));
        }
      });
  for (std::size_t shard = 0; shard < plan.shards; ++shard) {
    const obs::Labels labels = {{"shard", std::to_string(shard)}};
    ShardTrack& track = tracks.emplace_back();
    track.processed =
        &service->registry().counter("serve_events_processed_total", labels);
    track.orphaned =
        &service->registry().counter("serve_events_orphaned_total", labels);
  }

  const double rss_before = current_rss_bytes();
  for (std::size_t i = 0; i < plan.tenants; ++i) {
    const SpanLog::Scope span = spans.open("serve.add_tenant");
    main_slots.push_back(add_tenant("home-" + std::to_string(i)));
  }
  bytes_per_tenant = (current_rss_bytes() - rss_before) /
                     static_cast<double>(plan.tenants);

  // The retention + alerting plane as `causaliot serve` wires it.
  watchdog = std::make_unique<serve::Watchdog>(*service);
  obs::TimeSeriesConfig history_config;
  history_config.interval_ms = 1000;
  history = std::make_unique<obs::TimeSeriesStore>(service->registry(),
                                                   history_config);
  alerts = std::make_unique<obs::AlertEngine>(
      *history, service->registry(), watchdog->default_rules());
  history->set_pre_sample([this](std::uint64_t now) {
    const std::uint64_t start = now_ns();
    service->refresh_gauges();
    refresh_ns.fetch_add(now_ns() - start, std::memory_order_relaxed);
    refreshes.fetch_add(1, std::memory_order_relaxed);
    watchdog->refresh(now);
    sample_start_ns = now_ns();
  });
  history->set_post_sample([this](std::uint64_t now) {
    sample_ns.fetch_add(now_ns() - sample_start_ns,
                        std::memory_order_relaxed);
    alerts->evaluate(now);
  });

  serve::IngestConfig ingest;
  ingest.model = serve::instantiate(*model_template);
  ingest.initial_state = std::vector<std::uint8_t>(device_count, 0);
  ingest.default_template = "default";
  router = std::make_unique<serve::IngestRouter>(*service, catalog,
                                                 std::move(ingest));

  service->start();
  if (plan.tcp || options.trace) {
    net::LineServerConfig line_config;
    line_config.socket.worker_count = 1;
    line_server = std::make_unique<net::LineProtocolServer>(
        line_config, [this](std::string_view line) {
          if (!timing.load(std::memory_order_relaxed)) {
            return serve::IngestRouter::response_line(
                router->handle_line(line));
          }
          const std::uint64_t start = now_ns();
          const serve::IngestRouter::LineResult result =
              router->handle_line(line);
          const std::uint64_t took = now_ns() - start;
          handler_ns.add(took);
          handler_total_ns += took;
          return serve::IngestRouter::response_line(result);
        });
    connect_client();
  }
}

Fleet::Impl::~Impl() {
  if (client_fd >= 0) ::close(client_fd);
  if (line_server) line_server->stop();
  if (history) history->stop();
  if (service) service->shutdown();
}

std::size_t Fleet::Impl::add_tenant(std::string name) {
  const std::size_t handle = tenants.size();
  TenantState tenant;
  tenant.name = name;
  tenant.offset =
      start_offsets[splitmix64(rng_state) % start_offsets.size()];
  tenant.shard = handle % plan.shards;
  tenants.push_back(std::move(tenant));
  if (service->add_tenant(std::move(name), "default") != handle) {
    ++misrouted;
  }
  return handle;
}

void Fleet::Impl::connect_client() {
  const auto port = line_server->start();
  if (!port.ok()) throw std::runtime_error("cannot start the line server");
  client_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port.value());
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (client_fd < 0 ||
      ::connect(client_fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    throw std::runtime_error("cannot connect to the line server");
  }
  net::set_nodelay(client_fd);
}

preprocess::BinaryEvent Fleet::Impl::event_at(const TenantState& tenant,
                                              std::uint64_t k) const {
  const std::uint64_t position = tenant.offset + k;
  preprocess::BinaryEvent event = stream[position % stream.size()];
  event.timestamp += static_cast<double>(position / stream.size()) *
                     stream_period_s;
  return event;
}

void Fleet::Impl::append_event_line(
    std::string& lines, const TenantState& tenant,
    const preprocess::BinaryEvent& event) const {
  lines += "{\"tenant\":\"";
  lines += tenant.name;
  lines += "\",\"device\":\"";
  lines += catalog.info(event.device).name;
  lines += event.state != 0 ? "\",\"value\":1,\"timestamp\":"
                            : "\",\"value\":0,\"timestamp\":";
  append_number(lines, event.timestamp);
  lines += "}\n";
}

void Fleet::Impl::churn_one(std::string& lines, std::uint64_t scheduled_ns) {
  // Replace one live tenant: its events stop, a remove verb, then an add
  // verb for a fresh tenant that takes over the slot.
  const std::size_t slot = churns % main_slots.size();
  lines += "{\"op\":\"remove_tenant\",\"tenant\":\"";
  lines += tenants[main_slots[slot]].name;
  lines += "\"}\n";
  const std::size_t handle = tenants.size();
  TenantState tenant;
  tenant.name = "home-" + std::to_string(handle);
  tenant.offset =
      start_offsets[splitmix64(rng_state) % start_offsets.size()];
  tenant.shard = handle % plan.shards;
  lines += "{\"op\":\"add_tenant\",\"tenant\":\"";
  lines += tenant.name;
  lines += "\",\"template\":\"default\"}\n";
  tenants.push_back(std::move(tenant));
  main_slots[slot] = handle;
  pending_controls.emplace_back(false, scheduled_ns);
  pending_controls.emplace_back(true, scheduled_ns);
  controls_sent += 2;
  ++churns;
}

bool Fleet::Impl::all_recorded() const {
  for (const ShardTrack& track : tracks) {
    if (track.recorded != track.sent) return false;
  }
  return pending_controls.empty();
}

void Fleet::Impl::poll(std::uint64_t now) {
  for (ShardTrack& track : tracks) {
    const std::uint64_t done = track.done();
    while (track.recorded < done && !track.batches.empty()) {
      const auto [end, scheduled] = track.batches.front();
      const std::uint64_t upto = std::min(end, done);
      if (latency_sink != nullptr) {
        const std::uint64_t latency = now > scheduled ? now - scheduled : 0;
        latency_sink->latency.add(latency, upto - track.recorded);
        const std::uint64_t window =
            (scheduled - latency_sink->start_ns) / kWindowNs;
        if (window < latency_sink->windows.size()) {
          latency_sink->windows[window].add(latency, upto - track.recorded);
        }
      }
      track.recorded = upto;
      if (upto == end) track.batches.pop_front();
    }
  }
  if (client_fd >= 0 && !pending_controls.empty()) read_responses(now, false);
  if (now >= next_depth_poll_ns) {
    for (std::size_t shard = 0; shard < tracks.size(); ++shard) {
      queue_depth_max = std::max(queue_depth_max,
                                 service->shard_progress(shard).queue_depth);
    }
    next_depth_poll_ns = now + 1'000'000;
  }
}

void Fleet::Impl::read_responses(std::uint64_t now, bool blocking) {
  char buffer[4096];
  for (;;) {
    const ssize_t n =
        ::recv(client_fd, buffer, sizeof(buffer), blocking ? 0 : MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    response_buffer.append(buffer, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = response_buffer.find('\n')) != std::string::npos) {
      const std::string line = response_buffer.substr(0, newline);
      response_buffer.erase(0, newline + 1);
      // Only control verbs answer OK; any ERR is a rejected line.
      if (line.rfind("OK ", 0) != 0 || pending_controls.empty()) {
        ++control_errors;
        continue;
      }
      const auto [is_add, scheduled] = pending_controls.front();
      pending_controls.pop_front();
      const double rtt_us =
          static_cast<double>(now > scheduled ? now - scheduled : 0) / 1e3;
      (is_add ? add_rtt_us : remove_rtt_us).push_back(rtt_us);
    }
    if (!blocking && pending_controls.empty()) return;
  }
}

SegmentStats Fleet::Impl::run_segment(double rate, double seconds,
                                      Transport transport,
                                      std::vector<std::size_t>& slots,
                                      bool churn, SpanLog& spans) {
  const SpanLog::Scope span = spans.open("loadgen.segment");
  SegmentStats out;
  out.rate = rate;
  latency_sink = &out;
  const bool timed_calls = timing.load(std::memory_order_relaxed);
  std::uint64_t call_ns = 0;
  std::uint64_t calls = 0;
  const auto ticks = static_cast<std::uint64_t>(
      std::max(1.0, std::round(seconds * 1e9 / static_cast<double>(kTickNs))));
  const double per_tick = rate * static_cast<double>(kTickNs) / 1e9;
  const std::uint64_t start = now_ns() + 1'000'000;
  out.start_ns = start;
  const auto window_count = static_cast<std::size_t>(
      (ticks * kTickNs + kWindowNs - 1) / kWindowNs);
  out.windows.resize(window_count);
  out.window_steal.assign(window_count, 0.0);
  std::size_t open_window = 0;
  double steal_mark = host_steal_and_total().first;
  if (churn && next_churn_ns < start) next_churn_ns = start;
  std::uint64_t sent = 0;
  std::string lines;
  for (std::uint64_t tick = 0; tick < ticks; ++tick) {
    const std::uint64_t scheduled = start + tick * kTickNs;
    // Accumulated-count rule: floor((t+1)·r) − floor(t·r) never drifts.
    const auto due = static_cast<std::uint64_t>(
        std::floor(static_cast<double>(tick + 1) * per_tick));
    std::uint64_t now = now_ns();
    while (now < scheduled) {
      poll(now);
      // Waiting, the generator gives its core to any runnable thread (the
      // history sampler, a waking shard) instead of competing with it.
      std::this_thread::yield();
      now = now_ns();
    }
    const auto window =
        static_cast<std::size_t>((scheduled - start) / kWindowNs);
    if (window != open_window) {
      const double steal = host_steal_and_total().first;
      out.window_steal[open_window] = steal - steal_mark;
      steal_mark = steal;
      open_window = window;
    }
    if (due == sent) continue;
    out.late.add(now - scheduled);
    if (tick >= ticks - ticks / 4) out.tail_late.add(now - scheduled);
    if (churn && scheduled >= next_churn_ns && churns < churn_limit) {
      churn_one(lines, scheduled);
      next_churn_ns +=
          static_cast<std::uint64_t>(plan.churn_period_s * 1e9);
    }
    for (; sent < due; ++sent) {
      TenantState& tenant = tenants[slots[slot_cursor++ % slots.size()]];
      const preprocess::BinaryEvent event = event_at(tenant, tenant.sent++);
      ShardTrack& track = tracks[tenant.shard];
      ++track.sent;
      if (track.batches.empty() || track.batches.back().second != scheduled) {
        track.batches.emplace_back(track.sent, scheduled);
      } else {
        track.batches.back().first = track.sent;
      }
      if (transport == Transport::kTcp) {
        append_event_line(lines, tenant, event);
        continue;
      }
      const serve::TenantHandle handle =
          static_cast<serve::TenantHandle>(&tenant - tenants.data());
      serve::DetectionService::SubmitResult submitted;
      if (timed_calls) {
        const std::uint64_t call_start = now_ns();
        submitted = service->submit(handle, event);
        const std::uint64_t call = now_ns() - call_start;
        submit_ns.add(call);
        call_ns += call;
        ++calls;
      } else {
        submitted = service->submit(handle, event);
      }
      if (submitted != serve::DetectionService::SubmitResult::kAccepted) {
        ++submits_not_accepted;
      }
    }
    if (transport == Transport::kTcp) {
      const std::uint64_t write_start = now_ns();
      if (!net::write_all(client_fd, lines)) {
        throw std::runtime_error("ingest connection closed");
      }
      if (timed_calls) {
        call_ns += now_ns() - write_start;
        ++calls;
      }
      lines_sent += static_cast<std::uint64_t>(
          std::count(lines.begin(), lines.end(), '\n'));
      bytes_sent += lines.size();
      lines.clear();
    }
    poll(now_ns());
  }
  std::uint64_t now = now_ns();
  const std::uint64_t deadline = now + kDrainTimeoutNs;
  while (!all_recorded() && now < deadline) {
    poll(now);
    now = now_ns();
  }
  out.window_steal[open_window] = host_steal_and_total().first - steal_mark;
  out.drained = all_recorded();
  out.events = sent;
  out.elapsed_s = static_cast<double>(now - start) / 1e9;
  events_offered += sent;
  if (transport == Transport::kTcp) tcp_elapsed_s += out.elapsed_s;
  latency_sink = nullptr;
  spans.add_aggregate(
      transport == Transport::kTcp ? "net.send" : "serve.submit", calls,
      call_ns);
  return out;
}

void Fleet::Impl::run_sampler_probe(SpanLog& spans) {
  // The 1 s history sampler as `causaliot serve` runs it, on for one
  // nominal-rate segment. Timed runs keep it off: each sample holds the
  // registry mutex while it walks every series, and an alarm that needs a
  // new blame series waits for it, so latency windows swing between 0.1
  // and 100 ms (see METRICS.md). Here its stall and its memory show. It
  // runs first, on the fresh fleet: after the ladder the serve-fleet
  // registry holds ~53k series and the sampler's rings take 1.8 GB.
  const double rss_before = current_rss_bytes();
  history->start();
  sampler_segment = run_segment(
      plan.nominal_eps, kSamplerProbeSeconds,
      plan.tcp ? Transport::kTcp : Transport::kDirect, main_slots,
      plan.churn_period_s > 0.0, spans);
  history->stop();
  history_bytes = current_rss_bytes() - rss_before;
}

void Fleet::Impl::run_probes(SpanLog& spans) {
  // Live lifecycle calls timed one by one, with a short segment over the
  // transport the main traffic does not use, so every layer reports.
  std::vector<std::size_t> probe_slots;
  for (std::size_t i = 0; i < kProbeTenants; ++i) {
    const SpanLog::Scope span = spans.open("serve.add_tenant");
    const std::uint64_t start = now_ns();
    probe_slots.push_back(add_tenant("probe-" + std::to_string(i)));
    add_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  timing.store(true, std::memory_order_relaxed);
  run_segment(kProbeEps, kProbeSeconds,
              plan.tcp ? Transport::kDirect : Transport::kTcp, probe_slots,
              /*churn=*/false, spans);
  timing.store(false, std::memory_order_relaxed);
  for (const std::size_t handle : probe_slots) {
    const SpanLog::Scope span = spans.open("serve.remove_tenant");
    const std::uint64_t start = now_ns();
    service->remove_tenant(static_cast<serve::TenantHandle>(handle));
    remove_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }

  {
    const SpanLog::Scope span = spans.open("obs.prometheus");
    const std::uint64_t start = now_ns();
    const std::string text = service->prometheus();
    prometheus_ms = static_cast<double>(now_ns() - start) / 1e6;
    prometheus_bytes = static_cast<double>(text.size());
    std::size_t samples = 0;
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t end = std::min(text.find('\n', pos), text.size());
      if (end > pos && text[pos] != '#') ++samples;
      pos = end + 1;
    }
    series = static_cast<double>(samples);
  }

  // The ingest scanner alone, over this fleet's own event lines.
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 20000; ++i) {
    const TenantState& tenant = tenants[main_slots[i % main_slots.size()]];
    std::string line;
    append_event_line(line, tenant, event_at(tenant, i));
    line.pop_back();
    lines.push_back(std::move(line));
  }
  const SpanLog::Scope span = spans.open("telemetry.scan");
  std::size_t scanned = 0;
  const std::uint64_t start = now_ns();
  for (int round = 0; round < 5; ++round) {
    for (const std::string& line : lines) {
      serve::IngestFields fields;
      scanned += serve::scan_ingest_line(line, fields) ? 1 : 0;
    }
  }
  scan_ns = static_cast<double>(now_ns() - start) /
            static_cast<double>(std::max<std::size_t>(scanned, 1));
}

std::size_t Fleet::Impl::replay_and_compare(SpanLog& spans, Result& result) {
  // Single-threaded reference: one TenantSession per tenant over exactly
  // the events it was sent, alarms through the same filter + attribution
  // path DetectionService::deliver takes.
  const SpanLog::Scope span = spans.open("detect.replay");
  std::uint64_t events = 0;
  std::uint64_t alarms = 0;
  std::uint64_t alarm_ns = 0;
  std::uint64_t attribute_ns = 0;
  const std::uint64_t start = now_ns();
  std::vector<std::vector<std::uint64_t>> reference(tenants.size());
  for (std::size_t handle = 0; handle < tenants.size(); ++handle) {
    const TenantState& tenant = tenants[handle];
    serve::TenantSession session(tenant.name,
                                 serve::instantiate(*model_template),
                                 serve::SessionConfig{},
                                 std::vector<std::uint8_t>(device_count, 0));
    const auto on_report = [&](detect::AnomalyReport report) {
      const std::uint64_t alarm_start = now_ns();
      std::optional<detect::SunkAlarm> sunk =
          session.filter(std::move(report));
      if (sunk.has_value()) {
        const std::uint64_t attribute_start = now_ns();
        const detect::RootCauseAttribution causes =
            session.attribute(sunk->report);
        attribute_ns += now_ns() - attribute_start;
        reference[handle].push_back(
            alarm_fingerprint(sunk->report, sunk->severity, causes));
        ++alarms;
      }
      alarm_ns += now_ns() - alarm_start;
    };
    for (std::uint64_t k = 0; k < tenant.sent; ++k) {
      if (auto report = session.process(event_at(tenant, k))) {
        on_report(std::move(*report));
      }
    }
    if (auto tail = session.finish()) on_report(std::move(*tail));
    events += tenant.sent;
  }
  const std::uint64_t replay_ns = now_ns() - start;
  spans.add_aggregate("detect.root_cause", alarms, attribute_ns);

  if (options.corrupt_reference) {
    auto it = std::find_if(reference.begin(), reference.end(),
                           [](const auto& list) { return !list.empty(); });
    if (it != reference.end()) {
      it->front() ^= 1;
    } else {
      reference.front().push_back(0);
    }
  }
  std::size_t mismatched = 0;
  for (std::size_t handle = 0; handle < tenants.size(); ++handle) {
    const auto& served = served_alarms[handle];
    const auto& expected = reference[handle];
    const std::size_t common = std::min(served.size(), expected.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (served[i] != expected[i]) ++mismatched;
    }
    mismatched += std::max(served.size(), expected.size()) - common;
  }

  result.layer("detect.step_ns",
               events > 0 ? static_cast<double>(replay_ns - alarm_ns) /
                                static_cast<double>(events)
                          : 0.0,
               "ns");
  result.layer("detect.alarms", static_cast<double>(alarms), "count");
  result.layer("detect.root_cause_ns",
               alarms > 0 ? static_cast<double>(attribute_ns) /
                                static_cast<double>(alarms)
                          : 0.0,
               "ns");
  result.detail(format("reference replay: %llu events, %llu alarms, %.3f s",
                       static_cast<unsigned long long>(events),
                       static_cast<unsigned long long>(alarms),
                       static_cast<double>(replay_ns) / 1e9));
  return mismatched;
}

Fleet::Fleet(const core::TrainedModel& model,
             const telemetry::DeviceCatalog& catalog,
             std::vector<preprocess::BinaryEvent> stream,
             const ServePlan& plan, std::uint64_t seed,
             const Options& options, SpanLog& spans)
    : impl_(std::make_unique<Impl>(model, catalog, std::move(stream), plan,
                                   seed, options, spans)) {}

Fleet::~Fleet() = default;

double Fleet::bytes_per_tenant() const { return impl_->bytes_per_tenant; }

void Fleet::run_timed(SpanLog& spans,
                      const std::function<void()>& between_rungs) {
  Impl& f = *impl_;
  const Transport transport = f.plan.tcp ? Transport::kTcp : Transport::kDirect;
  const bool churn = f.plan.churn_period_s > 0.0;
  if (f.options.trace) f.run_sampler_probe(spans);
  f.run_segment(f.plan.nominal_eps, kWarmupSeconds, transport, f.main_slots,
                churn, spans);
  if (f.options.trace) {
    // The same rung untraced first: the gap is the tracing overhead.
    f.nominal_untraced_p50_us =
        f.run_segment(f.plan.nominal_eps, f.plan.nominal_s, transport,
                      f.main_slots, churn, spans)
            .quiet_us(0.50);
    f.timing.store(true, std::memory_order_relaxed);
  }
  const auto steal_before = host_steal_and_total();
  f.nominal = f.run_segment(f.plan.nominal_eps, f.plan.nominal_s, transport,
                            f.main_slots, churn, spans);
  const auto steal_after = host_steal_and_total();
  f.nominal_steal_share =
      steal_after.second > steal_before.second
          ? (steal_after.first - steal_before.first) /
                (steal_after.second - steal_before.second)
          : 0.0;
  f.timing.store(false, std::memory_order_relaxed);
  if (between_rungs) between_rungs();

  // Highest sustained rung, by bisection over the fixed ladder. A rung is
  // over only when a second try fails too: one stall of a few hundred
  // milliseconds (seen at a quarter of capacity on a quiet host) must not
  // cut the search in half.
  std::ptrdiff_t low = -1;
  auto high = static_cast<std::ptrdiff_t>(f.plan.ladder.size());
  while (high - low > 1) {
    const std::ptrdiff_t mid = (low + high) / 2;
    bool sustained = false;
    for (int attempt = 0; attempt < 2 && !sustained; ++attempt) {
      const SegmentStats rung =
          f.run_segment(f.plan.ladder[static_cast<std::size_t>(mid)],
                        f.plan.probe_s, transport, f.main_slots, churn, spans);
      sustained = rung.sustained();
      f.ladder_log.push_back(format(
          "%.0f:%s(p99 %.0fus, late %.0fus%s)", rung.rate,
          sustained ? "ok" : "over", rung.quiet_us(0.99),
          rung.tail_late.quantile(0.5) / 1e3,
          rung.drained ? "" : ", undrained"));
      if (sustained) {
        f.max_eps = static_cast<double>(rung.events) / rung.elapsed_s;
      }
      if (between_rungs) between_rungs();
    }
    if (sustained) {
      low = mid;
    } else {
      high = mid;
    }
  }
}

void Fleet::finish(SpanLog& spans, Result& result) {
  Impl& f = *impl_;
  if (f.options.trace) f.run_probes(spans);

  // Every live tenant must sit at the handle the generator routed by.
  for (const std::size_t handle : f.main_slots) {
    if (f.service->find_tenant(f.tenants[handle].name) != handle) {
      ++f.misrouted;
    }
  }
  result.fail(f.misrouted, "tenant handles differ from the routing model");

  f.history->stop();
  if (f.client_fd >= 0) {
    // Half-close, then read until the server has answered every line.
    ::shutdown(f.client_fd, SHUT_WR);
    f.read_responses(now_ns(), /*blocking=*/true);
    ::close(f.client_fd);
    f.client_fd = -1;
    f.line_server->stop();
  }
  double drain_s = 0.0;
  {
    const SpanLog::Scope span = spans.open("serve.drain");
    const std::uint64_t start = now_ns();
    f.service->shutdown();
    drain_s = seconds_since(start);
  }
  const serve::ServiceStats stats = f.service->stats();

  // Correctness gates, each counted in failed.
  result.attempted += f.events_offered + f.controls_sent;
  result.fail(f.submits_not_accepted, "submit() did not accept an event");
  const std::uint64_t conserved =
      stats.events_processed + stats.events_orphaned;
  result.fail(stats.events_submitted > conserved
                  ? stats.events_submitted - conserved
                  : conserved - stats.events_submitted,
              "submitted != processed + orphaned");
  result.fail(f.events_offered > stats.events_submitted
                  ? f.events_offered - stats.events_submitted
                  : 0,
              "events offered but never submitted");
  result.fail(f.router->rejected_total(), "ingest lines rejected");
  result.fail(f.control_errors, "error responses on the ingest connection");
  result.fail(f.lines_sent > f.router->lines_total()
                  ? f.lines_sent - f.router->lines_total()
                  : 0,
              "ingest lines sent but never handled");
  const std::size_t mismatched = f.replay_and_compare(spans, result);
  result.fail(mismatched,
              "served alarms differ from the single-threaded replay");

  std::uint64_t processed_min = ~std::uint64_t{0};
  std::uint64_t processed_max = 0;
  for (const ShardTrack& track : f.tracks) {
    processed_min = std::min(processed_min, track.processed->value());
    processed_max = std::max(processed_max, track.processed->value());
  }

  result.e2e("serve_p50_us", f.nominal.quiet_us(0.50), "us");
  result.e2e("serve_max_eps", f.max_eps, "events/s");
  result.detail(format(
      "serve: %zu tenants, %zu shards, %s; nominal %.0f ev/s for %.1f s: "
      "%llu latency samples in %zu windows; quiet-half p50 %.1f us, p99 "
      "%.1f us; all windows p50 %.1f us, p99 %.1f us; host steal %.2f%%; "
      "loadgen late p50 %.1f us, p99 %.1f us",
      f.plan.tenants, f.plan.shards, f.plan.tcp ? "tcp ingest" : "direct",
      f.plan.nominal_eps, f.plan.nominal_s,
      static_cast<unsigned long long>(f.nominal.latency.total()),
      f.nominal.windows.size(), f.nominal.quiet_us(0.50),
      f.nominal.quiet_us(0.99), f.nominal.p50_us(), f.nominal.p99_us(),
      100.0 * f.nominal_steal_share, f.nominal.late.quantile(0.5) / 1e3,
      f.nominal.late.quantile(0.99) / 1e3));
  std::string ladder = "ladder (rate:verdict, quiet p99, tail lateness):";
  for (const std::string& rung : f.ladder_log) ladder += " " + rung;
  result.detail(ladder);
  // A generator that runs systematically behind offers less than the
  // nominal rate: the run is invalid, not slow.
  if (f.nominal.late.quantile(0.5) / 1e3 > kMaxGeneratorLateUs) {
    result.fail(1, "load generator fell behind at the nominal rate; the "
                   "latency figures are invalid");
  }
  if (!f.add_rtt_us.empty()) {
    result.detail(format("churn: %zu replacements, add verb p50 %.1f us, "
                         "remove verb p50 %.1f us",
                         f.churns, median(f.add_rtt_us),
                         median(f.remove_rtt_us)));
  }
  if (!f.options.trace) return;

  // Per-layer, not end-to-end: on a shared host p99 follows the
  // hypervisor's steal (see METRICS.md), too unsteady for a bound.
  result.layer("serve_p99_us", f.nominal.quiet_us(0.99), "us");
  result.layer("serve.submit_ns_p50", f.submit_ns.quantile(0.50), "ns");
  result.layer("serve.submit_ns_p99", f.submit_ns.quantile(0.99), "ns");
  result.layer("serve.block_waits",
               static_cast<double>(stats.queue_block_waits), "count");
  result.layer("serve.queue_depth_max",
               static_cast<double>(f.queue_depth_max), "count");
  result.layer("serve.shard_skew",
               processed_min > 0 ? static_cast<double>(processed_max) /
                                       static_cast<double>(processed_min)
                                 : 0.0,
               "ratio");
  result.layer("serve.drain_s", drain_s, "s");
  result.layer("serve.add_tenant_us", median(f.add_us), "us");
  result.layer("serve.remove_tenant_us", median(f.remove_us), "us");
  result.layer("telemetry.scan_ns", f.scan_ns, "ns");
  result.layer("serve.ingest_line_ns", f.handler_ns.quantile(0.5), "ns");
  result.layer("net.lines_per_s",
               f.tcp_elapsed_s > 0.0
                   ? static_cast<double>(f.lines_sent) / f.tcp_elapsed_s
                   : 0.0,
               "1/s");
  result.layer("net.bytes", static_cast<double>(f.bytes_sent), "bytes");
  result.layer("serve.ingest_rejected",
               static_cast<double>(f.router->rejected_total()), "count");
  const std::uint64_t refreshes = f.refreshes.load();
  result.layer("obs.refresh_ms",
               refreshes > 0 ? static_cast<double>(f.refresh_ns.load()) /
                                   1e6 / static_cast<double>(refreshes)
                             : 0.0,
               "ms");
  spans.add_aggregate("obs.refresh", refreshes, f.refresh_ns.load());
  spans.add_aggregate("obs.sample", refreshes, f.sample_ns.load());
  result.layer("obs.sample_ms",
               refreshes > 0 ? static_cast<double>(f.sample_ns.load()) /
                                   1e6 / static_cast<double>(refreshes)
                             : 0.0,
               "ms");
  result.layer("obs.history_bytes", f.history_bytes, "bytes");
  result.layer("obs.sampler_p99_us", f.sampler_segment.p99_us(), "us");
  spans.add_aggregate("serve.ingest_line", f.handler_ns.total(),
                      f.handler_total_ns);
  result.layer("obs.prometheus_ms", f.prometheus_ms, "ms");
  result.layer("obs.prometheus_bytes", f.prometheus_bytes, "bytes");
  result.layer("obs.series", f.series, "count");
  result.layer("loadgen.late_p99_us", f.nominal.late.quantile(0.99) / 1e3,
               "us");
  result.layer("loadgen.events", static_cast<double>(f.events_offered),
               "count");
  result.layer("trace.serve_overhead_ratio",
               f.nominal_untraced_p50_us > 0.0
                   ? f.nominal.quiet_us(0.50) /
                             f.nominal_untraced_p50_us -
                         1.0
                   : 0.0,
               "ratio");
}

}  // namespace perfbench
