// causaliot — command-line front end for the library.
//
//   causaliot simulate --profile contextact --days 7 --seed 1 --out trace.csv
//   causaliot train    --trace trace.csv --profile contextact --out model.dig
//   causaliot monitor  --model model.dig --trace live.csv --profile contextact
//                      [--kmax 3] [--threshold 0.99]
//   causaliot serve    --model model.dig --trace live.csv [--tenants 4]
//                      [--shards 2] [--speedup 0] [--policy block]
//                      [--stdin 1] [--ingest-port 0] [--ingest-http 0]
//                      [--alert-rules rules.jsonl] [--history-interval 1000]
//   causaliot inspect  --model model.dig --profile contextact [--dot graph.dot]
//
// The profile argument supplies the device catalog (column order of the
// CSV); custom deployments would register their own catalog the same way.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "causaliot/core/evaluation.hpp"
#include "causaliot/core/experiment.hpp"
#include "causaliot/core/pipeline.hpp"
#include "causaliot/detect/explanation.hpp"
#include "causaliot/detect/root_cause.hpp"
#include "causaliot/graph/analysis.hpp"
#include "causaliot/inject/injector.hpp"
#include "causaliot/net/line_server.hpp"
#include "causaliot/obs/alert.hpp"
#include "causaliot/obs/http_server.hpp"
#include "causaliot/obs/registry.hpp"
#include "causaliot/obs/time_series.hpp"
#include "causaliot/obs/trace.hpp"
#include "causaliot/serve/alarm_json.hpp"
#include "causaliot/serve/ingest.hpp"
#include "causaliot/serve/introspection.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/serve/watchdog.hpp"
#include "causaliot/sim/simulator.hpp"
#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/telemetry/jsonl.hpp"
#include "causaliot/util/file.hpp"
#include "causaliot/util/log.hpp"
#include "causaliot/util/strings.hpp"

namespace {

using namespace causaliot;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  const char* get(const std::string& key, const char* fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second.c_str();
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::strtod(it->second.c_str(),
                                                        nullptr);
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = options.find(key);
    return it == options.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  bool require(const std::string& key) const {
    if (options.contains(key)) return true;
    std::fprintf(stderr, "missing required option --%s\n", key.c_str());
    return false;
  }
};

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "expected --option, got '%s'\n", argv[i]);
      return std::nullopt;
    }
    args.options[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

// Atomic (temp file + rename) so a concurrent scraper of --prom-out /
// --trace-out never reads a truncated document.
bool write_text_file(const std::string& path, const std::string& content) {
  const auto status = util::write_file_atomic(path, content);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 status.error().to_string().c_str());
    return false;
  }
  return true;
}

// Builds the introspection server for --listen (unstarted, no routes);
// nullptr when the flag is absent.
std::unique_ptr<obs::HttpServer> make_listener(const Args& args) {
  if (!args.options.contains("listen")) return nullptr;
  obs::HttpServerConfig config;
  config.port = static_cast<std::uint16_t>(args.get_u64("listen", 0));
  config.registry = &obs::Registry::global();
  return std::make_unique<obs::HttpServer>(std::move(config));
}

// Starts `server` and announces the bound address on stderr (stdout is
// the alarm/metrics JSONL stream; CI greps this line for the ephemeral
// port picked by --listen 0).
bool start_listener(obs::HttpServer& server) {
  const auto port = server.start();
  if (!port.ok()) {
    std::fprintf(stderr, "cannot start introspection server: %s\n",
                 port.error().to_string().c_str());
    return false;
  }
  std::fprintf(stderr, "introspection listening on http://127.0.0.1:%u\n",
               static_cast<unsigned>(*port));
  std::fflush(stderr);
  return true;
}

// Per-stage timing table from the tracer's aggregated span totals.
void print_stage_table(const obs::Tracer& tracer) {
  const auto totals = tracer.stage_totals();
  std::printf("%-20s %10s %12s\n", "stage", "spans", "total ms");
  for (const auto& [name, total] : totals) {
    std::printf("%-20s %10llu %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(total.count),
                static_cast<double>(total.total_ns) / 1e6);
  }
}

// The numbers that show the next training hot spot and any memory creep
// without a trace dump: the slowest child's Algorithm 1 run level by
// level, the speculative tests the mine threw away, and the process's
// peak resident set so far.
void print_training_cost(const mining::MiningDiagnostics& diagnostics) {
  const auto& costs = diagnostics.child_costs;
  const auto slowest = std::max_element(
      costs.begin(), costs.end(), [](const auto& a, const auto& b) {
        return a.seconds < b.seconds;
      });
  if (slowest != costs.end()) {
    std::printf("slowest child %u: %.3f ms, %zu CI tests\n",
                static_cast<unsigned>(slowest->child),
                slowest->seconds * 1e3, slowest->tests);
    std::printf("%8s %10s %12s %10s\n", "level", "tests", "ms",
                "discarded");
    for (std::size_t l = 0; l < slowest->levels.size(); ++l) {
      const mining::LevelCost& level = slowest->levels[l];
      std::printf("%8zu %10zu %12.3f %10zu\n", l, level.tests,
                  level.seconds * 1e3, level.discarded);
    }
  }
  std::printf("speculative CI tests discarded: %zu\n",
              diagnostics.discarded_tests());
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    std::printf("peak RSS: %.1f MB\n",
                static_cast<double>(usage.ru_maxrss) / 1024.0);  // KB
  }
}

// --simd NAME: pin the CI counting kernels to one backend instead of the
// capability probe's pick (equivalent to CAUSALIOT_SIMD=NAME, but a bad
// name is a usage error here rather than a warn-and-continue). Applied
// before command dispatch so train, monitor, and serve all honour it.
bool apply_simd_flag(const Args& args) {
  if (!args.options.contains("simd")) return true;
  const std::string& name = args.options.at("simd");
  const auto backend = stats::simd::parse_backend(name);
  if (backend && stats::simd::force_backend(*backend)) return true;
  std::string available;
  for (const stats::simd::Backend b : stats::simd::available_backends()) {
    available += ' ';
    available += stats::simd::backend_name(b);
  }
  std::fprintf(stderr,
               "--simd '%s' is %s on this host; available:%s\n",
               name.c_str(), backend ? "not supported" : "not a backend",
               available.c_str());
  return false;
}

std::optional<sim::HomeProfile> profile_by_name(const std::string& name) {
  if (name == "contextact") return sim::contextact_profile();
  if (name == "casas") return sim::casas_profile();
  std::fprintf(stderr, "unknown profile '%s' (contextact | casas)\n",
               name.c_str());
  return std::nullopt;
}

int cmd_simulate(const Args& args) {
  if (!args.require("out")) return 2;
  auto profile = profile_by_name(args.get("profile", "contextact"));
  if (!profile) return 2;
  profile->days = args.get_double("days", profile->days);
  const std::uint64_t seed = args.get_u64("seed", 1);

  sim::SmartHomeSimulator simulator(std::move(*profile), seed);
  const sim::SimulationResult result = simulator.run();
  const std::string out = args.get("out", "");
  const bool jsonl = std::string(args.get("format", "csv")) == "jsonl";
  const auto status = jsonl ? telemetry::save_jsonl(result.log, out)
                            : result.log.save_csv(out);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n",
                 status.error().to_string().c_str());
    return 1;
  }
  std::printf("wrote %zu events (%zu user, %zu automation) to %s\n",
              result.log.size(), result.user_events,
              result.automation_events, out.c_str());
  return 0;
}

std::optional<telemetry::EventLog> load_trace(const Args& args) {
  auto profile = profile_by_name(args.get("profile", "contextact"));
  if (!profile) return std::nullopt;
  telemetry::DeviceCatalog catalog;
  for (const telemetry::DeviceInfo& info : profile->devices) {
    if (!catalog.add(info).ok()) return std::nullopt;
  }
  const std::string trace = args.get("trace", "");
  const bool jsonl =
      std::string(args.get("format", "")) == "jsonl" ||
      (trace.size() > 6 && trace.substr(trace.size() - 6) == ".jsonl");
  auto log = jsonl ? telemetry::load_jsonl(trace, std::move(catalog))
                   : telemetry::EventLog::load_csv(trace, catalog);
  if (!log.ok()) {
    std::fprintf(stderr, "cannot load trace: %s\n",
                 log.error().to_string().c_str());
    return std::nullopt;
  }
  return std::move(log).value();
}

int cmd_train(const Args& args) {
  if (!args.require("trace") || !args.require("out")) return 2;
  const auto log = load_trace(args);
  if (!log) return 1;

  const std::string trace_out = args.get("trace-out", "");
  const bool verbose = args.get_u64("verbose", 0) != 0;
  if (!trace_out.empty() || verbose) {
    obs::Tracer::global().set_enabled(true);
  }

  // --listen: live mining counters + stage totals while a long train
  // runs, instead of waiting for the post-run --prom-out dump.
  std::unique_ptr<obs::HttpServer> http = make_listener(args);
  if (http != nullptr) {
    http->handle("/metrics", [](const obs::HttpRequest&) {
      return obs::HttpResponse::text(obs::Registry::global().to_prometheus(),
                                     obs::kContentTypePrometheus);
    });
    http->handle("/healthz", [](const obs::HttpRequest&) {
      return obs::HttpResponse::text("ok\n");
    });
    // A train run is "ready" the moment it scrapes: there is no warm-up
    // state to gate on, unlike serve.
    http->handle("/readyz", [](const obs::HttpRequest&) {
      return obs::HttpResponse::text("ready\n");
    });
    http->handle("/statusz", [](const obs::HttpRequest&) {
      return obs::HttpResponse::json(util::format(
          "{\"build\": \"causaliot\", \"command\": \"train\", "
          "\"simd_backend\": \"%s\"}",
          std::string(stats::simd::backend_name(stats::simd::chosen()))
              .c_str()));
    });
    http->handle("/tracez", [](const obs::HttpRequest&) {
      return obs::HttpResponse::json(
          obs::Tracer::global().stage_totals_json());
    });
    if (!start_listener(*http)) return 1;
  }

  core::PipelineConfig config;
  config.max_lag = static_cast<std::size_t>(args.get_u64("tau", 0));
  config.alpha = args.get_double("alpha", 0.001);
  config.percentile_q = args.get_double("q", 99.0);
  config.laplace_alpha = args.get_double("laplace", 0.1);
  config.min_samples_per_dof = args.get_double("guard", 10.0);
  config.mining_threads =
      static_cast<std::size_t>(args.get_u64("threads", 1));
  config.ci_batching = args.get_u64("ci-batch", 1) != 0;
  config.simd_backend = args.get("simd", "");
  core::Pipeline pipeline(config);
  const core::TrainedModel model = pipeline.train(*log);

  const std::string out = args.get("out", "");
  if (const auto status = model.graph.save(out); !status.ok()) {
    std::fprintf(stderr, "write failed: %s\n",
                 status.error().to_string().c_str());
    return 1;
  }
  std::printf("trained on %zu events: tau=%zu, %zu interactions, "
              "threshold=%.4f (simd=%s)\nmodel written to %s\n",
              log->size(), model.lag, model.graph.edge_count(),
              model.score_threshold,
              std::string(stats::simd::backend_name(stats::simd::chosen()))
                  .c_str(),
              out.c_str());
  std::printf("(pass --threshold %.4f to `causaliot monitor`)\n",
              model.score_threshold);

  if (!trace_out.empty() &&
      !write_text_file(trace_out,
                       obs::Tracer::global().export_chrome_json())) {
    return 1;
  }
  if (!trace_out.empty()) {
    std::printf("trace (%zu spans) written to %s — load it at "
                "https://ui.perfetto.dev\n",
                obs::Tracer::global().event_count(), trace_out.c_str());
  }
  const std::string prom_out = args.get("prom-out", "");
  if (!prom_out.empty() &&
      !write_text_file(prom_out,
                       obs::Registry::global().to_prometheus())) {
    return 1;
  }
  if (verbose) {
    print_stage_table(obs::Tracer::global());
    print_training_cost(model.mining_diagnostics);
  }
  if (http != nullptr) http->stop();
  return 0;
}

int cmd_monitor(const Args& args) {
  if (!args.require("model") || !args.require("trace")) return 2;
  auto profile = profile_by_name(args.get("profile", "contextact"));
  if (!profile) return 2;
  const auto log = load_trace(args);
  if (!log) return 1;
  auto graph = graph::InteractionGraph::load(args.get("model", ""));
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot load model: %s\n",
                 graph.error().to_string().c_str());
    return 1;
  }
  if (graph.value().device_count() != log->catalog().size()) {
    std::fprintf(stderr, "model/catalog device-count mismatch\n");
    return 1;
  }

  // Discretize the live stream with a model fitted on it (a deployment
  // would persist the training-time DiscretizationModel instead).
  preprocess::Preprocessor preprocessor;
  const preprocess::DiscretizationModel discretization =
      preprocess::DiscretizationModel::fit(*log);
  const auto events =
      preprocessor.discretize_runtime(*log, discretization, 0.0);

  detect::MonitorConfig config;
  config.score_threshold = args.get_double("threshold", 0.99);
  config.k_max = static_cast<std::size_t>(args.get_u64("kmax", 1));
  config.laplace_alpha = args.get_double("laplace", 0.1);
  detect::EventMonitor monitor(
      graph.value(), config,
      std::vector<std::uint8_t>(log->catalog().size(), 0));

  // Same walk parameters as `serve --root-cause-depth`, so batch replay
  // reproduces the served attributions exactly.
  detect::RootCauseConfig root_cause;
  root_cause.max_depth =
      static_cast<std::size_t>(args.get_u64("root-cause-depth", 3));

  std::size_t alarms = 0;
  const auto print_report = [&](const detect::AnomalyReport& report) {
    ++alarms;
    std::printf("%s\n",
                detect::describe_report(
                    report, log->catalog(),
                    detect::attribute_root_cause(report, &graph.value(),
                                                 root_cause))
                    .c_str());
  };
  for (const preprocess::BinaryEvent& event : events) {
    if (const auto report = monitor.process(event)) print_report(*report);
  }
  if (const auto tail = monitor.finish()) print_report(*tail);
  std::printf("-- %zu alarms over %zu events\n", alarms, events.size());
  return 0;
}

// SIGINT/SIGTERM flag for the network-only serve mode (no stdin, no
// trace replay: the process idles until a signal asks it to drain).
volatile std::sig_atomic_t g_serve_interrupted = 0;

void on_serve_signal(int) { g_serve_interrupted = 1; }

int cmd_serve(const Args& args) {
  if (!args.require("model")) return 2;
  const bool from_stdin = args.get_u64("stdin", 0) != 0;
  const bool ingest_tcp = args.options.contains("ingest-port");
  const bool ingest_http = args.options.contains("ingest-http");
  const bool from_trace = args.options.contains("trace");
  if (!from_stdin && !from_trace && !ingest_tcp && !ingest_http) {
    std::fprintf(stderr,
                 "serve needs an event source: --trace, --stdin 1, "
                 "--ingest-port PORT, or --ingest-http PORT\n");
    return 2;
  }
  auto profile = profile_by_name(args.get("profile", "contextact"));
  if (!profile) return 2;
  telemetry::DeviceCatalog catalog;
  for (const telemetry::DeviceInfo& info : profile->devices) {
    if (!catalog.add(info).ok()) return 1;
  }
  auto graph = graph::InteractionGraph::load(args.get("model", ""));
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot load model: %s\n",
                 graph.error().to_string().c_str());
    return 1;
  }
  if (graph.value().device_count() != catalog.size()) {
    std::fprintf(stderr, "model/catalog device-count mismatch\n");
    return 1;
  }

  serve::ServiceConfig config;
  config.shard_count = static_cast<std::size_t>(args.get_u64("shards", 2));
  config.queue_capacity =
      static_cast<std::size_t>(args.get_u64("queue", 4096));
  const std::string policy = args.get("policy", "block");
  if (policy == "block") {
    config.overflow = util::OverflowPolicy::kBlock;
  } else if (policy == "drop") {
    config.overflow = util::OverflowPolicy::kDropOldest;
  } else if (policy == "reject") {
    config.overflow = util::OverflowPolicy::kReject;
  } else {
    std::fprintf(stderr, "unknown policy '%s' (block | drop | reject)\n",
                 policy.c_str());
    return 2;
  }
  config.session.k_max = static_cast<std::size_t>(args.get_u64("kmax", 1));
  config.session.deduplicate_alarms = args.get_u64("dedup", 0) != 0;
  config.session.root_cause.max_depth =
      static_cast<std::size_t>(args.get_u64("root-cause-depth", 3));
  config.catalog = &catalog;
  config.root_cause_history =
      static_cast<std::size_t>(args.get_u64("root-cause-history", 8));
  // Ops-drill knob: slow every event down so a tiny queue saturates
  // deterministically and the watchdog/alert plane can be exercised.
  config.debug_event_delay_us =
      static_cast<std::uint32_t>(args.get_u64("debug-event-delay-us", 0));

  // Observability: the serve registry is the process-global one so mining
  // metrics from a colocated retrain land in the same snapshot stream.
  config.registry = &obs::Registry::global();
  const std::string trace_out = args.get("trace-out", "");
  config.trace_sample_every = static_cast<std::size_t>(
      args.get_u64("trace-sample", trace_out.empty() ? 0 : 1000));
  if (!trace_out.empty()) obs::Tracer::global().set_enabled(true);

  // Fleet model sharing: the loaded model becomes the "default" template
  // so every tenant — boot-time --tenants and add_tenant control verbs
  // with {"template": "default"} — reads one skeleton and base CPT
  // payload through a per-tenant copy-on-write delta. The registry
  // outlives the service (declared first, destroyed last).
  serve::TemplateRegistry templates;
  config.templates = &templates;
  const double threshold = args.get_double("threshold", 0.99);
  const double laplace = args.get_double("laplace", 0.1);
  const auto default_template = templates.publish(
      "default", graph.value(), threshold, laplace, /*version=*/1);
  auto snapshot = serve::instantiate(*default_template);

  // Alarms stream out as provenance-enriched JSONL; stdout is shared by
  // worker threads and the metrics streamer.
  std::mutex out_mutex;
  serve::DetectionService service(
      config, [&](const serve::ServedAlarm& alarm) {
        const std::string line = serve::alarm_to_json(alarm, catalog);
        std::lock_guard<std::mutex> lock(out_mutex);
        std::printf("%s\n", line.c_str());
      });

  // --metrics-interval N streams one registry snapshot line every N
  // seconds; --metrics-out routes those lines to a dedicated file so the
  // alarm JSONL on stdout stays machine-parseable without filtering.
  const auto metrics_interval = args.get_u64("metrics-interval", 0);
  const std::string metrics_out = args.get("metrics-out", "");
  std::ofstream metrics_file;
  if (!metrics_out.empty()) {
    metrics_file.open(metrics_out, std::ios::binary);
    if (!metrics_file.good()) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
  }
  std::atomic<bool> metrics_stop{false};
  std::thread metrics_thread;
  const auto emit_metrics = [&] {
    const std::string snapshot = service.registry_json();
    // Both clocks, so offline trend analysis can align snapshots with
    // alarm timestamps (wall) and with span traces (monotonic).
    const auto ts_unix_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    const std::string header = util::format(
        "{\"type\": \"metrics\", \"ts_unix_ms\": %lld, "
        "\"ts_mono_ns\": %llu, ",
        static_cast<long long>(ts_unix_ms),
        static_cast<unsigned long long>(obs::Tracer::now_ns()));
    // registry_json() yields {"metrics": [...]}; tag the stream record.
    std::lock_guard<std::mutex> lock(out_mutex);
    if (metrics_file.is_open()) {
      metrics_file << header << (snapshot.c_str() + 1) << "\n";
      metrics_file.flush();
    } else {
      std::printf("%s%s\n", header.c_str(), snapshot.c_str() + 1);
    }
  };
  if (metrics_interval > 0) {
    metrics_thread = std::thread([&] {
      const auto interval = std::chrono::seconds(metrics_interval);
      auto next = std::chrono::steady_clock::now() + interval;
      while (!metrics_stop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() >= next) {
          emit_metrics();
          next += interval;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }

  const auto tenant_count =
      static_cast<std::size_t>(args.get_u64("tenants", 4));
  std::vector<serve::TenantHandle> tenants;
  for (std::size_t i = 0; i < tenant_count; ++i) {
    tenants.push_back(service.add_tenant(
        "home-" + std::to_string(i), snapshot,
        std::vector<std::uint8_t>(catalog.size(), 0)));
  }

  // The retention + alerting plane: a background sampler snapshots the
  // registry every --history-interval MS into ring buffers (served as
  // /metrics/history), the watchdog turns shard progress into
  // serve_watchdog_* gauges, and the alert engine evaluates its rules
  // on every tick (served as /alertz). --history-interval 0 keeps the
  // endpoints but never samples. Declared before the HTTP listeners so
  // the servers (whose handlers read these) are destroyed first.
  const std::uint64_t history_interval_ms =
      args.get_u64("history-interval", 1000);
  const auto history_capacity =
      static_cast<std::size_t>(args.get_u64("history-capacity", 512));
  if (history_capacity < 2) {
    std::fprintf(stderr, "--history-capacity must be >= 2\n");
    return 2;
  }
  serve::Watchdog watchdog(service);
  obs::TimeSeriesConfig history_config;
  history_config.interval_ms = history_interval_ms;
  history_config.raw_capacity = history_capacity;
  history_config.agg_capacity = history_capacity;
  obs::TimeSeriesStore history(service.registry(), history_config);
  std::vector<obs::AlertRule> alert_rules = watchdog.default_rules();
  const std::string rules_path = args.get("alert-rules", "");
  if (!rules_path.empty()) {
    std::ifstream rules_file(rules_path, std::ios::binary);
    if (!rules_file.good()) {
      std::fprintf(stderr, "cannot read %s\n", rules_path.c_str());
      return 1;
    }
    std::string rules_text{std::istreambuf_iterator<char>(rules_file),
                           std::istreambuf_iterator<char>()};
    auto parsed = obs::parse_alert_rules(rules_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.error().to_string().c_str());
      return 2;
    }
    alert_rules = std::move(parsed).value();
  }
  obs::AlertEngine alerts(history, service.registry(),
                          std::move(alert_rules));
  history.set_pre_sample([&service, &watchdog](std::uint64_t now_ns) {
    service.refresh_gauges();
    watchdog.refresh(now_ns);
  });
  history.set_post_sample(
      [&alerts](std::uint64_t now_ns) { alerts.evaluate(now_ns); });

  serve::IntrospectionOptions introspection;
  introspection.history = &history;
  introspection.alerts = &alerts;
  introspection.watchdog = &watchdog;

  // --listen: the live scrape plane. Started after tenant registration
  // (the handlers walk the immutable tenant tables) and before
  // service.start(), so /readyz observably flips 503 -> 200.
  std::unique_ptr<obs::HttpServer> http = make_listener(args);
  if (http != nullptr) {
    serve::attach_introspection(*http, service, introspection);
    if (!start_listener(*http)) return 1;
  }

  service.start();
  if (history_interval_ms > 0) history.start();

  // The ingestion plane: stdin, raw-TCP JSONL (--ingest-port), and HTTP
  // POST /ingest (--ingest-http) all reduce to one shared IngestRouter,
  // so parsing, rejection accounting, and the tenant control verbs
  // behave identically no matter how an event arrives.
  serve::IngestConfig ingest_config;
  ingest_config.model = snapshot;
  ingest_config.initial_state = std::vector<std::uint8_t>(catalog.size(), 0);
  if (!tenants.empty()) ingest_config.default_tenant = "home-0";
  serve::IngestRouter router(service, catalog, std::move(ingest_config));

  std::unique_ptr<net::LineProtocolServer> line_server;
  if (ingest_tcp) {
    net::LineServerConfig line_config;
    line_config.socket.port =
        static_cast<std::uint16_t>(args.get_u64("ingest-port", 0));
    line_server = std::make_unique<net::LineProtocolServer>(
        line_config, [&router](std::string_view line) {
          return serve::IngestRouter::response_line(
              router.handle_line(line));
        });
    const auto port = line_server->start();
    if (!port.ok()) {
      std::fprintf(stderr, "cannot start ingest listener: %s\n",
                   port.error().to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "ingest listening on tcp://127.0.0.1:%u\n",
                 port.value());
  }
  std::unique_ptr<obs::HttpServer> ingest_http_server;
  if (ingest_http) {
    obs::HttpServerConfig http_config;
    http_config.port =
        static_cast<std::uint16_t>(args.get_u64("ingest-http", 0));
    http_config.registry = &service.registry();
    ingest_http_server = std::make_unique<obs::HttpServer>(http_config);
    serve::attach_ingest(*ingest_http_server, router);
    serve::attach_introspection(*ingest_http_server, service, introspection);
    const auto port = ingest_http_server->start();
    if (!port.ok()) {
      std::fprintf(stderr, "cannot start ingest-http listener: %s\n",
                   port.error().to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "ingest-http listening on http://127.0.0.1:%u\n",
                 port.value());
  }

  if (from_stdin) {
    // One JSON object per line:
    //   {"tenant": "home-0", "device": "pe_kitchen", "value": 1,
    //    "timestamp": 12.5}
    // Values are taken as already-binary (a deployment would persist the
    // training-time DiscretizationModel and discretize here). Lines
    // without a tenant route to the default tenant; rejections land in
    // serve_ingest_rejected_total{reason} like every other transport.
    std::string line;
    std::size_t line_number = 0, skipped = 0;
    while (std::getline(std::cin, line)) {
      ++line_number;
      const auto result = router.handle_line(line);
      switch (result.outcome) {
        case serve::IngestRouter::Outcome::kBlank:
        case serve::IngestRouter::Outcome::kAccepted:
        case serve::IngestRouter::Outcome::kControlOk:
          break;
        default:
          std::fprintf(stderr, "line %zu skipped: %s\n", line_number,
                       result.reason);
          ++skipped;
      }
    }
    if (skipped > 0) {
      std::fprintf(stderr, "-- %zu rejected lines skipped\n", skipped);
    }
  } else if (from_trace) {
    const auto log = load_trace(args);
    if (!log) return 1;
    preprocess::Preprocessor preprocessor;
    const preprocess::DiscretizationModel discretization =
        preprocess::DiscretizationModel::fit(*log);
    const auto events =
        preprocessor.discretize_runtime(*log, discretization, 0.0);
    serve::ReplayOptions replay;
    replay.speedup = args.get_double("speedup", 0.0);
    const serve::ReplayStats replayed =
        serve::replay_trace(service, tenants, events, replay);
    if (replayed.rejected > 0) {
      std::fprintf(stderr, "-- %zu submissions rejected by backpressure\n",
                   replayed.rejected);
    }
  } else {
    // Network-only: the sockets are the sole event source. Idle until
    // SIGINT/SIGTERM, then fall through to the graceful drain.
    std::signal(SIGINT, on_serve_signal);
    std::signal(SIGTERM, on_serve_signal);
    while (g_serve_interrupted == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::fprintf(stderr, "-- signal received, draining\n");
  }

  // Stop the ingestion listeners before draining the service: every
  // line already received is routed, then the queues flush. The history
  // sampler stops first — its hooks read shard progress and queue
  // gauges, which mean nothing mid-drain.
  history.stop();
  if (line_server != nullptr) line_server->stop();
  if (ingest_http_server != nullptr) ingest_http_server->stop();
  service.shutdown();
  if (metrics_thread.joinable()) {
    metrics_stop.store(true, std::memory_order_relaxed);
    metrics_thread.join();
  }
  if (metrics_interval > 0) emit_metrics();  // final snapshot, post-drain
  std::printf("%s\n", service.stats_json().c_str());

  const std::string prom_out = args.get("prom-out", "");
  if (!prom_out.empty() &&
      !write_text_file(prom_out, service.registry().to_prometheus())) {
    return 1;
  }
  if (!trace_out.empty() &&
      !write_text_file(trace_out,
                       obs::Tracer::global().export_chrome_json())) {
    return 1;
  }
  if (http != nullptr) http->stop();
  return 0;
}

int cmd_inspect(const Args& args) {
  if (!args.require("model")) return 2;
  auto profile = profile_by_name(args.get("profile", "contextact"));
  if (!profile) return 2;
  telemetry::DeviceCatalog catalog;
  for (const telemetry::DeviceInfo& info : profile->devices) {
    if (!catalog.add(info).ok()) return 1;
  }
  auto graph = graph::InteractionGraph::load(args.get("model", ""));
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot load model: %s\n",
                 graph.error().to_string().c_str());
    return 1;
  }
  if (graph.value().device_count() != catalog.size()) {
    std::fprintf(stderr, "model/catalog device-count mismatch\n");
    return 1;
  }

  const graph::GraphSummary summary = graph::summarize(graph.value());
  std::printf("DIG: %zu devices, tau=%zu, %zu lagged edges, %zu "
              "device-level interactions (%zu self)\n",
              summary.device_count, graph.value().max_lag(),
              summary.edge_count, summary.interaction_count,
              summary.self_loop_count);
  std::printf("in-degree: max %zu, mean %.2f; %zu orphan devices; %zu CPT "
              "assignments\n",
              summary.max_in_degree, summary.mean_in_degree,
              summary.orphan_count, summary.cpt_assignment_count);
  for (telemetry::DeviceId child = 0; child < catalog.size(); ++child) {
    const auto& causes = graph.value().causes(child);
    if (causes.empty()) continue;
    std::printf("  %s <-", catalog.info(child).name.c_str());
    for (const graph::LaggedNode& cause : causes) {
      std::printf(" %s(t-%u)", catalog.info(cause.device).name.c_str(),
                  cause.lag);
    }
    std::printf("\n");
  }
  if (args.options.contains("dot")) {
    std::ofstream out(args.options.at("dot"));
    out << graph.value().to_dot(catalog);
    std::printf("DOT graph written to %s\n",
                args.options.at("dot").c_str());
  }
  return 0;
}

int cmd_eval(const Args& args) {
  auto profile = profile_by_name(args.get("profile", "contextact"));
  if (!profile) return 2;
  profile->days = args.get_double("days", 14.0);

  core::ExperimentConfig config;
  config.seed = args.get_u64("seed", 2023);
  std::printf("training: %s profile, %.0f days, seed %llu ...\n",
              args.get("profile", "contextact"), profile->days,
              static_cast<unsigned long long>(config.seed));
  const core::Experiment ex =
      core::build_experiment(std::move(*profile), config);
  std::printf("model: tau=%zu, %zu lagged edges, threshold=%.4f\n",
              ex.model.lag, ex.model.graph.edge_count(),
              ex.model.score_threshold);

  const double test_days = args.get_double("test-days", 10.0);
  const preprocess::StateSeries test =
      core::make_fresh_test_series(ex, test_days, config.seed ^ 0xABCDEF);
  inject::AnomalyInjector injector(ex.catalog(), ex.profile,
                                   ex.sim.ground_truth);

  const auto chains = args.get_u64("chains", 200);
  const auto k_max = static_cast<std::size_t>(args.get_u64("kmax", 3));
  struct CaseRow {
    inject::CollectiveCase anomaly_case;
    const char* name;
  };
  const CaseRow rows[] = {
      {inject::CollectiveCase::kBurglarWandering, "burglar-wandering"},
      {inject::CollectiveCase::kActuatorManipulation,
       "actuator-manipulation"},
      {inject::CollectiveCase::kChainedAutomation, "chained-automation"},
  };
  std::printf("\n%-22s %9s %9s %8s %8s %8s\n", "collective case",
              "detected", "tracked", "alarms", "hit@1", "hit@3");
  for (const CaseRow& row : rows) {
    inject::CollectiveConfig inject_config;
    inject_config.anomaly_case = row.anomaly_case;
    inject_config.chain_count = static_cast<std::size_t>(chains);
    inject_config.k_max = k_max;
    inject_config.seed = config.seed;
    const inject::InjectionResult stream = injector.inject_collective(
        test.events(), test.snapshot_state(0), inject_config);
    const core::CollectiveEvaluation collective =
        core::evaluate_collective(ex.model, stream, k_max);
    const core::LocalizationEvaluation localization =
        core::evaluate_localization(ex.model, stream, k_max);
    std::printf("%-22s %8.1f%% %8.1f%% %8zu %7.1f%% %7.1f%%\n", row.name,
                collective.detected_fraction() * 100.0,
                collective.tracked_fraction() * 100.0,
                collective.alarms_raised,
                localization.hit1_fraction() * 100.0,
                localization.hit3_fraction() * 100.0);
  }
  std::printf("\nhit@k: fraction of chain-overlapping alarms whose ranked "
              "root-cause list\nplaces the chain's true root (first injected "
              "device) at rank 1 / in the top 3.\n");
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: causaliot <command> [--option value ...]\n"
      "  (any command) [--simd scalar|avx2|avx512|neon — pin the CI "
      "counting kernel backend; default: runtime capability probe, or "
      "CAUSALIOT_SIMD env. All backends are bit-identical.]\n"
      "  simulate --out trace.csv [--profile contextact|casas] [--days N]"
      " [--seed N] [--format csv|jsonl]\n"
      "  train    --trace trace.csv --out model.dig [--profile P] [--tau N]"
      " [--alpha A] [--q Q] [--laplace L] [--threads N (0 = all cores)]"
      " [--ci-batch 0|1 (default 1: batched multi-subset CI counting)]"
      " [--trace-out trace.json] [--prom-out metrics.prom] [--verbose 1]"
      " [--listen PORT (0 = ephemeral; serves /metrics /healthz /readyz"
      " /statusz /tracez on loopback)]\n"
      "  monitor  --model model.dig --trace live.csv [--profile P]"
      " [--kmax K] [--threshold C] [--root-cause-depth D (causal walk"
      " depth for the printed attribution; default 3)]\n"
      "  serve    --model model.dig (--trace live.csv | --stdin 1 |"
      " --ingest-port PORT | --ingest-http PORT; network-only runs until"
      " SIGINT/SIGTERM)\n"
      "           [--ingest-port PORT (raw-TCP JSONL lines + control verbs;"
      " 0 = ephemeral, announced on stderr)]\n"
      "           [--ingest-http PORT (POST /ingest JSONL batches,"
      " POST/DELETE /tenants, plus the introspection routes)]\n"
      " [--profile P] [--tenants N] [--shards N] [--queue N]"
      " [--policy block|drop|reject] [--speedup X (0 = max)] [--kmax K]"
      " [--threshold C] [--dedup 0|1] [--metrics-interval SECS]"
      " [--metrics-out snapshots.jsonl] [--prom-out metrics.prom]"
      " [--trace-out trace.json] [--trace-sample N (span every Nth event)]"
      " [--listen PORT (0 = ephemeral; serves /metrics /healthz /readyz"
      " /statusz /tracez /alertz /rootcausez /metrics/history on"
      " loopback)]\n"
      "           [--alert-rules FILE (JSONL alert rules; default: the"
      " built-in watchdog ruleset)]\n"
      "           [--history-interval MS (metric retention sampler tick;"
      " default 1000, 0 = off)] [--history-capacity N (ring points per"
      " series; default 512)]\n"
      "           [--debug-event-delay-us N (slow workers for ops drills;"
      " default 0)]\n"
      "           [--root-cause-depth D (alarm attribution walk depth;"
      " default 3)] [--root-cause-history K (recent attributions kept per"
      " tenant for /rootcausez; default 8)]\n"
      "  eval     [--profile P] [--days N (train-sim days; default 14)]"
      " [--test-days N (held-out days; default 10)] [--chains N (injected"
      " chains per case; default 200)] [--kmax K] [--seed N]\n"
      "           trains a model, injects the three collective cases, and"
      " reports detection plus root-cause hit@1/hit@3\n"
      "  inspect  --model model.dig [--profile P] [--dot out.dot]\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  const auto args = parse_args(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  if (!apply_simd_flag(*args)) return 2;
  if (args->command == "simulate") return cmd_simulate(*args);
  if (args->command == "train") return cmd_train(*args);
  if (args->command == "monitor") return cmd_monitor(*args);
  if (args->command == "serve") return cmd_serve(*args);
  if (args->command == "inspect") return cmd_inspect(*args);
  if (args->command == "eval") return cmd_eval(*args);
  usage();
  return 2;
}
