// Fleet-scale model residency benchmarks (google-benchmark): what one
// deployment pays in model bytes to host N tenants instantiated from a
// single published template (interned skeleton + COW deltas), and the
// events/sec such a fleet serves on the hot path.
//
// The headline counters the perf trajectory tracks:
//   BM_FleetResidency  resident_bytes, dedup_ratio (the service's
//                      private_equivalent_bytes — one full model per
//                      tenant — over resident_bytes; must be >= 5x at
//                      10k tenants), accounting_exact (service byte
//                      accounting equals the closed-form skeleton + base
//                      + N*delta sum)
//   BM_FleetThroughput events/s over a 64-tenant template fleet
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "causaliot/core/pipeline.hpp"
#include "causaliot/graph/analysis.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/serve/template_registry.hpp"
#include "causaliot/util/rng.hpp"

namespace {

using namespace causaliot;

// Same synthetic home as bench_serving_throughput: a chain of
// interactions plus noise so the mined DIG has real CPTs to share.
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

struct FleetFixture {
  core::TrainedModel model;
  std::vector<preprocess::BinaryEvent> events;
  std::vector<std::uint8_t> initial_state;
};

const FleetFixture& fixture() {
  static const FleetFixture data = [] {
    FleetFixture out;
    const preprocess::StateSeries series = synthetic_series(22, 20000, 42);
    core::PipelineConfig config;
    config.laplace_alpha = 0.1;
    out.model = core::Pipeline(config).train_on_series(series, 2);
    out.events = series.events();
    out.initial_state = series.snapshot_state(0);
    return out;
  }();
  return data;
}

// Builds a service hosting `fleet` tenants off one published template.
// Registry must outlive the service.
serve::TenantHandle add_fleet(serve::DetectionService& service,
                              std::size_t fleet) {
  const FleetFixture& data = fixture();
  serve::TenantHandle first = serve::DetectionService::kInvalidTenant;
  for (std::size_t i = 0; i < fleet; ++i) {
    const serve::TenantHandle handle = service.add_tenant(
        "home-" + std::to_string(i), "fleet", data.initial_state);
    if (i == 0) first = handle;
  }
  return first;
}

// Residency: bytes to hold the fleet's models, measured by the
// service's component-refcounted accounting and cross-checked against
// the closed-form per-graph memory_footprint() sum. The timed region is
// fleet instantiation (template find + snapshot + accounting), so the
// per-tenant setup cost is visible too.
void BM_FleetResidency(benchmark::State& bench_state) {
  const auto fleet = static_cast<std::size_t>(bench_state.range(0));
  const FleetFixture& data = fixture();

  serve::DetectionService::ModelStats stats;
  bool accounting_exact = true;
  for (auto _ : bench_state) {
    serve::TemplateRegistry registry;
    auto tpl = registry.publish("fleet", data.model.graph,
                                data.model.score_threshold,
                                data.model.laplace_alpha, /*version=*/1);
    serve::ServiceConfig config;
    config.shard_count = 4;
    config.templates = &registry;
    serve::DetectionService service(config, nullptr);
    add_fleet(service, fleet);
    stats = service.model_stats();
    benchmark::DoNotOptimize(stats.resident_bytes);

    // Conservation identity: the service's running byte totals must
    // equal one instantiated graph's footprint split scaled to the fleet.
    const graph::MemoryFootprint foot =
        graph::memory_footprint(serve::instantiate(*tpl)->graph);
    accounting_exact =
        accounting_exact &&
        stats.resident_bytes == foot.skeleton_bytes + foot.base_cpt_bytes +
                                    fleet * foot.delta_cpt_bytes &&
        stats.private_equivalent_bytes == fleet * foot.total_bytes();
  }
  bench_state.counters["fleet"] = static_cast<double>(fleet);
  bench_state.counters["resident_bytes"] =
      static_cast<double>(stats.resident_bytes);
  bench_state.counters["private_equivalent_bytes"] =
      static_cast<double>(stats.private_equivalent_bytes);
  bench_state.counters["dedup_ratio"] = stats.dedup_ratio;
  bench_state.counters["bytes_per_tenant"] =
      fleet == 0 ? 0.0
                 : static_cast<double>(stats.resident_bytes) /
                       static_cast<double>(fleet);
  bench_state.counters["accounting_exact"] = accounting_exact ? 1.0 : 0.0;
}
BENCHMARK(BM_FleetResidency)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Throughput: the COW delta lookup is one pointer test per cpt() call.
// Round-robin the event stream over a modest fleet so every shard
// touches shared state.
void BM_FleetThroughput(benchmark::State& bench_state) {
  const auto fleet = static_cast<std::size_t>(bench_state.range(0));
  const FleetFixture& data = fixture();

  std::uint64_t alarms = 0;
  for (auto _ : bench_state) {
    serve::TemplateRegistry registry;
    auto tpl = registry.publish("fleet", data.model.graph,
                                data.model.score_threshold,
                                data.model.laplace_alpha, /*version=*/1);
    benchmark::DoNotOptimize(tpl);
    serve::ServiceConfig config;
    config.shard_count = 4;
    config.queue_capacity = 8192;
    config.templates = &registry;
    serve::DetectionService service(config, nullptr);
    std::vector<serve::TenantHandle> handles;
    handles.reserve(fleet);
    for (std::size_t i = 0; i < fleet; ++i) {
      handles.push_back(service.add_tenant("home-" + std::to_string(i),
                                           "fleet", data.initial_state));
    }
    service.start();
    std::size_t next = 0;
    for (const preprocess::BinaryEvent& event : data.events) {
      service.submit(handles[next++ % fleet], event);
    }
    service.shutdown();
    const serve::ServiceStats stats = service.stats();
    benchmark::DoNotOptimize(stats.events_processed);
    alarms = stats.alarms_total;
  }
  bench_state.SetItemsProcessed(static_cast<std::int64_t>(
      bench_state.iterations() * data.events.size()));
  bench_state.counters["fleet"] = static_cast<double>(fleet);
  bench_state.counters["alarms"] = static_cast<double>(alarms);
}
BENCHMARK(BM_FleetThroughput)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
