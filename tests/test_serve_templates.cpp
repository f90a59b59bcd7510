// Fleet-scale model sharing: shared DIG skeletons + copy-on-write CPT
// deltas must be a pure memory optimization. The bars:
//
//   * alarm streams (scores, root-cause rankings, everything) of
//     template-instantiated tenants are bit-identical to an oracle
//     served straight from the mined graphs (never passed through the
//     registry), across every mined model variant (plain / PC-stable
//     skeleton x G-square / CMH) and across a mid-stream hot model swap;
//   * update_cpts on an instantiated graph personalizes only that
//     graph's copy-on-write delta — concurrently updated siblings and
//     the shared base stay untouched, and the effective tables match the
//     same update applied to the mined graph bit for bit; set_causes
//     detaches only that graph's structure;
//   * the TemplateRegistry interns skeletons by content (two templates
//     of one inventory share one Skeleton object) and eviction actually
//     frees: the weak intern pool drains once the last reference drops;
//   * the service's dedup accounting is exact — resident bytes equal
//     the component sum, private-equivalent bytes equal the per-tenant
//     sum, and both return to zero under churn;
//   * /statusz tenant pagination windows the fleet without losing the
//     total.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "causaliot/core/experiment.hpp"
#include "causaliot/graph/analysis.hpp"
#include "causaliot/mining/temporal_pc.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/serve/template_registry.hpp"
#include "causaliot/util/thread_pool.hpp"

namespace causaliot::serve {
namespace {

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
      // Same Cpt::probability code path over the same tables: the
      // doubles must match bitwise, not approximately.
      EXPECT_EQ(got[i].report.entries[e].score,
                want[i].report.entries[e].score);
    }
    EXPECT_EQ(got[i].model_version, want[i].model_version) << "alarm " << i;
    const auto& got_ranked = got[i].root_causes.ranked;
    const auto& want_ranked = want[i].root_causes.ranked;
    ASSERT_EQ(got_ranked.size(), want_ranked.size()) << "alarm " << i;
    for (std::size_t r = 0; r < want_ranked.size(); ++r) {
      EXPECT_EQ(got_ranked[r].device, want_ranked[r].device);
      EXPECT_EQ(got_ranked[r].score, want_ranked[r].score);  // bitwise
      EXPECT_EQ(got_ranked[r].flagged, want_ranked[r].flagged);
      EXPECT_EQ(got_ranked[r].path, want_ranked[r].path);
    }
  }
}

std::string saved_text(const graph::InteractionGraph& graph,
                       const std::string& path) {
  EXPECT_TRUE(graph.save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void wait_processed(const DetectionService& service, std::uint64_t target) {
  while (service.stats().events_processed < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A tiny hand-built model for the registry/accounting/paging tests (no
/// simulation needed).
graph::InteractionGraph small_graph(std::uint64_t salt = 0) {
  graph::InteractionGraph graph(4, 2);
  graph.set_causes(1, {{0, 1}, {1, 1}});
  graph.set_causes(2, {{1, 2}});
  graph.cpt(1).observe(graph.cpt(1).pack({0, 0}), 1);
  graph.cpt(1).observe(graph.cpt(1).pack({1, 0}), 0);
  graph.cpt(2).observe(graph.cpt(2).pack({1}), salt % 2 == 0 ? 1 : 0);
  return graph;
}

// ---------------------------------------------------------------------
// Alarm equivalence: template instances vs the mined graphs served
// directly, per mined-model variant, with a mid-stream hot swap to a
// personalized (update_cpts) v2 model.
// ---------------------------------------------------------------------

class TemplateAlarmEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, mining::CiTest>> {};

TEST_P(TemplateAlarmEquivalence, InstancesMatchMinedGraphAcrossHotSwap) {
  const auto [stable, ci_test] = GetParam();
  sim::HomeProfile profile = sim::contextact_profile();
  profile.days = 6.0;
  core::ExperimentConfig config;
  config.seed = 77;  // same home as test_serve: known to alarm
  config.pipeline.pc_stable = stable;
  config.pipeline.use_cmh_test = ci_test == mining::CiTest::kCmh;
  const core::Experiment experiment =
      core::build_experiment(std::move(profile), config);
  const core::TrainedModel& model = experiment.model;
  const auto& events = experiment.test_runtime_events;
  const std::vector<std::uint8_t> initial_state =
      experiment.test_series.snapshot_state(0);

  // v2: drift-adapted tables over the test series (skeleton unchanged) —
  // the hot-swap payload, published as its own template.
  graph::InteractionGraph v2_graph = model.graph;
  mining::MinerConfig miner_config;
  miner_config.max_lag = 2;
  mining::InteractionMiner(miner_config)
      .update_cpts(experiment.test_series, v2_graph, /*forget_factor=*/0.5);

  TemplateRegistry registry;
  const auto v1 = registry.publish("v1", model.graph, model.score_threshold,
                                   model.laplace_alpha, /*version=*/1);
  const auto v2 = registry.publish("v2", v2_graph, model.score_threshold,
                                   model.laplace_alpha, /*version=*/2);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);
  // Same inventory, different tables: one interned skeleton.
  EXPECT_EQ(v1->skeleton.get(), v2->skeleton.get());

  // The oracle side: each tenant gets its own snapshot of the mined
  // graph, exactly as a caller without a registry would serve it.
  const auto direct = [&](const graph::InteractionGraph& graph,
                          std::uint64_t version) {
    return make_snapshot(graph, model.score_threshold, model.laplace_alpha,
                         version);
  };
  const auto run = [&](bool templated) {
    AlarmLog log;
    ServiceConfig service_config;
    service_config.shard_count = 2;
    service_config.queue_capacity = 256;
    service_config.session.k_max = 3;
    service_config.templates = &registry;
    DetectionService service(service_config, log.callback());
    std::vector<TenantHandle> handles;
    for (const char* name : {"t0", "t1"}) {
      handles.push_back(
          templated ? service.add_tenant(name, "v1", initial_state)
                    : service.add_tenant(name, direct(model.graph, 1),
                                         initial_state));
    }
    EXPECT_NE(handles[0], DetectionService::kInvalidTenant);
    EXPECT_NE(handles[1], DetectionService::kInvalidTenant);
    service.start();

    // First half under v1, quiesce, hot-swap t0 to v2, rest of the
    // stream. The quiescence point makes the adoption boundary — and so
    // the alarm stream — deterministic and comparable across runs.
    const std::size_t half = events.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      for (const TenantHandle handle : handles) {
        EXPECT_EQ(service.submit(handle, events[i]),
                  DetectionService::SubmitResult::kAccepted);
      }
    }
    wait_processed(service, 2 * half);
    // Both tenants still serve v1 here — the point of maximum sharing.
    const DetectionService::ModelStats mid_stats = service.model_stats();
    const auto tpl = registry.find("v2");
    EXPECT_NE(tpl, nullptr);
    service.swap_model(handles[0],
                       templated ? instantiate(*tpl) : direct(v2_graph, 2));
    for (std::size_t i = half; i < events.size(); ++i) {
      for (const TenantHandle handle : handles) {
        EXPECT_EQ(service.submit(handle, events[i]),
                  DetectionService::SubmitResult::kAccepted);
      }
    }
    // After the swap the tenants sit on different templates, so only
    // the interned skeleton is still shared.
    const DetectionService::ModelStats end_stats = service.model_stats();
    service.shutdown();
    return std::make_tuple(std::move(log.by_tenant), mid_stats, end_stats);
  };

  auto [shared_alarms, shared_mid, shared_end] = run(/*templated=*/true);
  auto [direct_alarms, direct_mid, direct_end] = run(/*templated=*/false);

  ASSERT_FALSE(direct_alarms["t0"].empty());  // the bar is meaningful
  expect_bit_identical(shared_alarms["t0"], direct_alarms["t0"]);
  expect_bit_identical(shared_alarms["t1"], direct_alarms["t1"]);

  // Sharing showed up in the accounting: two tenants of one template
  // approach 2x dedup; after the swap splits them across templates only
  // the skeleton dedups, but resident stays strictly below equivalent.
  // Copies of a mined graph share its structure but each carries the
  // tables in its own delta, so the oracle side stays near 1x.
  EXPECT_GT(shared_mid.dedup_ratio, 1.5);
  EXPECT_LT(shared_end.resident_bytes, shared_end.private_equivalent_bytes);
  EXPECT_LT(direct_mid.dedup_ratio, 1.5);
  EXPECT_LE(direct_end.resident_bytes, direct_end.private_equivalent_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, TemplateAlarmEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(mining::CiTest::kGSquare,
                                         mining::CiTest::kCmh)),
    [](const ::testing::TestParamInfo<std::tuple<bool, mining::CiTest>>&
           info) {
      return std::string(std::get<0>(info.param) ? "Stable" : "Plain") +
             (std::get<1>(info.param) == mining::CiTest::kCmh ? "Cmh"
                                                              : "GSquare");
    });

// ---------------------------------------------------------------------
// Copy-on-write isolation under concurrent update_cpts.
// ---------------------------------------------------------------------

TEST(TemplateCow, ConcurrentUpdateCptsIsolatesSiblingsAndBase) {
  sim::HomeProfile profile = sim::contextact_profile();
  profile.days = 4.0;
  core::ExperimentConfig config;
  config.seed = 77;
  const core::Experiment experiment =
      core::build_experiment(std::move(profile), config);
  const core::TrainedModel& model = experiment.model;

  TemplateRegistry registry;
  const auto tpl = registry.publish("t", model.graph, model.score_threshold,
                                    model.laplace_alpha, 1);
  ASSERT_NE(tpl, nullptr);
  const std::string base_text =
      saved_text(model.graph, ::testing::TempDir() + "tpl_base.dig");

  // Two tenants personalize concurrently with different forget factors;
  // each update_cpts also parallelizes internally, so copy-on-write
  // faults race across children within each graph.
  graph::InteractionGraph tenant_a =
      graph::InteractionGraph::from_template(tpl->skeleton, tpl->base_cpts);
  graph::InteractionGraph tenant_b =
      graph::InteractionGraph::from_template(tpl->skeleton, tpl->base_cpts);
  mining::MinerConfig miner_config;
  miner_config.max_lag = 2;
  const mining::InteractionMiner miner(miner_config);
  std::thread update_a([&] {
    util::ThreadPool pool(4);
    miner.update_cpts(experiment.test_series, tenant_a, 0.5, &pool);
  });
  std::thread update_b([&] {
    util::ThreadPool pool(4);
    miner.update_cpts(experiment.test_series, tenant_b, 0.9, &pool);
  });
  update_a.join();
  update_b.join();

  // Every device was personalized (update_cpts touches each child).
  EXPECT_EQ(tenant_a.delta_count(), tenant_a.device_count());
  EXPECT_EQ(tenant_b.delta_count(), tenant_b.device_count());

  // Effective tables match a serial update of the mined graph bit for
  // bit.
  graph::InteractionGraph direct_a = model.graph;
  miner.update_cpts(experiment.test_series, direct_a, 0.5);
  graph::InteractionGraph direct_b = model.graph;
  miner.update_cpts(experiment.test_series, direct_b, 0.9);
  EXPECT_EQ(saved_text(tenant_a, ::testing::TempDir() + "tenant_a.dig"),
            saved_text(direct_a, ::testing::TempDir() + "direct_a.dig"));
  EXPECT_EQ(saved_text(tenant_b, ::testing::TempDir() + "tenant_b.dig"),
            saved_text(direct_b, ::testing::TempDir() + "direct_b.dig"));
  // Different forget factors diverged — the deltas are really separate.
  EXPECT_NE(saved_text(tenant_a, ::testing::TempDir() + "tenant_a2.dig"),
            saved_text(tenant_b, ::testing::TempDir() + "tenant_b2.dig"));

  // An untouched sibling still reads the pristine shared base.
  const graph::InteractionGraph untouched =
      graph::InteractionGraph::from_template(tpl->skeleton, tpl->base_cpts);
  EXPECT_EQ(untouched.delta_count(), 0u);
  EXPECT_EQ(saved_text(untouched, ::testing::TempDir() + "untouched.dig"),
            base_text);
}

TEST(TemplateCow, SetCausesDetachesOnlyThatGraphsStructure) {
  TemplateRegistry registry;
  const auto tpl = registry.publish("t", small_graph(), 0.9, 0.1, 1);
  ASSERT_NE(tpl, nullptr);
  const std::shared_ptr<const ModelSnapshot> sibling = instantiate(*tpl);
  const std::string sibling_text =
      saved_text(sibling->graph, ::testing::TempDir() + "sibling.dig");

  graph::InteractionGraph detached =
      graph::InteractionGraph::from_template(tpl->skeleton, tpl->base_cpts);
  const graph::Skeleton* template_skeleton = detached.skeleton().get();
  const graph::CptPayload* template_base = detached.base().get();
  detached.set_causes(3, {{0, 2}, {2, 1}});
  detached.cpt(3).observe(detached.cpt(3).pack({1, 0}), 1);

  // The template's structure and base are the same objects, unedited;
  // the detached graph got its own skeleton but still reads the base.
  EXPECT_EQ(tpl->skeleton.get(), template_skeleton);
  EXPECT_EQ(tpl->base_cpts.get(), template_base);
  EXPECT_TRUE(tpl->skeleton->causes(3).empty());
  EXPECT_TRUE((*tpl->base_cpts)[3].causes().empty());
  EXPECT_NE(detached.skeleton().get(), template_skeleton);
  EXPECT_EQ(detached.base().get(), template_base);
  EXPECT_EQ(detached.delta_count(), 1u);
  EXPECT_EQ(sibling->graph.skeleton().get(), template_skeleton);
  EXPECT_EQ(saved_text(sibling->graph,
                       ::testing::TempDir() + "sibling_after.dig"),
            sibling_text);

  // The detached graph saves its new causes (canonical order) and table,
  // and the untouched children still read the template's tables.
  const std::string path = ::testing::TempDir() + "detached.dig";
  const std::string detached_text = saved_text(detached, path);
  EXPECT_NE(detached_text.find("child 3 2\n  cause 2 1\n  cause 0 2\n"
                               "  entries 1\n    1 0 1\n"),
            std::string::npos);
  const auto loaded = graph::InteractionGraph::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().causes(3),
            (std::vector<graph::LaggedNode>{{2, 1}, {0, 2}}));
  EXPECT_EQ(loaded.value().causes(1), tpl->skeleton->causes(1));
  EXPECT_EQ(loaded.value().cpt(1).counts(), (*tpl->base_cpts)[1].counts());
}

// ---------------------------------------------------------------------
// Registry interning and eviction.
// ---------------------------------------------------------------------

TEST(TemplateRegistryTest, InternsByContentAndFreesOnEviction) {
  TemplateRegistry registry;
  auto a = registry.publish("a", small_graph(0), 0.9, 0.1, 1);
  auto b = registry.publish("b", small_graph(2), 0.8, 0.1, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Same inventory (counts differ, structure identical): one skeleton.
  EXPECT_EQ(a->skeleton.get(), b->skeleton.get());
  EXPECT_EQ(registry.template_count(), 2u);
  EXPECT_EQ(registry.skeleton_count(), 1u);

  // Name collisions are refused, not overwritten.
  EXPECT_EQ(registry.publish("a", small_graph(0), 0.5, 0.1, 9), nullptr);
  EXPECT_EQ(registry.template_count(), 2u);

  // A structurally different inventory interns separately.
  graph::InteractionGraph other(4, 2);
  other.set_causes(3, {{0, 1}});
  const auto c = registry.publish("c", other, 0.9, 0.1, 1);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c->skeleton.get(), a->skeleton.get());
  EXPECT_EQ(registry.skeleton_count(), 2u);

  // A live tenant keeps serving across eviction of its template...
  std::shared_ptr<const ModelSnapshot> survivor = instantiate(*a);
  EXPECT_TRUE(registry.evict("a"));
  EXPECT_FALSE(registry.evict("a"));  // already gone
  EXPECT_EQ(registry.find("a"), nullptr);
  EXPECT_EQ(registry.template_count(), 2u);  // b and c remain
  EXPECT_EQ(survivor->graph.skeleton().get(), b->skeleton.get());

  // ...and the skeleton frees only when the last reference drops: evict
  // b too, drop the published refs and the tenant, and the weak intern
  // pool drains.
  EXPECT_TRUE(registry.evict("b"));
  // (a and b are still pinned by this test's locals at this point.)
  EXPECT_EQ(registry.skeleton_count(), 2u);
  survivor.reset();
  a.reset();
  b.reset();
  EXPECT_EQ(registry.skeleton_count(), 1u);  // only c's survives
}

// ---------------------------------------------------------------------
// Dedup accounting: exact component math, conservation under churn.
// ---------------------------------------------------------------------

TEST(TemplateAccounting, ResidentBytesAreExactAndConserveUnderChurn) {
  TemplateRegistry registry;
  const auto tpl = registry.publish("t", small_graph(), 0.9, 0.1, 1);
  ASSERT_NE(tpl, nullptr);

  ServiceConfig config;
  config.templates = &registry;
  DetectionService service(config, nullptr);
  constexpr std::size_t kFleet = 8;
  std::vector<TenantHandle> handles;
  for (std::size_t i = 0; i < kFleet; ++i) {
    handles.push_back(
        service.add_tenant("home-" + std::to_string(i), "t"));
    ASSERT_NE(handles.back(), DetectionService::kInvalidTenant);
  }

  // Expected bytes from one instance's footprint: the fleet pays
  // skeleton + base once and the (empty) delta per tenant.
  const graph::MemoryFootprint one =
      graph::memory_footprint(instantiate(*tpl)->graph);
  const DetectionService::ModelStats stats = service.model_stats();
  EXPECT_EQ(stats.templates, 1u);
  EXPECT_EQ(stats.resident_bytes, one.skeleton_bytes + one.base_cpt_bytes +
                                      kFleet * one.delta_cpt_bytes);
  EXPECT_EQ(stats.private_equivalent_bytes, kFleet * one.total_bytes());
  EXPECT_GT(stats.dedup_ratio, 4.0);  // 8 tenants, near-8x in practice

  // Unknown template and duplicate name are both refused.
  EXPECT_EQ(service.add_tenant("home-x", "missing"),
            DetectionService::kInvalidTenant);
  EXPECT_EQ(service.add_tenant("home-0", "t"),
            DetectionService::kInvalidTenant);

  // Churn re-bills exactly: removing half halves the equivalent bytes
  // and releases only those tenants' deltas; removing all zeroes both.
  for (std::size_t i = 0; i < kFleet / 2; ++i) {
    ASSERT_TRUE(service.remove_tenant(handles[i]));
  }
  const DetectionService::ModelStats half = service.model_stats();
  EXPECT_EQ(half.resident_bytes, one.skeleton_bytes + one.base_cpt_bytes +
                                     (kFleet / 2) * one.delta_cpt_bytes);
  EXPECT_EQ(half.private_equivalent_bytes, (kFleet / 2) * one.total_bytes());
  for (std::size_t i = kFleet / 2; i < kFleet; ++i) {
    ASSERT_TRUE(service.remove_tenant(handles[i]));
  }
  const DetectionService::ModelStats empty = service.model_stats();
  EXPECT_EQ(empty.resident_bytes, 0u);
  EXPECT_EQ(empty.private_equivalent_bytes, 0u);
  EXPECT_DOUBLE_EQ(empty.dedup_ratio, 1.0);
  service.shutdown();
}

TEST(TemplateAccounting, SwapRebillsDirectSnapshotsToTemplateInstances) {
  TemplateRegistry registry;
  const auto tpl = registry.publish("t", small_graph(), 0.9, 0.1, 1);
  ASSERT_NE(tpl, nullptr);

  ServiceConfig config;
  config.templates = &registry;
  DetectionService service(config, nullptr);
  // Two tenants served from separately built graphs: no component in
  // common, so each pays its full footprint.
  const std::vector<std::uint8_t> zeros(4, 0);
  const TenantHandle t0 =
      service.add_tenant("a", make_snapshot(small_graph(), 0.9, 0.1, 1), zeros);
  const TenantHandle t1 =
      service.add_tenant("b", make_snapshot(small_graph(), 0.9, 0.1, 1), zeros);
  ASSERT_NE(t0, DetectionService::kInvalidTenant);
  ASSERT_NE(t1, DetectionService::kInvalidTenant);

  const DetectionService::ModelStats before = service.model_stats();
  EXPECT_EQ(before.resident_bytes, before.private_equivalent_bytes);
  EXPECT_DOUBLE_EQ(before.dedup_ratio, 1.0);

  // Swapping both tenants to template instances re-bills them as shared
  // components: two instantiations, one skeleton + base.
  service.swap_model(t0, instantiate(*tpl));
  service.swap_model(t1, instantiate(*tpl));
  const graph::MemoryFootprint one =
      graph::memory_footprint(instantiate(*tpl)->graph);
  const DetectionService::ModelStats after = service.model_stats();
  EXPECT_EQ(after.resident_bytes, one.skeleton_bytes + one.base_cpt_bytes +
                                      2 * one.delta_cpt_bytes);
  EXPECT_EQ(after.private_equivalent_bytes, 2 * one.total_bytes());
  EXPECT_GT(after.dedup_ratio, 1.5);
  service.shutdown();
}

// ---------------------------------------------------------------------
// /statusz tenant pagination.
// ---------------------------------------------------------------------

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(StatusPagination, WindowsTenantsAndReportsTotal) {
  TemplateRegistry registry;
  ASSERT_NE(registry.publish("t", small_graph(), 0.9, 0.1, 1), nullptr);
  ServiceConfig config;
  config.templates = &registry;
  DetectionService service(config, nullptr);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_NE(service.add_tenant("home-" + std::to_string(i), "t"),
              DetectionService::kInvalidTenant);
  }

  // Default window covers a small fleet entirely.
  const std::string full = service.status_json();
  EXPECT_EQ(count_occurrences(full, "{\"name\": \"home-"), 5u);
  EXPECT_NE(full.find("\"tenant_window\": {\"offset\": 0, \"limit\": 100, "
                      "\"total\": 5}"),
            std::string::npos);
  EXPECT_NE(full.find("\"models\": {\"templates\": 1"), std::string::npos);

  // An interior window: exactly the requested slice, total unchanged.
  const std::string page = service.status_json(2, 2);
  EXPECT_EQ(count_occurrences(page, "{\"name\": \"home-"), 2u);
  EXPECT_NE(page.find("\"name\": \"home-2\""), std::string::npos);
  EXPECT_NE(page.find("\"name\": \"home-3\""), std::string::npos);
  EXPECT_NE(page.find("\"tenant_window\": {\"offset\": 2, \"limit\": 2, "
                      "\"total\": 5}"),
            std::string::npos);

  // Past the end: empty slice, total still reported.
  const std::string past = service.status_json(10, 5);
  EXPECT_EQ(count_occurrences(past, "{\"name\": \"home-"), 0u);
  EXPECT_NE(past.find("\"total\": 5"), std::string::npos);
  service.shutdown();
}

}  // namespace
}  // namespace causaliot::serve
