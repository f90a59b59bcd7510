#include "causaliot/serve/service.hpp"

#include <chrono>

#include "causaliot/graph/analysis.hpp"
#include "causaliot/obs/trace.hpp"
#include "causaliot/util/check.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::serve {

namespace {

std::uint64_t now_ns() { return obs::Tracer::now_ns(); }

}  // namespace

DetectionService::DetectionService(ServiceConfig config, AlarmCallback on_alarm)
    : config_(config),
      on_alarm_(std::move(on_alarm)),
      own_registry_(config.registry == nullptr
                        ? std::make_unique<obs::Registry>()
                        : nullptr),
      registry_(config.registry != nullptr ? config.registry
                                           : own_registry_.get()),
      metrics_(*registry_),
      health_(*registry_, config.health),
      blame_(*registry_, config.catalog, config.root_cause_history) {
  CAUSALIOT_CHECK_MSG(config_.shard_count >= 1, "shard_count must be >= 1");
  shards_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.queue_capacity,
                                              config_.overflow));
    const std::string shard_label = std::to_string(i);
    shards_.back()->processed = &registry_->counter(
        "serve_events_processed_total", {{"shard", shard_label}},
        "Events fully processed, by shard");
    shards_.back()->orphaned = &registry_->counter(
        "serve_events_orphaned_total", {{"shard", shard_label}},
        "Events dequeued after their tenant was removed, by shard");
    shards_.back()->queue_depth = &registry_->gauge(
        "serve_queue_depth", {{"shard", shard_label}},
        "Shard queue occupancy at snapshot time");
  }
  model_resident_gauge_ = &registry_->gauge(
      "serve_model_resident_bytes", {},
      "Estimated bytes of model state actually resident (each shared "
      "skeleton/base payload counted once)");
  model_equiv_gauge_ = &registry_->gauge(
      "serve_model_private_equivalent_bytes", {},
      "Estimated bytes the same fleet would cost with one private model "
      "copy per tenant");
  model_templates_gauge_ = &registry_->gauge(
      "serve_model_templates", {},
      "Model templates registered in the service's TemplateRegistry");
  model_dedup_gauge_ = &registry_->gauge(
      "serve_model_dedup_ratio_ppm", {},
      "private_equivalent_bytes / resident_bytes in parts per million "
      "(1000000 = no sharing)");
}

DetectionService::~DetectionService() { shutdown(); }

TenantHandle DetectionService::add_tenant(
    std::string name, std::shared_ptr<const ModelSnapshot> model,
    std::vector<std::uint8_t> initial_state) {
  std::lock_guard<std::mutex> lock(directory_mutex_);
  if (stopped_ || by_name_.count(name) != 0) return kInvalidTenant;
  const TenantHandle handle = tenant_limit_.load(std::memory_order_relaxed);
  const std::size_t shard_index = handle % shards_.size();
  const std::uint64_t version = model != nullptr ? model->version : 0;
  account_model_locked(handle, model);
  auto session = std::make_unique<TenantSession>(
      name, std::move(model), config_.session, std::move(initial_state));
  obs::Counter* alarms = &registry_->counter(
      "serve_tenant_alarms_total", {{"tenant", name}},
      "Alarms delivered, by tenant");
  health_.add_tenant(handle, name, version);
  // Publishing the entry (a release store) hands the built session to
  // whichever worker later dequeues an item for this handle.
  metas_.emplace(handle, name, shard_index, alarms, std::move(session));
  by_name_.emplace(std::move(name), handle);
  tenant_limit_.store(handle + 1, std::memory_order_relaxed);
  tenants_active_.fetch_add(1, std::memory_order_relaxed);
  metrics_.tenants_added->increment();
  return handle;
}

TenantHandle DetectionService::add_tenant(
    std::string name, std::string_view template_name,
    std::vector<std::uint8_t> initial_state) {
  if (config_.templates == nullptr) return kInvalidTenant;
  const std::shared_ptr<const ModelTemplate> tpl =
      config_.templates->find(template_name);
  if (tpl == nullptr) return kInvalidTenant;
  if (initial_state.empty()) {
    initial_state.assign(tpl->skeleton->device_count(), 0);
  }
  return add_tenant(std::move(name), instantiate(*tpl),
                    std::move(initial_state));
}

bool DetectionService::remove_tenant(TenantHandle tenant) {
  std::lock_guard<std::mutex> lock(directory_mutex_);
  if (stopped_) return false;
  TenantMeta* meta = metas_.get(tenant);
  if (meta == nullptr || !meta->alive.load(std::memory_order_relaxed)) {
    return false;
  }
  // Tombstone before queueing the control: from here no new event can
  // enter the FIFO behind the RemoveTenant, so the worker destroys the
  // session knowing only orphan-countable stragglers remain.
  meta->alive.store(false, std::memory_order_release);
  by_name_.erase(meta->name);
  unaccount_model_locked(tenant);
  tenants_active_.fetch_sub(1, std::memory_order_relaxed);
  health_.on_removed(tenant);
  metrics_.tenants_removed->increment();
  ShardItem item;
  item.kind = ShardItem::Kind::kRemoveTenant;
  item.handle = tenant;
  shards_[meta->shard]->queue.push_unbounded(std::move(item));
  return true;
}

TenantHandle DetectionService::find_tenant(std::string_view name) const {
  std::lock_guard<std::mutex> lock(directory_mutex_);
  const auto it = by_name_.find(std::string(name));
  return it != by_name_.end() ? it->second : kInvalidTenant;
}

void DetectionService::start() {
  std::lock_guard<std::mutex> lock(directory_mutex_);
  CAUSALIOT_CHECK_MSG(!started_, "service already started");
  CAUSALIOT_CHECK_MSG(!stopped_, "service already shut down");
  started_ = true;
  started_at_ns_ = now_ns();
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, raw = shard.get()] {
      worker_loop(*raw);
    });
  }
  ready_.store(true, std::memory_order_release);
}

DetectionService::SubmitResult DetectionService::submit(
    TenantHandle tenant, const preprocess::BinaryEvent& event) {
  const TenantMeta* meta = metas_.get(tenant);
  if (meta == nullptr || !meta->alive.load(std::memory_order_acquire)) {
    metrics_.events_unroutable->increment();
    return SubmitResult::kUnknownTenant;
  }
  metrics_.events_submitted->increment();
  Shard& shard = *shards_[meta->shard];
  ShardItem item;
  item.handle = tenant;
  item.event = event;
  item.enqueue_ns = now_ns();
  // Gate sampling on the tracer being enabled: record() appends even when
  // disabled, so a sampled-but-disabled item would grow the per-thread
  // span buffers forever without anything ever exporting them.
  if (config_.trace_sample_every != 0 && obs::Tracer::global().enabled()) {
    item.traced = trace_counter_.fetch_add(1, std::memory_order_relaxed) %
                      config_.trace_sample_every ==
                  0;
  }
  switch (shard.queue.push(std::move(item))) {
    case util::PushResult::kAccepted:
    case util::PushResult::kDroppedOldest:
      return SubmitResult::kAccepted;
    case util::PushResult::kRejected:
      return SubmitResult::kRejected;
    case util::PushResult::kClosed:
      return SubmitResult::kClosed;
  }
  return SubmitResult::kClosed;  // unreachable
}

bool DetectionService::swap_model(TenantHandle tenant,
                                  std::shared_ptr<const ModelSnapshot> model) {
  // Lifecycle lock, not the event path: re-bills the tenant's model
  // bytes against the new snapshot's components. Holding it while
  // checking `alive` and queueing orders every swap ahead of its
  // tenant's RemoveTenant control, and ahead of shutdown's queue close.
  std::lock_guard<std::mutex> lock(directory_mutex_);
  const TenantMeta* meta = metas_.get(tenant);
  if (stopped_ || meta == nullptr ||
      !meta->alive.load(std::memory_order_acquire) || model == nullptr ||
      model->graph.device_count() != meta->device_count) {
    return false;
  }
  unaccount_model_locked(tenant);
  account_model_locked(tenant, model);
  health_.on_published(tenant, model->version);
  metrics_.model_swaps_published->increment();
  ShardItem item;
  item.kind = ShardItem::Kind::kSwapModel;
  item.handle = tenant;
  item.model = std::move(model);
  shards_[meta->shard]->queue.push_unbounded(std::move(item));
  return true;
}

void DetectionService::deliver(TenantHandle handle, TenantMeta& meta,
                               detect::AnomalyReport report) {
  TenantSession& session = *meta.session;
  const bool collective = report.chain_length() > 1;
  std::optional<detect::SunkAlarm> sunk = session.filter(std::move(report));
  if (!sunk.has_value()) {
    metrics_.alarms_suppressed->increment();
    return;
  }
  meta.alarms->increment();
  health_.on_alarm(handle, collective);
  if (collective) metrics_.alarms_collective->increment();
  switch (sunk->severity) {
    case detect::AlarmSeverity::kNotice:
      metrics_.alarms_notice->increment();
      break;
    case detect::AlarmSeverity::kWarning:
      metrics_.alarms_warning->increment();
      break;
    case detect::AlarmSeverity::kCritical:
      metrics_.alarms_critical->increment();
      break;
  }
  // Root-cause localization runs on the alarm path only (suppressed
  // alarms and plain events never pay for it) and under the snapshot
  // that scored the report, so the ranking is reproducible bit-for-bit.
  const std::uint64_t attribute_start_ns = now_ns();
  detect::RootCauseAttribution attribution = session.attribute(sunk->report);
  const std::uint64_t attribute_ns = now_ns() - attribute_start_ns;
  blame_.record(session.name(), attribution,
                sunk->report.contextual().event.timestamp,
                session.active_model().version, attribute_ns);
  if (!on_alarm_) return;
  ServedAlarm alarm;
  alarm.tenant = handle;
  alarm.tenant_name = session.name();
  alarm.report = std::move(sunk->report);
  alarm.severity = sunk->severity;
  alarm.suppressed_duplicates = sunk->suppressed_duplicates;
  alarm.model_version = session.active_model().version;
  alarm.score_threshold = session.active_model().score_threshold;
  alarm.root_causes = std::move(attribution);
  on_alarm_(alarm);
}

void DetectionService::process_item(Shard& shard, ShardItem& item) {
  // Heartbeat first: a control that deadlocks downstream still proves
  // the worker dequeued it.
  shard.heartbeat.fetch_add(1, std::memory_order_relaxed);
  // Every item's handle was published before the item was queued, and
  // controls for a handle are queued only while it is alive — so a
  // control always finds its session; only events can be orphaned.
  TenantMeta& meta = *metas_.get(item.handle);
  switch (item.kind) {
    case ShardItem::Kind::kRemoveTenant:
      // Clean removal: the pending Algorithm 2 window still fires.
      if (std::optional<detect::AnomalyReport> tail = meta.session->finish()) {
        deliver(item.handle, meta, std::move(*tail));
      }
      meta.session.reset();
      return;
    case ShardItem::Kind::kSwapModel:
      // A dequeued control sits between two events: adopting here is an
      // event boundary for the session.
      meta.session->adopt(std::move(item.model));
      metrics_.model_swaps_adopted->increment();
      health_.on_adopted(item.handle, meta.session->active_model().version);
      return;
    case ShardItem::Kind::kEvent:
      break;
  }
  if (meta.session == nullptr) {
    // Queued behind its tenant's RemoveTenant control: counted, never
    // processed (the conservation identity charges these to orphaned).
    shard.orphaned->increment();
    return;
  }
  process_event(shard, item, meta);
}

void DetectionService::process_event(Shard& shard, ShardItem& item,
                                     TenantMeta& meta) {
  TenantSession& session = *meta.session;
  if (config_.debug_event_delay_us != 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.debug_event_delay_us));
  }

  std::optional<detect::AnomalyReport> report;
  if (item.traced) {
    // Sampled span path: reconstruct the enqueue->dequeue wait from the
    // submit-side timestamp, then time the monitor step on this worker.
    obs::Tracer& tracer = obs::Tracer::global();
    const std::string tenant_json = util::json_escape(session.name());
    const std::uint64_t dequeue_ns = now_ns();
    tracer.record("serve.queue_wait", "serve", item.enqueue_ns,
                  dequeue_ns - item.enqueue_ns,
                  util::format("\"tenant\": \"%s\"", tenant_json.c_str()));
    report = session.process(item.event);
    tracer.record("serve.step", "serve", dequeue_ns, now_ns() - dequeue_ns,
                  util::format("\"tenant\": \"%s\", \"device\": %u",
                               tenant_json.c_str(),
                               static_cast<unsigned>(item.event.device)));
  } else {
    report = session.process(item.event);
  }

  health_.on_event(item.handle, session.last_score());
  shard.processed->increment();
  const std::uint64_t done_ns = now_ns();
  shard.last_item_ns.store(done_ns, std::memory_order_relaxed);
  metrics_.latency->record(done_ns - item.enqueue_ns);
  if (report.has_value()) {
    if (item.traced) {
      obs::Span emit("serve.alarm",
                     util::format("\"tenant\": \"%s\"",
                                  util::json_escape(session.name()).c_str()),
                     "serve");
      deliver(item.handle, meta, std::move(*report));
    } else {
      deliver(item.handle, meta, std::move(*report));
    }
  }
}

void DetectionService::worker_loop(Shard& shard) {
  while (std::optional<ShardItem> item = shard.queue.pop()) {
    process_item(shard, *item);
  }
}

void DetectionService::shutdown() {
  bool was_started = false;
  {
    std::lock_guard<std::mutex> lock(directory_mutex_);
    if (stopped_) return;
    stopped_ = true;
    was_started = started_;
  }
  ready_.store(false, std::memory_order_release);
  for (auto& shard : shards_) shard->queue.close();
  if (was_started) {
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  } else {
    // Never started: drain whatever was queued inline so accepted events
    // are still processed (the contract shutdown() promises).
    for (auto& shard : shards_) {
      Shard& s = *shard;
      while (std::optional<ShardItem> item = s.queue.try_pop()) {
        process_item(s, *item);
      }
    }
  }
  // Queues are drained and workers are gone: flush pending windows of
  // every surviving session, in handle order for determinism.
  const TenantHandle limit = tenant_limit_.load(std::memory_order_relaxed);
  for (TenantHandle handle = 0; handle < limit; ++handle) {
    TenantMeta* meta = metas_.get(handle);
    if (meta == nullptr || meta->session == nullptr) continue;
    if (std::optional<detect::AnomalyReport> tail = meta->session->finish()) {
      deliver(handle, *meta, std::move(*tail));
    }
  }
}

const TenantSession& DetectionService::session(TenantHandle tenant) const {
  const TenantMeta* meta = metas_.get(tenant);
  CAUSALIOT_CHECK_MSG(meta != nullptr &&
                          meta->alive.load(std::memory_order_acquire),
                      "unknown tenant handle");
  return *meta->session;
}

DetectionService::ShardProgress DetectionService::shard_progress(
    std::size_t shard) const {
  CAUSALIOT_CHECK_MSG(shard < shards_.size(), "shard index out of range");
  const Shard& s = *shards_[shard];
  ShardProgress out;
  out.heartbeat = s.heartbeat.load(std::memory_order_relaxed);
  out.last_item_ns = s.last_item_ns.load(std::memory_order_relaxed);
  out.queue_depth = s.queue.size();
  return out;
}

void DetectionService::refresh_queue_gauges() const {
  for (const auto& shard : shards_) {
    shard->queue_depth->set(static_cast<std::int64_t>(shard->queue.size()));
  }
}

void DetectionService::account_model_locked(
    TenantHandle tenant, const std::shared_ptr<const ModelSnapshot>& model) {
  ModelAccount account;
  if (model != nullptr) {
    const graph::MemoryFootprint footprint =
        graph::memory_footprint(model->graph);
    account.equiv_bytes = footprint.total_bytes();
    const auto add_component = [&](const void* key, std::size_t bytes) {
      ModelComponent& component = model_components_[key];
      if (component.refs++ == 0) {
        component.bytes = bytes;
        model_resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      }
      account.components.push_back(key);
    };
    add_component(model->graph.skeleton().get(), footprint.skeleton_bytes);
    add_component(model->graph.base().get(), footprint.base_cpt_bytes);
    // The delta is per-graph, but tenants handed the same snapshot
    // shared_ptr (the CLI boot path) literally share one graph object —
    // keying the unique part by snapshot address bills it once too.
    add_component(model.get(), footprint.delta_cpt_bytes);
    model_equiv_bytes_.fetch_add(account.equiv_bytes,
                                 std::memory_order_relaxed);
  }
  model_accounts_[tenant] = std::move(account);
}

void DetectionService::unaccount_model_locked(TenantHandle tenant) {
  const auto it = model_accounts_.find(tenant);
  if (it == model_accounts_.end()) return;
  for (const void* key : it->second.components) {
    const auto found = model_components_.find(key);
    if (found == model_components_.end()) continue;
    if (--found->second.refs == 0) {
      model_resident_bytes_.fetch_sub(found->second.bytes,
                                      std::memory_order_relaxed);
      model_components_.erase(found);
    }
  }
  model_equiv_bytes_.fetch_sub(it->second.equiv_bytes,
                               std::memory_order_relaxed);
  model_accounts_.erase(it);
}

void DetectionService::refresh_model_gauges() const {
  const ModelStats stats = model_stats();
  model_resident_gauge_->set(static_cast<std::int64_t>(stats.resident_bytes));
  model_equiv_gauge_->set(
      static_cast<std::int64_t>(stats.private_equivalent_bytes));
  model_templates_gauge_->set(static_cast<std::int64_t>(stats.templates));
  model_dedup_gauge_->set(
      static_cast<std::int64_t>(stats.dedup_ratio * 1e6));
}

DetectionService::ModelStats DetectionService::model_stats() const {
  ModelStats out;
  out.resident_bytes = model_resident_bytes_.load(std::memory_order_relaxed);
  out.private_equivalent_bytes =
      model_equiv_bytes_.load(std::memory_order_relaxed);
  out.templates = config_.templates != nullptr
                      ? config_.templates->template_count()
                      : 0;
  out.dedup_ratio =
      out.resident_bytes == 0
          ? 1.0
          : static_cast<double>(out.private_equivalent_bytes) /
                static_cast<double>(out.resident_bytes);
  return out;
}

ServiceStats DetectionService::stats() const {
  refresh_queue_gauges();
  ServiceStats out;
  out.shard_count = shards_.size();
  out.tenant_count = tenant_count();
  out.tenants_added = metrics_.tenants_added->value();
  out.tenants_removed = metrics_.tenants_removed->value();
  out.events_submitted = metrics_.events_submitted->value();
  out.events_unroutable = metrics_.events_unroutable->value();
  for (const auto& shard : shards_) {
    out.events_processed += shard->processed->value();
    out.events_orphaned += shard->orphaned->value();
    const auto counters = shard->queue.counters();
    out.queue_accepted += counters.accepted;
    out.queue_dropped_oldest += counters.dropped_oldest;
    out.queue_rejected += counters.rejected;
    out.queue_closed_rejects += counters.closed_rejects;
    out.queue_block_waits += counters.block_waits;
  }
  out.alarms_total = metrics_.alarms_total();
  out.alarms_notice = metrics_.alarms_notice->value();
  out.alarms_warning = metrics_.alarms_warning->value();
  out.alarms_critical = metrics_.alarms_critical->value();
  out.alarms_collective = metrics_.alarms_collective->value();
  out.alarms_suppressed = metrics_.alarms_suppressed->value();
  out.model_swaps_published = metrics_.model_swaps_published->value();
  out.model_swaps_adopted = metrics_.model_swaps_adopted->value();
  out.latency = metrics_.latency->snapshot();
  return out;
}

std::string DetectionService::registry_json() const {
  refresh_gauges();
  return registry_->to_json();
}

std::string DetectionService::prometheus() const {
  refresh_gauges();
  return registry_->to_prometheus();
}

std::string DetectionService::status_json(std::size_t tenant_offset,
                                          std::size_t tenant_limit) const {
  refresh_gauges();
  const ServiceStats snapshot = stats();
  const double uptime =
      started_at_ns_ != 0
          ? static_cast<double>(now_ns() - started_at_ns_) / 1e9
          : 0.0;
  std::string out = util::format(
      "{\"service\": {\"ready\": %s, \"uptime_seconds\": %.3f, "
      "\"shards\": %zu, \"tenant_count\": %zu, "
      "\"tenants_added\": %llu, \"tenants_removed\": %llu, "
      "\"events_submitted\": %llu, \"events_processed\": %llu, "
      "\"events_unroutable\": %llu, \"events_orphaned\": %llu, "
      "\"alarms_total\": %llu, \"model_swaps_published\": %llu, "
      "\"model_swaps_adopted\": %llu}",
      ready() ? "true" : "false", uptime, snapshot.shard_count,
      snapshot.tenant_count,
      static_cast<unsigned long long>(snapshot.tenants_added),
      static_cast<unsigned long long>(snapshot.tenants_removed),
      static_cast<unsigned long long>(snapshot.events_submitted),
      static_cast<unsigned long long>(snapshot.events_processed),
      static_cast<unsigned long long>(snapshot.events_unroutable),
      static_cast<unsigned long long>(snapshot.events_orphaned),
      static_cast<unsigned long long>(snapshot.alarms_total),
      static_cast<unsigned long long>(snapshot.model_swaps_published),
      static_cast<unsigned long long>(snapshot.model_swaps_adopted));
  const ModelStats models = model_stats();
  out += util::format(
      ", \"models\": {\"templates\": %zu, \"resident_bytes\": %zu, "
      "\"private_equivalent_bytes\": %zu, \"dedup_ratio\": %.3f}",
      models.templates, models.resident_bytes,
      models.private_equivalent_bytes, models.dedup_ratio);
  std::size_t live_total = 0;
  out += ", \"tenants\": " +
         health_.tenants_json(tenant_offset, tenant_limit, &live_total);
  out += util::format(
      ", \"tenant_window\": {\"offset\": %zu, \"limit\": %zu, "
      "\"total\": %zu}}",
      tenant_offset, tenant_limit, live_total);
  return out;
}

ReplayStats replay_trace(DetectionService& service,
                         std::span<const TenantHandle> tenants,
                         std::span<const preprocess::BinaryEvent> events,
                         const ReplayOptions& options) {
  ReplayStats stats;
  if (events.empty() || tenants.empty()) return stats;
  const auto wall_start = std::chrono::steady_clock::now();
  const double trace_start = events.front().timestamp;
  for (const preprocess::BinaryEvent& event : events) {
    if (options.speedup > 0.0) {
      const double trace_elapsed = event.timestamp - trace_start;
      const auto due =
          wall_start + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               trace_elapsed / options.speedup));
      std::this_thread::sleep_until(due);
    }
    for (const TenantHandle tenant : tenants) {
      ++stats.submitted;
      if (service.submit(tenant, event) !=
          DetectionService::SubmitResult::kAccepted) {
        ++stats.rejected;
      }
    }
  }
  return stats;
}

}  // namespace causaliot::serve
