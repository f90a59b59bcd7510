// Streaming multi-tenant detection service.
//
// The missing layer between the miner and a deployment: many independent
// homes (tenant sessions), each an O(1)-per-event Event Monitor, sharded
// over N worker threads. Producers submit(), which routes the event to
// the owning shard's bounded queue; the shard worker is the single
// consumer and the only thread that touches its sessions, so the entire
// detection path is lock-free beyond the queue handoff.
//
//   serve::DetectionService service(config, [](const ServedAlarm& a) {...});
//   auto home = service.add_tenant("home-0", snapshot, initial_state);
//   service.start();
//   service.submit(home, event);            // any thread
//   service.swap_model(home, new_snapshot); // any thread, no pause
//   auto late = service.add_tenant(...);    // any thread, live service
//   service.remove_tenant(home);            // any thread, live service
//   service.shutdown();                     // drain queues, flush windows
//
// Backpressure is explicit (util::BoundedQueue policy per shard) and
// counted; shutdown() closes the queues, drains every queued event, then
// flushes each session's pending Algorithm 2 window — nothing accepted
// is ever silently discarded.
//
// Each tenant's directory entry (a lock-free util::SlotArray slot:
// routing an event is two acquire loads, no reference counting, no
// global pause) owns its session. add_tenant builds the session and only
// then publishes the entry, so no event can reach a shard ahead of its
// session, before or after start(). remove_tenant and swap_model ride
// the shard FIFO as controls (an unbounded side lane, so kReject cannot
// lose one and kBlock cannot stall one); the worker applies each between
// two events, so every published model is adopted at an event boundary
// and only the owning shard worker ever touches a session. Removal
// tombstones the directory entry first, so events already queued behind
// the RemoveTenant control are counted as orphaned rather than touching
// a destroyed session.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "causaliot/obs/registry.hpp"
#include "causaliot/preprocess/series.hpp"
#include "causaliot/serve/blame.hpp"
#include "causaliot/serve/metrics.hpp"
#include "causaliot/serve/model_health.hpp"
#include "causaliot/serve/session.hpp"
#include "causaliot/serve/template_registry.hpp"
#include "causaliot/util/bounded_queue.hpp"
#include "causaliot/util/slot_array.hpp"

namespace causaliot::serve {

struct ServiceConfig {
  /// Worker threads; tenants are spread round-robin over shards.
  std::size_t shard_count = 1;
  /// Bounded event-queue capacity per shard.
  std::size_t queue_capacity = 4096;
  /// What a full shard queue does to producers.
  util::OverflowPolicy overflow = util::OverflowPolicy::kBlock;
  /// Per-session Algorithm 2 / alarm-filter settings.
  SessionConfig session;
  /// Metric registry hosting this service's counters. nullptr gives the
  /// service a private registry (isolated: the right default for tests
  /// and embedded use); the CLI passes &obs::Registry::global().
  obs::Registry* registry = nullptr;
  /// Emit obs spans (enqueue wait, monitor step, alarm emit) for every
  /// Nth submitted event; 0 disables sampling — the hot path then pays
  /// one predictable branch per event.
  std::size_t trace_sample_every = 0;
  /// Per-tenant model-health telemetry (score EWMA smoothing, rolling
  /// alarm-rate window).
  HealthConfig health;
  /// Artificial per-event processing delay in microseconds. 0 (the only
  /// sane production value) is a single predictable branch; anything
  /// else slows the workers down deterministically so ops drills and CI
  /// smokes can saturate a tiny queue and watch the watchdog/alert
  /// plane fire without racing the real detection speed.
  std::uint32_t debug_event_delay_us = 0;
  /// Device catalog labeling blamed devices in the root-cause plane
  /// (blame counters, /rootcausez). nullptr labels by numeric id
  /// ("device-7"); when given it must outlive the service.
  const telemetry::DeviceCatalog* catalog = nullptr;
  /// Last-K full attributions retained per tenant for /rootcausez.
  std::size_t root_cause_history = 8;
  /// Model-template store backing the by-name add_tenant overload and the
  /// ingest plane's {"op": "add_tenant", "template": ...} verb. nullptr
  /// disables template lookup (by-name adds fail); when given it must
  /// outlive the service.
  TemplateRegistry* templates = nullptr;
};

/// Opaque tenant identifier returned by add_tenant.
using TenantHandle = std::uint32_t;

/// An alarm leaving the service, decorated for delivery.
struct ServedAlarm {
  TenantHandle tenant = 0;
  std::string tenant_name;
  detect::AnomalyReport report;
  detect::AlarmSeverity severity = detect::AlarmSeverity::kNotice;
  std::size_t suppressed_duplicates = 0;
  /// Version of the ModelSnapshot that scored the anomaly.
  std::uint64_t model_version = 0;
  /// Score threshold c of that snapshot — provenance for "how far over
  /// the line was this?" (margin = score - threshold).
  double score_threshold = 0.0;
  /// Ranked root-cause attribution computed under the same snapshot
  /// (non-empty whenever the report has at least one entry).
  detect::RootCauseAttribution root_causes;
};

/// Invoked from shard worker threads (and from shutdown() for flushed
/// windows). Must be thread-safe; keep it fast — it runs on the
/// detection path.
using AlarmCallback = std::function<void(const ServedAlarm&)>;

class DetectionService {
 public:
  DetectionService(ServiceConfig config, AlarmCallback on_alarm);
  /// Calls shutdown() if the service is still running.
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Registers a home — before start() or on a running service, from
  /// any thread. `initial_state` seeds the phantom state machine (size
  /// must match the model's device count). Returns kInvalidTenant when
  /// the name is already live or the service has shut down. The
  /// session exists before the handle is routable, so events submitted
  /// after add_tenant returns always find it.
  TenantHandle add_tenant(std::string name,
                          std::shared_ptr<const ModelSnapshot> model,
                          std::vector<std::uint8_t> initial_state);

  /// Registers a home from a named template in config.templates; it
  /// shares the template's skeleton and base through a COW delta.
  /// An empty `initial_state` defaults to all-zeros of the template's
  /// device count. kInvalidTenant when no registry is configured, the
  /// template is unknown, or the snapshot overload would refuse.
  TenantHandle add_tenant(std::string name, std::string_view template_name,
                          std::vector<std::uint8_t> initial_state = {});

  /// Unregisters a live tenant from any thread, with no pause: the
  /// directory entry is tombstoned (submit() answers kUnknownTenant
  /// from that instant), the name becomes reusable, and the owning
  /// shard worker flushes the session's pending anomaly window through
  /// the alarm callback before destroying it. Events still queued
  /// behind the removal are counted as orphaned. False when the handle
  /// never existed, was already removed, or the service has shut down.
  bool remove_tenant(TenantHandle tenant);

  /// Handle lookup by registration name; kInvalidTenant when unknown.
  static constexpr TenantHandle kInvalidTenant = ~TenantHandle{0};
  TenantHandle find_tenant(std::string_view name) const;

  /// Spawns the shard workers. Events submitted before start() queue up
  /// (subject to the overflow policy) and are processed once it runs.
  void start();

  enum class SubmitResult : std::uint8_t {
    kAccepted,       // queued (under kDropOldest possibly at a victim's cost)
    kRejected,       // full queue under kReject; event not queued
    kClosed,         // service shutting down; event not queued
    kUnknownTenant,  // handle names no live tenant; event not queued
  };

  /// Routes `event` to the tenant's shard. Callable from any thread.
  /// Under kBlock this may wait for queue space (lossless backpressure).
  SubmitResult submit(TenantHandle tenant,
                      const preprocess::BinaryEvent& event);

  /// Publishes a new model for one tenant without pausing ingestion,
  /// from any thread. The shard worker adopts it between the events
  /// queued before and after this call; every accepted swap is adopted,
  /// also when another swap or a removal follows it. False (and nothing
  /// published or billed) when the handle never existed or was removed,
  /// the service has shut down, `model` is null, or its device count
  /// differs from the tenant's.
  bool swap_model(TenantHandle tenant,
                  std::shared_ptr<const ModelSnapshot> model);

  /// Graceful drain: stops accepting events, processes everything queued,
  /// joins the workers, then flushes each session's pending anomaly
  /// window through the alarm callback. Idempotent.
  void shutdown();

  std::size_t shard_count() const { return shards_.size(); }
  /// Live tenants (added minus removed).
  std::size_t tenant_count() const {
    return tenants_active_.load(std::memory_order_relaxed);
  }
  /// The live tenant's session. Only race-free while no shard worker is
  /// processing that tenant (pre-start, post-shutdown, or externally
  /// quiesced) — the test/diagnostic surface it has always been.
  const TenantSession& session(TenantHandle tenant) const;

  /// Readiness for the introspection plane: true from the moment start()
  /// has spawned every shard worker (each tenant holds a loaded model
  /// snapshot by construction) until shutdown() begins draining.
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  /// Per-tenant model-health telemetry (score EWMA, rolling alarm rates,
  /// snapshot age) backing /statusz and the serve_tenant_* gauges.
  const ModelHealth& health() const { return health_; }

  /// Fleet-wide root-cause blame aggregation (the /rootcausez backing
  /// store and the serve_root_cause_* counters).
  const BlameLedger& blame() const { return blame_; }

  /// Liveness evidence one shard worker publishes as it runs: the
  /// heartbeat advances once per dequeued item (events and controls
  /// alike), last_item_ns is the completion timestamp of the newest
  /// processed event. A queue_depth > 0 paired with a frozen heartbeat
  /// is the watchdog's definition of a stalled worker — an empty queue
  /// with no heartbeat is merely idle.
  struct ShardProgress {
    std::uint64_t heartbeat = 0;
    std::uint64_t last_item_ns = 0;
    std::size_t queue_depth = 0;
  };
  ShardProgress shard_progress(std::size_t shard) const;
  std::size_t queue_capacity() const { return config_.queue_capacity; }

  /// Refreshes every scrape-derived gauge (queue depths + model health)
  /// without serializing anything — the TimeSeriesStore pre-sample hook,
  /// and what every scrape entry point calls first.
  void refresh_gauges() const {
    refresh_queue_gauges();
    refresh_model_gauges();
    health_.refresh();
  }

  /// Fleet model-memory accounting (the serve_model_* gauges).
  /// resident_bytes counts every distinct model component once —
  /// skeletons, base CPT payloads, and per-snapshot deltas are keyed by
  /// pointer identity, so N tenants of one template pay the skeleton and
  /// base a single time. private_equivalent_bytes is what the same fleet
  /// would cost with one unshared copy per tenant (every tenant's full
  /// footprint summed).
  /// Both are publication-time estimates: a delta that grows later via
  /// update_cpts is re-measured at its next swap_model.
  struct ModelStats {
    std::size_t resident_bytes = 0;
    std::size_t private_equivalent_bytes = 0;
    std::size_t templates = 0;
    double dedup_ratio = 1.0;  // private_equivalent / resident
  };
  ModelStats model_stats() const;

  /// Default per-tenant window in status_json — /statusz stays bounded
  /// on 10k-tenant fleets; page with ?offset=&limit=.
  static constexpr std::size_t kDefaultTenantWindow = 100;

  /// One JSON object for /statusz: service summary (readiness, uptime,
  /// shard/tenant counts, throughput counters), fleet model-memory
  /// stats, and a paginated per-tenant model-health window
  /// ([tenant_offset, tenant_offset + tenant_limit) over live tenants,
  /// with the window echoed in "tenant_window"). Refreshes the
  /// queue-depth and health gauges as a side effect, like every other
  /// scrape entry point.
  std::string status_json(std::size_t tenant_offset = 0,
                          std::size_t tenant_limit = kDefaultTenantWindow)
      const;

  /// Prometheus text of the service registry with queue-depth and
  /// model-health gauges refreshed first — the /metrics payload.
  std::string prometheus() const;

  /// Point-in-time counters + latency quantiles (see metrics.hpp).
  ServiceStats stats() const;
  std::string stats_json() const { return stats().to_json(); }

  /// The registry hosting this service's metrics (the config-supplied
  /// one, or the service-private default). Queue-depth gauges are
  /// refreshed on every stats()/registry_json() call.
  obs::Registry& registry() const { return *registry_; }
  /// Registry snapshot as one compact JSON object (JSONL-friendly).
  std::string registry_json() const;

 private:
  /// One queue entry: an event for a tenant, or an in-band control
  /// message. Controls enter through push_unbounded (never rejected,
  /// never blocking) and are shielded from kDropOldest eviction by the
  /// queue's evict filter, so lifecycle operations survive any
  /// backpressure policy.
  struct ShardItem {
    enum class Kind : std::uint8_t {
      kEvent,
      kRemoveTenant,  // flush + destroy the session for `handle`
      kSwapModel,     // model carries the snapshot to adopt
    };
    Kind kind = Kind::kEvent;
    TenantHandle handle = 0;
    preprocess::BinaryEvent event;
    std::uint64_t enqueue_ns = 0;
    /// Sampled for span tracing (see ServiceConfig::trace_sample_every).
    bool traced = false;
    std::shared_ptr<const ModelSnapshot> model;
  };

  struct Shard {
    Shard(std::size_t capacity, util::OverflowPolicy policy)
        : queue(capacity, policy, [](const ShardItem& item) {
            return item.kind == ShardItem::Kind::kEvent;
          }) {}
    util::BoundedQueue<ShardItem> queue;
    std::thread worker;
    /// Watchdog evidence (see ShardProgress). Written by the worker
    /// only; relaxed is enough — the watchdog compares successive
    /// samples, it never orders against other memory.
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<std::uint64_t> last_item_ns{0};
    /// Per-shard labeled registry handles.
    obs::Counter* processed = nullptr;
    obs::Counter* orphaned = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  /// Directory entry and session owner. Published to the SlotArray with
  /// its session already built, so no event can be queued ahead of the
  /// session's creation. Removal flips `alive` before the RemoveTenant
  /// control is queued — the mirror guarantee: no event is queued behind
  /// the session's destruction.
  struct TenantMeta {
    TenantMeta(std::string name_in, std::size_t shard_in,
               obs::Counter* alarms_in,
               std::unique_ptr<TenantSession> session_in)
        : name(std::move(name_in)), shard(shard_in), alarms(alarms_in),
          device_count(session_in->device_count()),
          session(std::move(session_in)) {}
    const std::string name;
    const std::size_t shard;
    obs::Counter* const alarms;
    const std::size_t device_count;
    /// Touched only by the shard worker once published (and after the
    /// workers joined). The worker resets it when it applies the
    /// RemoveTenant control; null means later events are orphaned.
    std::unique_ptr<TenantSession> session;
    std::atomic<bool> alive{true};
  };

  void worker_loop(Shard& shard);
  void process_item(Shard& shard, ShardItem& item);
  void process_event(Shard& shard, ShardItem& item, TenantMeta& meta);
  void deliver(TenantHandle handle, TenantMeta& meta,
               detect::AnomalyReport report);
  void refresh_queue_gauges() const;
  void refresh_model_gauges() const;
  /// Charges `tenant` for `model`'s footprint: shared components
  /// (skeleton, base payload, the snapshot's own delta) are refcounted
  /// by pointer identity so each distinct object bills resident bytes
  /// exactly once. Caller holds directory_mutex_.
  void account_model_locked(TenantHandle tenant,
                            const std::shared_ptr<const ModelSnapshot>& model);
  void unaccount_model_locked(TenantHandle tenant);

  ServiceConfig config_;
  AlarmCallback on_alarm_;
  std::unique_ptr<obs::Registry> own_registry_;
  obs::Registry* registry_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// handle -> meta. Lock-free on the submit path; slots are tombstoned
  /// on removal, never freed, so a stale handle reads as dead instead
  /// of dangling. Handles are assigned densely and never reused.
  util::SlotArray<TenantMeta> metas_;
  /// Serializes lifecycle (add/remove/swap/start/shutdown) and guards
  /// by_name_; never taken on the event path.
  mutable std::mutex directory_mutex_;
  std::unordered_map<std::string, TenantHandle> by_name_;
  std::atomic<TenantHandle> tenant_limit_{0};
  std::atomic<std::size_t> tenants_active_{0};
  Metrics metrics_;
  ModelHealth health_;
  BlameLedger blame_;
  /// Model-memory accounting (guarded by directory_mutex_; totals are
  /// atomics so scrapes read without the lock). Components are keyed by
  /// object address — a skeleton shared by 10k tenants is one entry with
  /// refs == 10000 and its bytes counted once.
  struct ModelComponent {
    std::size_t bytes = 0;
    std::size_t refs = 0;
  };
  struct ModelAccount {
    std::vector<const void*> components;
    std::size_t equiv_bytes = 0;
  };
  std::unordered_map<const void*, ModelComponent> model_components_;
  std::unordered_map<TenantHandle, ModelAccount> model_accounts_;
  std::atomic<std::size_t> model_resident_bytes_{0};
  std::atomic<std::size_t> model_equiv_bytes_{0};
  obs::Gauge* model_resident_gauge_ = nullptr;
  obs::Gauge* model_equiv_gauge_ = nullptr;
  obs::Gauge* model_templates_gauge_ = nullptr;
  obs::Gauge* model_dedup_gauge_ = nullptr;
  std::atomic<std::uint64_t> trace_counter_{0};
  std::atomic<bool> ready_{false};
  std::uint64_t started_at_ns_ = 0;
  /// Guarded by directory_mutex_.
  bool started_ = false;
  bool stopped_ = false;
};

/// Replays a recorded (already discretized) trace into every listed
/// tenant, preserving per-tenant event order. speedup scales trace time
/// to wall time (2 = twice as fast as recorded); 0 replays as fast as
/// the backpressure policy allows.
struct ReplayOptions {
  double speedup = 0.0;
};

struct ReplayStats {
  std::size_t submitted = 0;
  std::size_t rejected = 0;
};

ReplayStats replay_trace(DetectionService& service,
                         std::span<const TenantHandle> tenants,
                         std::span<const preprocess::BinaryEvent> events,
                         const ReplayOptions& options = {});

}  // namespace causaliot::serve
