// In-process metrics retention: a background sampler that snapshots
// Registry counters and gauges on a fixed interval into per-series ring
// buffers, so the scrape plane can answer "what has this metric done
// over the last N minutes" instead of only "what is it right now".
//
// Two tiers per series:
//
//   raw  one (timestamp, value) point per sampler tick, fixed-capacity
//        ring — the high-resolution recent window;
//   agg  every `downsample_every` raw points fold into one
//        {t_first, t_last, min, max, sum, count} bucket pushed into a
//        second ring — the long-horizon trend tier at 1/K the memory.
//
// Concurrency: the sampler thread is the only writer. Each ring slot is
// a handful of relaxed atomics, and the writer publishes a slot by a
// release store of the sample count (`head`); readers acquire-load the
// head, copy the window, then re-load the head and discard anything the
// writer may have been overwriting in the meantime (the slot holding
// sample `h2 - capacity` is the one the writer touches next, so points
// older than `h2 - capacity + 1` are dropped). Scrape threads therefore
// read consistent windows without ever blocking the sampler — the one
// lock is the series-directory mutex, taken at lookup only.
//
// The store knows nothing about serve: callers inject a pre-sample hook
// (refresh derived gauges — queue depths, model health, watchdog) and a
// post-sample hook (alert evaluation) and the sampler drives both, so
// one tick is refresh -> snapshot -> evaluate, in that order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "causaliot/obs/registry.hpp"

namespace causaliot::obs {

/// A lookback window in seconds as nanoseconds: 0 for a non-positive
/// window, saturating below 2^64 for a huge finite one (the plain cast
/// would be undefined there).
std::uint64_t window_seconds_to_ns(double window_seconds);

struct TimeSeriesConfig {
  /// Sampler tick interval. 0 is legal for an externally driven store
  /// (tests call sample_at() directly; start() then refuses to spawn).
  std::uint64_t interval_ms = 1000;
  /// Raw-tier points retained per series. Readers see up to
  /// `raw_capacity - 1` points (the slot the writer recycles next is
  /// never trusted).
  std::size_t raw_capacity = 512;
  /// Aggregate-tier buckets retained per series.
  std::size_t agg_capacity = 512;
  /// Raw points folded into one aggregate bucket.
  std::size_t downsample_every = 16;
  /// Metric families to sample: exact names, or prefixes with a trailing
  /// '*' ("serve_*"). Empty samples every counter and gauge — fine for a
  /// handful of tenants, but a million-tenant fleet should select the
  /// aggregate families and leave the per-tenant gauges to /metrics.
  std::vector<std::string> selectors;
};

class TimeSeriesStore {
 public:
  /// One raw sample.
  struct Point {
    std::uint64_t t_ns = 0;  // steady-clock (Tracer::now_ns) time base
    double value = 0.0;
  };
  /// One downsampled bucket.
  struct AggPoint {
    std::uint64_t t_first_ns = 0;
    std::uint64_t t_last_ns = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  /// Series identity as the registry names it.
  struct SeriesRef {
    std::string name;
    Labels labels;
  };
  struct RawWindow {
    SeriesRef ref;
    std::vector<Point> points;  // oldest first
  };
  struct AggWindow {
    SeriesRef ref;
    std::vector<AggPoint> points;  // oldest first
  };

  TimeSeriesStore(Registry& registry, TimeSeriesConfig config);
  /// Calls stop().
  ~TimeSeriesStore();

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Runs at the top of every tick, before the registry is visited —
  /// the place to refresh scrape-path gauges (queue depth, model
  /// health, watchdog). Set before start(); runs on the sampler thread.
  void set_pre_sample(std::function<void(std::uint64_t now_ns)> hook);
  /// Runs after the tick's samples are published — the alert-evaluation
  /// slot. Set before start(); runs on the sampler thread.
  void set_post_sample(std::function<void(std::uint64_t now_ns)> hook);

  /// Spawns the sampler thread (interval_ms must be > 0).
  void start();
  /// Joins the sampler. Idempotent; safe if start() never ran.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// One synchronous tick at an explicit timestamp: pre-hook, snapshot
  /// every selected registry scalar, post-hook. The deterministic
  /// driver for tests; the sampler thread calls it with the real clock.
  /// Single-threaded with respect to itself (one writer).
  void sample_at(std::uint64_t now_ns);

  /// Ticks taken so far.
  std::uint64_t samples_taken() const {
    return ticks_.load(std::memory_order_acquire);
  }
  /// Series discovered so far.
  std::size_t series_count() const;
  /// Every series key, in deterministic (name, labels) order.
  std::vector<SeriesRef> series_refs() const;

  /// Raw / aggregate points newer than `now_ns - window_ns` for every
  /// series matching `selector` (exact family name, or trailing-'*'
  /// prefix; empty matches everything). window_ns == 0 means the whole
  /// retained ring. Any thread.
  std::vector<RawWindow> raw_window(std::string_view selector,
                                    std::uint64_t window_ns,
                                    std::uint64_t now_ns) const;
  std::vector<AggWindow> agg_window(std::string_view selector,
                                    std::uint64_t window_ns,
                                    std::uint64_t now_ns) const;

  /// The /metrics/history payload: one JSON object covering every series
  /// matched by the comma-separated `selectors` ("" matches all), with
  /// samples newer than `window_seconds` (0 = whole ring) from the given
  /// tier ("raw" | "agg"). Timestamps are wall-clock unix milliseconds
  /// (steady samples mapped through the store's wall anchor).
  std::string history_json(std::string_view selectors, double window_seconds,
                           std::string_view tier, std::uint64_t now_ns) const;

  /// Maps a sample timestamp to wall-clock unix milliseconds.
  std::int64_t to_unix_ms(std::uint64_t t_ns) const;

 private:
  struct RawRing;
  struct AggRing;
  struct Series;

  Series& find_or_create(std::string_view name, const Labels& labels);
  template <typename Fn>
  void for_each_matching(std::string_view selector, Fn&& fn) const;

  Registry& registry_;
  TimeSeriesConfig config_;
  std::function<void(std::uint64_t)> pre_sample_;
  std::function<void(std::uint64_t)> post_sample_;

  /// Guards the series directory (find / insert); ring reads and writes
  /// are lock-free once a Series pointer is held.
  mutable std::mutex index_mutex_;
  /// Key -> series, key = name + '\x1f' + rendered sorted labels. A
  /// std::map keeps iteration (and therefore history JSON) in the same
  /// deterministic order as the registry's exposition.
  std::map<std::string, std::unique_ptr<Series>, std::less<>> index_;

  std::atomic<std::uint64_t> ticks_{0};
  /// Wall-clock anchor captured at construction, for unix-time export.
  std::int64_t wall_anchor_ms_ = 0;
  std::uint64_t mono_anchor_ns_ = 0;

  std::atomic<bool> running_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;  // guarded by wake_mutex_
  std::thread sampler_;
};

}  // namespace causaliot::obs
