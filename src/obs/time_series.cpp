#include "causaliot/obs/time_series.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>

#include "causaliot/obs/trace.hpp"
#include "causaliot/util/check.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::obs {

namespace {

/// Exact family name, or trailing-'*' prefix; empty matches everything.
bool selector_matches(std::string_view selector, std::string_view name) {
  if (selector.empty()) return true;
  if (selector.back() == '*') {
    return name.substr(0, selector.size() - 1) ==
           selector.substr(0, selector.size() - 1);
  }
  return name == selector;
}

bool any_selector_matches(const std::vector<std::string_view>& selectors,
                          std::string_view name) {
  if (selectors.empty()) return true;
  return std::any_of(selectors.begin(), selectors.end(),
                     [&](std::string_view s) {
                       return selector_matches(s, name);
                     });
}

std::vector<std::string_view> split_selectors(std::string_view csv) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string_view item = util::trim(
        csv.substr(start, comma == std::string_view::npos ? csv.size() - start
                                                          : comma - start));
    if (!item.empty()) out.push_back(item);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += util::json_escape(key);
    out += "\": \"";
    out += util::json_escape(value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::uint64_t window_seconds_to_ns(double window_seconds) {
  constexpr double kMaxNs = 18446744073709549568.0;  // largest double < 2^64
  if (!(window_seconds > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::min(window_seconds * 1e9, kMaxNs));
}

/// Fixed-capacity single-writer ring of (t, value) points. The writer
/// fills a slot's relaxed atomics, then release-publishes the running
/// sample count; readers copy a window and use a second head load to
/// discard any slot the writer could have been recycling (see the
/// header comment for the off-by-one: the slot holding sample
/// `head - capacity` is the writer's next target, so only the newest
/// `capacity - 1` samples are ever trusted).
struct TimeSeriesStore::RawRing {
  struct Slot {
    std::atomic<std::uint64_t> t{0};
    std::atomic<double> v{0.0};
  };

  explicit RawRing(std::size_t capacity) : slots(capacity) {}

  std::vector<Slot> slots;  // never resized: slot addresses are stable
  std::atomic<std::uint64_t> head{0};

  void push(std::uint64_t t_ns, double value) {  // sampler thread only
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    Slot& slot = slots[h % slots.size()];
    slot.t.store(t_ns, std::memory_order_relaxed);
    slot.v.store(value, std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }

  void read(std::vector<Point>& out) const {  // any thread
    out.clear();
    const std::uint64_t cap = slots.size();
    const std::uint64_t h1 = head.load(std::memory_order_acquire);
    const std::uint64_t lo = h1 > cap - 1 ? h1 - (cap - 1) : 0;
    for (std::uint64_t idx = lo; idx < h1; ++idx) {
      const Slot& slot = slots[idx % cap];
      out.push_back({slot.t.load(std::memory_order_relaxed),
                     slot.v.load(std::memory_order_relaxed)});
    }
    const std::uint64_t h2 = head.load(std::memory_order_acquire);
    const std::uint64_t lo2 = h2 > cap - 1 ? h2 - (cap - 1) : 0;
    if (lo2 > lo) {
      const std::size_t drop =
          std::min<std::size_t>(out.size(), static_cast<std::size_t>(lo2 - lo));
      out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(drop));
    }
  }
};

/// Same publication discipline for downsampled buckets.
struct TimeSeriesStore::AggRing {
  struct Slot {
    std::atomic<std::uint64_t> t_first{0};
    std::atomic<std::uint64_t> t_last{0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> count{0};
  };

  explicit AggRing(std::size_t capacity) : slots(capacity) {}

  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};

  void push(const AggPoint& point) {  // sampler thread only
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    Slot& slot = slots[h % slots.size()];
    slot.t_first.store(point.t_first_ns, std::memory_order_relaxed);
    slot.t_last.store(point.t_last_ns, std::memory_order_relaxed);
    slot.min.store(point.min, std::memory_order_relaxed);
    slot.max.store(point.max, std::memory_order_relaxed);
    slot.sum.store(point.sum, std::memory_order_relaxed);
    slot.count.store(point.count, std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }

  void read(std::vector<AggPoint>& out) const {  // any thread
    out.clear();
    const std::uint64_t cap = slots.size();
    const std::uint64_t h1 = head.load(std::memory_order_acquire);
    const std::uint64_t lo = h1 > cap - 1 ? h1 - (cap - 1) : 0;
    for (std::uint64_t idx = lo; idx < h1; ++idx) {
      const Slot& slot = slots[idx % cap];
      out.push_back({slot.t_first.load(std::memory_order_relaxed),
                     slot.t_last.load(std::memory_order_relaxed),
                     slot.min.load(std::memory_order_relaxed),
                     slot.max.load(std::memory_order_relaxed),
                     slot.sum.load(std::memory_order_relaxed),
                     slot.count.load(std::memory_order_relaxed)});
    }
    const std::uint64_t h2 = head.load(std::memory_order_acquire);
    const std::uint64_t lo2 = h2 > cap - 1 ? h2 - (cap - 1) : 0;
    if (lo2 > lo) {
      const std::size_t drop =
          std::min<std::size_t>(out.size(), static_cast<std::size_t>(lo2 - lo));
      out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(drop));
    }
  }
};

struct TimeSeriesStore::Series {
  Series(std::string name_in, Labels labels_in, std::size_t raw_capacity,
         std::size_t agg_capacity)
      : name(std::move(name_in)), labels(std::move(labels_in)),
        raw(raw_capacity), agg(agg_capacity) {}

  const std::string name;
  const Labels labels;
  RawRing raw;
  AggRing agg;
  // Downsample accumulator — sampler-thread state, never shared.
  std::uint64_t acc_count = 0;
  std::uint64_t acc_t_first = 0;
  double acc_min = 0.0;
  double acc_max = 0.0;
  double acc_sum = 0.0;
};

TimeSeriesStore::TimeSeriesStore(Registry& registry, TimeSeriesConfig config)
    : registry_(registry), config_(std::move(config)) {
  CAUSALIOT_CHECK_MSG(config_.raw_capacity >= 2,
                      "raw_capacity must be >= 2 (readers skip one slot)");
  CAUSALIOT_CHECK_MSG(config_.agg_capacity >= 2, "agg_capacity must be >= 2");
  CAUSALIOT_CHECK_MSG(config_.downsample_every >= 1,
                      "downsample_every must be >= 1");
  wall_anchor_ms_ = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  mono_anchor_ns_ = Tracer::now_ns();
}

TimeSeriesStore::~TimeSeriesStore() { stop(); }

void TimeSeriesStore::set_pre_sample(
    std::function<void(std::uint64_t)> hook) {
  CAUSALIOT_CHECK_MSG(!running(), "set hooks before start()");
  pre_sample_ = std::move(hook);
}

void TimeSeriesStore::set_post_sample(
    std::function<void(std::uint64_t)> hook) {
  CAUSALIOT_CHECK_MSG(!running(), "set hooks before start()");
  post_sample_ = std::move(hook);
}

void TimeSeriesStore::start() {
  CAUSALIOT_CHECK_MSG(config_.interval_ms > 0,
                      "interval_ms == 0 means externally driven; no sampler");
  CAUSALIOT_CHECK_MSG(!running(), "sampler already running");
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  sampler_ = std::thread([this] {
    const auto interval = std::chrono::milliseconds(config_.interval_ms);
    std::unique_lock<std::mutex> lock(wake_mutex_);
    while (!stop_requested_) {
      lock.unlock();
      sample_at(Tracer::now_ns());
      lock.lock();
      wake_.wait_for(lock, interval, [this] { return stop_requested_; });
    }
  });
}

void TimeSeriesStore::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  running_.store(false, std::memory_order_release);
}

TimeSeriesStore::Series& TimeSeriesStore::find_or_create(
    std::string_view name, const Labels& labels) {
  // Key = name + sorted labels; '\x1f' cannot appear in a metric or
  // label name, so keys cannot collide across families.
  std::string key(name);
  for (const auto& [label_key, label_value] : labels) {
    key += '\x1f';
    key += label_key;
    key += '=';
    key += label_value;
  }
  std::lock_guard<std::mutex> lock(index_mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) return *it->second;
  auto series = std::make_unique<Series>(std::string(name), labels,
                                         config_.raw_capacity,
                                         config_.agg_capacity);
  Series& ref = *series;
  index_.emplace(std::move(key), std::move(series));
  return ref;
}

void TimeSeriesStore::sample_at(std::uint64_t now_ns) {
  if (pre_sample_) pre_sample_(now_ns);
  registry_.visit_scalars([&](const std::string& name, const Labels& labels,
                              MetricKind, double value) {
    bool selected = config_.selectors.empty();
    for (const std::string& selector : config_.selectors) {
      if (selector_matches(selector, name)) {
        selected = true;
        break;
      }
    }
    if (!selected) return;
    Series& series = find_or_create(name, labels);
    series.raw.push(now_ns, value);
    if (series.acc_count == 0) {
      series.acc_t_first = now_ns;
      series.acc_min = value;
      series.acc_max = value;
      series.acc_sum = 0.0;
    }
    series.acc_min = std::min(series.acc_min, value);
    series.acc_max = std::max(series.acc_max, value);
    series.acc_sum += value;
    ++series.acc_count;
    if (series.acc_count >= config_.downsample_every) {
      series.agg.push({series.acc_t_first, now_ns, series.acc_min,
                       series.acc_max, series.acc_sum, series.acc_count});
      series.acc_count = 0;
    }
  });
  ticks_.fetch_add(1, std::memory_order_release);
  if (post_sample_) post_sample_(now_ns);
}

std::size_t TimeSeriesStore::series_count() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  return index_.size();
}

std::vector<TimeSeriesStore::SeriesRef> TimeSeriesStore::series_refs() const {
  std::vector<SeriesRef> out;
  std::lock_guard<std::mutex> lock(index_mutex_);
  out.reserve(index_.size());
  for (const auto& [key, series] : index_) {
    out.push_back({series->name, series->labels});
  }
  return out;
}

template <typename Fn>
void TimeSeriesStore::for_each_matching(std::string_view selector,
                                        Fn&& fn) const {
  // Collect stable pointers under the lock, read rings outside it.
  std::vector<const Series*> matched;
  {
    std::lock_guard<std::mutex> lock(index_mutex_);
    for (const auto& [key, series] : index_) {
      if (selector_matches(selector, series->name)) {
        matched.push_back(series.get());
      }
    }
  }
  for (const Series* series : matched) fn(*series);
}

std::vector<TimeSeriesStore::RawWindow> TimeSeriesStore::raw_window(
    std::string_view selector, std::uint64_t window_ns,
    std::uint64_t now_ns) const {
  std::vector<RawWindow> out;
  std::vector<Point> scratch;
  for_each_matching(selector, [&](const Series& series) {
    series.raw.read(scratch);
    RawWindow window;
    window.ref = {series.name, series.labels};
    const std::uint64_t cutoff =
        window_ns == 0 || window_ns > now_ns ? 0 : now_ns - window_ns;
    for (const Point& point : scratch) {
      if (point.t_ns >= cutoff) window.points.push_back(point);
    }
    out.push_back(std::move(window));
  });
  return out;
}

std::vector<TimeSeriesStore::AggWindow> TimeSeriesStore::agg_window(
    std::string_view selector, std::uint64_t window_ns,
    std::uint64_t now_ns) const {
  std::vector<AggWindow> out;
  std::vector<AggPoint> scratch;
  for_each_matching(selector, [&](const Series& series) {
    series.agg.read(scratch);
    AggWindow window;
    window.ref = {series.name, series.labels};
    const std::uint64_t cutoff =
        window_ns == 0 || window_ns > now_ns ? 0 : now_ns - window_ns;
    for (const AggPoint& point : scratch) {
      if (point.t_last_ns >= cutoff) window.points.push_back(point);
    }
    out.push_back(std::move(window));
  });
  return out;
}

std::int64_t TimeSeriesStore::to_unix_ms(std::uint64_t t_ns) const {
  return wall_anchor_ms_ +
         (static_cast<std::int64_t>(t_ns) -
          static_cast<std::int64_t>(mono_anchor_ns_)) /
             1'000'000;
}

std::string TimeSeriesStore::history_json(std::string_view selectors,
                                          double window_seconds,
                                          std::string_view tier,
                                          std::uint64_t now_ns) const {
  const bool agg_tier = tier == "agg";
  const std::uint64_t window_ns = window_seconds_to_ns(window_seconds);
  const std::vector<std::string_view> wanted = split_selectors(selectors);

  std::string out = util::format(
      "{\"tier\": \"%s\", \"window_seconds\": %.3f, \"interval_ms\": %" PRIu64
      ", \"series\": [",
      agg_tier ? "agg" : "raw", window_seconds, config_.interval_ms);
  bool first_series = true;
  const auto emit_header = [&](const SeriesRef& ref) {
    if (!first_series) out += ", ";
    first_series = false;
    out += "{\"name\": \"";
    out += util::json_escape(ref.name);
    out += "\", \"labels\": ";
    out += json_labels(ref.labels);
    out += ", \"points\": [";
  };

  // One pass per matched series; the index map keeps (name, labels)
  // order deterministic, matching the registry exposition.
  std::vector<const Series*> matched;
  {
    std::lock_guard<std::mutex> lock(index_mutex_);
    for (const auto& [key, series] : index_) {
      if (any_selector_matches(wanted, series->name)) {
        matched.push_back(series.get());
      }
    }
  }
  const std::uint64_t cutoff =
      window_ns == 0 || window_ns > now_ns ? 0 : now_ns - window_ns;
  if (agg_tier) {
    std::vector<AggPoint> scratch;
    for (const Series* series : matched) {
      series->agg.read(scratch);
      emit_header({series->name, series->labels});
      bool first_point = true;
      for (const AggPoint& point : scratch) {
        if (point.t_last_ns < cutoff) continue;
        if (!first_point) out += ", ";
        first_point = false;
        out += util::format(
            "{\"t_unix_ms\": %lld, \"t_first_unix_ms\": %lld, "
            "\"min\": %.12g, \"max\": %.12g, \"sum\": %.12g, "
            "\"count\": %" PRIu64 ", \"mean\": %.12g}",
            static_cast<long long>(to_unix_ms(point.t_last_ns)),
            static_cast<long long>(to_unix_ms(point.t_first_ns)), point.min,
            point.max, point.sum, point.count,
            point.count > 0 ? point.sum / static_cast<double>(point.count)
                            : 0.0);
      }
      out += "]}";
    }
  } else {
    std::vector<Point> scratch;
    for (const Series* series : matched) {
      series->raw.read(scratch);
      emit_header({series->name, series->labels});
      bool first_point = true;
      for (const Point& point : scratch) {
        if (point.t_ns < cutoff) continue;
        if (!first_point) out += ", ";
        first_point = false;
        out += util::format("{\"t_unix_ms\": %lld, \"value\": %.12g}",
                            static_cast<long long>(to_unix_ms(point.t_ns)),
                            point.value);
      }
      out += "]}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace causaliot::obs
