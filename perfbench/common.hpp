// Shared plumbing for the end-to-end benchmark: options, clocks, sample
// statistics, the result record every workload fills, and the span log
// the traced run uses to attribute time to the library's layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase (--seconds).
  double seconds = 10.0;
  /// --trace 1: per-layer run (spans, per-call timers, attribution passes).
  bool trace = false;
  /// --smoke 1: tiny sizes, for checking the harness itself.
  bool smoke = false;
  /// --corrupt-reference 1: flips one reference alarm so the alarm gate
  /// must report a mismatch (used by the smoke check).
  bool corrupt_reference = false;
  /// Scratch directory for saved DIG files (inside the checkout).
  std::string work_dir = ".";
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process (getrusage), in MB.
double peak_rss_mb();
/// Current resident set of this process (/proc/self/statm), in bytes.
double current_rss_bytes();

/// One workload run: the correctness tally, the metrics to print, and
/// human-readable detail lines for stderr.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> details;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string line) { details.push_back(std::move(line)); }
  /// Counts `count` failed operations and marks the run incorrect.
  void fail(std::uint64_t count, const std::string& why);
};

/// Spans recorded by the benchmark around its own calls into the
/// library: name, start, end and parent. One log per thread; spans nest
/// strictly (a child closes before its parent), so a span's self time is
/// its duration minus the sum of its children's. Kept in memory and
/// summarized when the run ends. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(SpanLog* log, std::size_t index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }

   private:
    SpanLog* log_;
    std::size_t index_;
  };

  /// Opens a span under the innermost open one; closes at scope exit.
  [[nodiscard]] Scope open(std::string_view name);

  /// Records `count` calls totalling `total_ns` as one aggregate child of
  /// the innermost open span — for per-event calls too fine to log one
  /// by one (submit, handle_line).
  void add_aggregate(std::string_view name, std::uint64_t count,
                     std::uint64_t total_ns);

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  /// Per span name: calls, total time and self time.
  std::map<std::string, Totals> totals() const;

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t count = 1;
    std::int64_t parent = -1;
  };
  void close(std::size_t index);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Sums self time per layer, where a span's layer is the part of its
/// name before the first '.' ("mining.mine" -> "mining").
std::map<std::string, double> self_seconds_by_layer(
    const std::map<std::string, SpanLog::Totals>& totals);

}  // namespace perfbench
