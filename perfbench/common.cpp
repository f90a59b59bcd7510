#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "common.hpp"

namespace perfbench {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  if (size > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double current_rss_bytes() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int read = std::fscanf(file, "%lu %lu", &size, &resident);
  std::fclose(file);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

void Result::fail(std::uint64_t count, const std::string& why) {
  if (count == 0) return;
  correct = false;
  failed += count;
  detail("FAILED: " + why);
}

SpanLog::Scope SpanLog::open(std::string_view name) {
  if (!enabled_) return Scope(nullptr, 0);
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void SpanLog::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

void SpanLog::add_aggregate(std::string_view name, std::uint64_t count,
                            std::uint64_t total_ns) {
  if (!enabled_ || count == 0) return;
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = 0;
  span.end_ns = total_ns;
  span.count = count;
  spans_.push_back(std::move(span));
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    Totals& totals = out[spans_[i].name];
    totals.count += spans_[i].count;
    totals.total_ns += duration;
    totals.self_ns += duration - std::min(duration, child_ns[i]);
  }
  return out;
}

std::map<std::string, double> self_seconds_by_layer(
    const std::map<std::string, SpanLog::Totals>& totals) {
  std::map<std::string, double> out;
  for (const auto& [name, total] : totals) {
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += static_cast<double>(total.self_ns) / 1e9;
  }
  return out;
}

}  // namespace perfbench
