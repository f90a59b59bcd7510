// perfbench: the end-to-end benchmark of the causaliot library.
//
//   perfbench --workload serve-fleet --seed 3 --seconds 20 --trace 0
//
// Runs one workload (train-contextact | serve-fleet | ingest-churn) and
// prints, as its last stdout line, one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The line before it carries the run's provenance; details go to stderr.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/log.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke 1] [--corrupt-reference 1] "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc{} ? std::string(buffer, end) : "null";
}

void print_metrics(const std::vector<Result::Metric>& metrics, bool& first) {
  for (const Result::Metric& metric : metrics) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                first ? "" : ", ", metric.name.c_str(),
                json_number(metric.value).c_str(), metric.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage(("bad argument " + flag).c_str());
    }
    const std::string value = argv[++i];
    seen.insert(flag);
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--smoke") {
      options.smoke = value != "0";
    } else if (flag == "--corrupt-reference") {
      options.corrupt_reference = value != "0";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds"}) {
    if (seen.count(required) == 0) {
      return usage((std::string("missing ") + required).c_str());
    }
  }
  const auto names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) ==
      names.end()) {
    return usage(("unknown workload " + options.workload).c_str());
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to report numbers from an unoptimised "
               "build (CMAKE_BUILD_TYPE=%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  causaliot::util::set_log_level(causaliot::util::LogLevel::kWarn);
  std::error_code ignored;
  std::filesystem::create_directories(options.work_dir, ignored);
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"smoke\": %d, \"nproc\": %u, "
      "\"mining_threads\": %zu, \"simd_backend\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"}}\n",
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed),
      json_number(options.seconds).c_str(), options.trace ? 1 : 0,
      options.smoke ? 1 : 0, std::thread::hardware_concurrency(),
      mining_threads(options.workload),
      std::string(causaliot::stats::simd::backend_name(
                      causaliot::stats::simd::chosen()))
          .c_str(),
      PERFBENCH_BUILD_TYPE, __VERSION__);
  std::fflush(stdout);

  Result result;
  try {
    result = run_workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  for (const std::string& line : result.details) {
    std::fprintf(stderr, "  %s\n", line.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  print_metrics(options.trace ? result.per_layer : result.end_to_end, first);
  std::printf("}}\n");
  return 0;
}
