// The benchmark's workloads. Each one simulates its traces, trains the
// model, builds a fleet and measures it; they differ in which of those
// stages carries the load (see METRICS.md).
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

std::vector<std::string> workload_names();

/// Mining threads of the workload's train runs: train-contextact mines
/// with a fixed four (fewer on a smaller host); the serving workloads train
/// their ~0.2 s served model on one thread, where a pool's start-up and
/// scheduling would be a visible share of the job.
std::size_t mining_threads(const std::string& workload);

Result run_workload(const Options& options);

}  // namespace perfbench
