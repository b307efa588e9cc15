// The benchmark's workloads. perfbench/workloads.json documents the same
// settings, why each workload exists, and which end-to-end metric each
// per-layer metric should move on it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/abcast_process.hpp"
#include "aliases.hpp"

namespace perfbench {

struct Crash {
  util::ProcessId process;
  util::TimePoint at;  ///< virtual time
};

struct WorkloadSpec {
  std::string name;
  bool threads = false;  ///< ThreadWorld instead of the simulator
  std::size_t n = 3;
  std::size_t payload_bytes = 64;
  double offered_load = 100.0;  ///< msgs/s summed over all processes
  util::Duration warmup = util::seconds(1);   ///< virtual or real
  util::Duration measure = util::seconds(5);  ///< virtual or real
  core::StackOptions stack;  ///< kind is overridden per run

  // Simulator only.
  std::size_t event_shards = 1;
  /// Uniform frame loss. A lossy world runs the stacks over reliable
  /// channels (the protocols assume quasi-reliable links) and attaches the
  /// online SafetyChecker.
  double frame_loss = 0.0;
  std::vector<Crash> crashes;

  // Threads only: a run whose generator lag p99 exceeds this is invalid.
  double max_gen_lag_p99_ms = 0.0;
};

/// The generator refuses an attempt when this many messages already wait
/// for flow-control admission at its process.
inline constexpr std::size_t kBlockThreshold = 1024;
/// Longest wait, after the generators stop, for every message to arrive.
inline constexpr util::Duration kDrainLimit = util::seconds(10);

/// All workloads, gated ones (BENCHMARK.json) first.
const std::vector<WorkloadSpec>& all_workloads();
std::optional<WorkloadSpec> find_workload(const std::string& name);

}  // namespace perfbench
