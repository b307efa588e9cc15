// Workload runs: assemble a world through the public API, run the
// seeded open-loop generator, measure the window, drain, and gate.
#pragma once

#include <cstdint>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunOptions {
  core::StackKind kind = core::StackKind::kModular;
  std::uint64_t seed = 1;
  bool traced = false;  ///< install the probes and record spans
};

/// Derives independent seeds for the world and each generator stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

StackRun run_sim(const WorkloadSpec& w, const RunOptions& o);
StackRun run_threads(const WorkloadSpec& w, const RunOptions& o);

inline StackRun run_workload(const WorkloadSpec& w, const RunOptions& o) {
  return w.threads ? run_threads(w, o) : run_sim(w, o);
}

}  // namespace perfbench
