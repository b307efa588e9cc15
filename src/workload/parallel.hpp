// The one worker pool behind the parallel sweep and campaign runners.
//
// Both runners flatten their grid into independent tasks with preassigned
// result slots, so the only shared state is the task index. parallel_for
// owns that pattern — job-count resolution, the atomic task index and the
// thread pool — in one place, and it is the only code in the determinism
// scope that starts threads.
#pragma once

#include <cstddef>
#include <functional>

namespace modcast::workload {

/// Calls fn(i) exactly once for every i in [0, count). jobs = 0 picks the
/// hardware concurrency; jobs <= 1 (or a single task) runs inline on the
/// calling thread in index order. Otherwise min(jobs, count) workers claim
/// indices from one atomic counter and are joined before this returns, so
/// fn must touch only per-index state. Results are independent of jobs
/// whenever fn(i) depends on i alone.
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace modcast::workload
