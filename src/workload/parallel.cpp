#include "workload/parallel.hpp"

#include <algorithm>
#include <atomic>
// modcheck:allow(det.thread): this IS the sweep/campaign worker pool: each task simulates single-threaded with its own seed; threads only partition independent tasks whose results land in per-task slots
#include <thread>
#include <vector>

namespace modcast::workload {

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  // modcheck:allow(det.thread): jobs=0 asks for all cores explicitly; the task list, not the pool size, determines the results
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  jobs = std::min(jobs, count);

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      fn(i);
    }
  };

  if (jobs <= 1) {
    worker();
    return;
  }
  // modcheck:allow(det.thread): worker pool joins before any result is read.
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
}

}  // namespace modcast::workload
