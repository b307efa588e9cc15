#include "workload/sweep.hpp"

#include "workload/parallel.hpp"

namespace modcast::workload {

std::vector<AggregateResult> run_sweep(const std::vector<SweepPoint>& points,
                                       std::size_t jobs) {
  // Flatten to (point, seed) tasks with preassigned result slots: workers
  // race only on the task index, never on the results.
  struct Task {
    std::size_t point;
    std::size_t seed;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<RunResult>> runs(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    runs[i].resize(points[i].seeds);
    for (std::size_t s = 0; s < points[i].seeds; ++s) {
      tasks.push_back(Task{i, s});
    }
  }

  parallel_for(tasks.size(), jobs, [&](std::size_t t) {
    const SweepPoint& pt = points[tasks[t].point];
    runs[tasks[t].point][tasks[t].seed] =
        run_once(pt.n, pt.stack, pt.workload,
                 pt.base_seed + tasks[t].seed * 7919, pt.cpu, pt.net);
  });

  std::vector<AggregateResult> out;
  out.reserve(points.size());
  for (const auto& point_runs : runs) {
    out.push_back(aggregate_runs(point_runs));
  }
  return out;
}

}  // namespace modcast::workload
