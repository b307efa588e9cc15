#include "workload/campaign.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "core/sim_group.hpp"
#include "workload/fault_injector.hpp"
#include "workload/parallel.hpp"
#include "util/rng.hpp"

namespace modcast::workload {

core::StackOptions CampaignConfig::campaign_stack_defaults() {
  core::StackOptions s;
  // Fast failure detection so a crash scenario suspects, recovers, and
  // reaches steady state again well inside one run.
  s.fd.heartbeat_interval = util::milliseconds(25);
  s.fd.timeout = util::milliseconds(150);
  s.flow.liveness_timeout = util::milliseconds(250);
  return s;
}

core::StackOptions CampaignConfig::campaign_batched_stack_defaults() {
  core::StackOptions s = campaign_stack_defaults();
  s.flow.window = 8;
  s.flow.max_batch = 16;
  s.flow.batch_delay = util::microseconds(500);
  s.flow.pipeline_depth = 4;
  return s;
}

std::vector<faults::FaultSchedule> standard_fault_schedules(std::size_t n) {
  using namespace faults;
  const auto ms = [](std::int64_t v) { return util::milliseconds(v); };
  const util::ProcessId last = static_cast<util::ProcessId>(n - 1);
  const std::size_t f = (n - 1) / 2;

  std::vector<FaultSchedule> out;
  auto add = [&out](std::string name) -> FaultSchedule& {
    out.emplace_back();
    out.back().name = std::move(name);
    return out.back();
  };

  add("baseline");  // fault-free control

  add("coord-crash-early").crashes.push_back({0, ms(250)});
  add("coord-crash-late").crashes.push_back({0, ms(1200)});
  add("coord-crash-inst5").instance_crashes.push_back({0, 5});
  add("noncoord-crash").crashes.push_back({last, ms(400)});

  {
    // Up to f crash-stops, staggered, starting with the coordinator: the
    // worst crash pattern the contract still covers.
    auto& s = add("max-crashes");
    for (std::size_t i = 0; i < f; ++i) {
      s.crashes.push_back({static_cast<util::ProcessId>(i),
                           ms(400 + static_cast<std::int64_t>(i) * 300)});
    }
  }

  add("partition-minority-heal")
      .partitions.push_back({{last}, ms(400), ms(1100)});
  add("partition-coord-heal").partitions.push_back({{0}, ms(400), ms(1100)});

  add("drop-global").drop_windows.push_back({ms(300), ms(1300), 0.05});
  add("drop-to-coord")
      .drop_windows.push_back({ms(300), ms(1300), 0.20, kAnyProcess, 0});

  add("churn-coord")
      .suspicions.push_back({ms(400), kAnyProcess, 0, 4, ms(200)});

  {
    // Wrong suspicions walking across the group.
    auto& s = add("churn-rotating");
    for (std::size_t i = 0; i < 3; ++i) {
      s.suspicions.push_back(
          {ms(350 + static_cast<std::int64_t>(i) * 300), kAnyProcess,
           static_cast<util::ProcessId>(i % n), 1, ms(100)});
    }
  }

  {
    // Isolate the last process, then crash the coordinator mid-cut: for a
    // stretch no majority of connected processes exists, so progress must
    // pause and resume cleanly at the heal.
    auto& s = add("crash-during-partition");
    s.partitions.push_back({{last}, ms(400), ms(1000)});
    s.crashes.push_back({0, ms(600)});
  }

  {
    auto& s = add("churn-then-crash");
    s.suspicions.push_back({ms(300), kAnyProcess, 0, 2, ms(150)});
    s.crashes.push_back({0, ms(800)});
  }

  return out;
}

ScenarioResult run_scenario(const CampaignConfig& config,
                            const faults::FaultSchedule& schedule,
                            core::StackKind kind) {
  const std::size_t n = config.n;

  core::SimGroupConfig gc;
  gc.n = n;
  gc.stack = config.stack;
  gc.stack.kind = kind;
  gc.seed = config.seed;
  gc.record_deliveries = false;
  gc.safety_check = true;
  gc.safety = config.safety;
  // Drops and partitions lose messages outright, violating the
  // quasi-reliable channel assumption; restore it with the TCP-lite layer.
  gc.reliable_channels = schedule.needs_reliable_channels();
  gc.collect_metrics = true;
  core::SimGroup group(gc);
  auto& world = group.world();
  auto& sim = world.simulator();

  ScenarioResult result;
  result.name = schedule.name;
  result.summary = schedule.summary();
  result.kind = kind;
  result.n = n;

  workload::FaultInjector injector(group, schedule);
  util::TimePoint first_fault = 0;
  injector.set_fault_listener(
      [&](util::TimePoint at, const std::string& what) {
        if (first_fault == 0 || at < first_fault) first_fault = at;
        result.fault_log.push_back(
            "t=" +
            std::to_string(
                static_cast<long long>(util::to_milliseconds(at))) +
            "ms " + what);
      });
  injector.arm();

  // Admission timestamps for the early-latency split (pre/post first fault).
  std::map<std::pair<util::ProcessId, std::uint64_t>, util::TimePoint>
      admitted_at;
  std::vector<std::pair<util::TimePoint, double>> latency_events;
  group.set_admit_observer([&](util::ProcessId p, std::uint64_t seq) {
    admitted_at[{p, seq}] = world.now();
  });
  group.set_deliver_observer([&](util::ProcessId, util::ProcessId origin,
                                 std::uint64_t seq, const util::Bytes&) {
    auto it = admitted_at.find({origin, seq});
    if (it == admitted_at.end()) return;  // already counted (first delivery)
    latency_events.emplace_back(
        it->second, util::to_milliseconds(world.now() - it->second));
    admitted_at.erase(it);
  });

  // Symmetric constant-rate generators, stopped at run_for; crashed senders
  // fall silent (their runtime no longer executes events).
  const double per_process =
      config.offered_load / static_cast<double>(n == 0 ? 1 : n);
  const auto period = static_cast<util::Duration>(
      static_cast<double>(util::kSecond) / per_process);
  util::Rng phase_rng(config.seed ^ 0xabcdef12345ULL);
  std::function<void(util::ProcessId)> tick = [&](util::ProcessId p) {
    if (group.crashed(p)) return;
    auto& proc = group.process(p);
    if (proc.queued() < config.block_threshold) {
      proc.abcast(util::Bytes(config.message_size, 0));
    }
    const util::TimePoint next = world.now() + period;
    if (next < config.run_for) sim.at(next, [&tick, p] { tick(p); });
  };
  for (util::ProcessId p = 0; p < n; ++p) {
    const auto phase = static_cast<util::Duration>(
        phase_rng.uniform(static_cast<std::uint64_t>(period)));
    sim.at(phase, [&tick, p] { tick(p); });
  }

  group.start();
  group.run_until(config.run_for + config.drain);

  result.metrics = group.collect_metrics();

  // Contract verdict: the run drained, so the full finalize (uniform
  // agreement among correct processes) applies.
  auto report = group.safety_report();
  result.safety_ok = report.ok;
  result.violations = std::move(report.violations);
  result.stalls = std::move(report.stalls);
  result.committed = report.committed;
  result.deliveries_checked = report.deliveries_checked;

  // First disturbance: actual fire time when the injector reported one,
  // else the schedule's static earliest (drop windows fire silently).
  if (first_fault == 0 && !schedule.empty()) {
    first_fault = schedule.first_fault_at();
  }
  result.first_fault_at = first_fault;

  for (const auto& [t0, lat_ms] : latency_events) {
    if (first_fault != 0 && t0 >= first_fault) {
      result.post_fault_latency_ms.add(lat_ms);
    } else {
      result.pre_fault_latency_ms.add(lat_ms);
    }
  }

  const auto* checker = group.checker();
  for (std::uint64_t k = 1; k < result.committed; ++k) {
    const double gap = util::to_milliseconds(checker->commit_time(k) -
                                             checker->commit_time(k - 1));
    result.max_gap_ms = std::max(result.max_gap_ms, gap);
  }
  if (first_fault != 0) {
    for (std::uint64_t k = 0; k < result.committed; ++k) {
      if (checker->commit_time(k) >= first_fault) {
        result.recovery_ms =
            util::to_milliseconds(checker->commit_time(k) - first_fault);
        break;
      }
    }
  }
  return result;
}

std::vector<ScenarioResult> run_campaign(
    const CampaignConfig& config,
    const std::vector<faults::FaultSchedule>& schedules,
    const std::vector<core::StackKind>& kinds, std::size_t jobs) {
  // Preassigned result slots: workers race only on the task index, so the
  // output is independent of the job count.
  struct Task {
    std::size_t schedule;
    std::size_t kind;
  };
  std::vector<Task> tasks;
  for (std::size_t s = 0; s < schedules.size(); ++s) {
    for (std::size_t k = 0; k < kinds.size(); ++k) tasks.push_back({s, k});
  }
  std::vector<ScenarioResult> results(tasks.size());

  parallel_for(tasks.size(), jobs, [&](std::size_t t) {
    results[t] = run_scenario(config, schedules[tasks[t].schedule],
                              kinds[tasks[t].kind]);
  });
  return results;
}

}  // namespace modcast::workload
