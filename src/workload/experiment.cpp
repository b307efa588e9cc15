#include "workload/experiment.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "util/seq_tracker.hpp"

namespace modcast::workload {

namespace {

/// Per-message admission timestamps + first-delivery tracking.
struct LatencyTracker {
  util::TimePoint window_start = 0;
  util::TimePoint window_end = 0;
  std::map<std::pair<util::ProcessId, std::uint64_t>, util::TimePoint>
      admitted_at;
  util::SampleSet latencies_ms;
  std::uint64_t unique_delivered_in_window = 0;
  util::SeqTracker first_delivery;

  void on_admit(util::ProcessId origin, std::uint64_t seq,
                util::TimePoint now) {
    admitted_at[{origin, seq}] = now;
  }

  void on_deliver(util::ProcessId origin, std::uint64_t seq,
                  util::TimePoint now) {
    if (!first_delivery.mark(origin, seq)) return;  // not the earliest
    if (now >= window_start && now < window_end) {
      ++unique_delivered_in_window;
    }
    auto it = admitted_at.find({origin, seq});
    if (it == admitted_at.end()) return;
    const util::TimePoint t0 = it->second;
    admitted_at.erase(it);
    if (t0 >= window_start && t0 < window_end) {
      latencies_ms.add(util::to_milliseconds(now - t0));
    }
  }
};

}  // namespace

RunResult run_once(std::size_t n, const core::StackOptions& stack,
                   const WorkloadConfig& workload, std::uint64_t seed,
                   const runtime::CpuCostModel& cpu,
                   const sim::NetworkConfig& net) {
  core::SimGroupConfig gc;
  gc.n = n;
  gc.stack = stack;
  gc.cpu = cpu;
  gc.net = net;
  gc.seed = seed;
  gc.record_deliveries = false;
  gc.safety_check = workload.safety_check;
  gc.collect_metrics = workload.collect_metrics;
  core::SimGroup group(gc);
  auto& world = group.world();
  auto& sim = world.simulator();

  auto tracker = std::make_unique<LatencyTracker>();
  tracker->window_start = workload.warmup;
  tracker->window_end = workload.warmup + workload.measure;
  const util::TimePoint end_time = tracker->window_end;

  // Per-process delivery counters for the throughput metric.
  std::vector<std::uint64_t> delivered_in_window(n, 0);

  // Observers ride on the group-owned handlers, so the online safety
  // checker (when enabled) sees the identical event stream.
  group.set_admit_observer([&](util::ProcessId p, std::uint64_t seq) {
    tracker->on_admit(p, seq, world.now());
  });
  group.set_deliver_observer([&](util::ProcessId p, util::ProcessId origin,
                                 std::uint64_t seq, const util::Bytes&) {
    const util::TimePoint now = world.now();
    if (now >= tracker->window_start && now < tracker->window_end) {
      ++delivered_in_window[p];
    }
    tracker->on_deliver(origin, seq, now);
  });

  // Symmetric constant-rate generators: process p attempts an abcast every
  // n/offered seconds, phase-staggered so attempts do not collide.
  const double per_process_rate = workload.offered_load / static_cast<double>(n);
  const auto period = static_cast<util::Duration>(
      static_cast<double>(util::kSecond) / per_process_rate);
  util::Rng phase_rng(seed ^ 0xabcdef12345ULL);

  struct Generator {
    util::ProcessId p;
    util::Duration period;
  };
  // Recursive generator events. The payload is zero-filled: content does not
  // matter, size does.
  std::function<void(util::ProcessId)> tick = [&](util::ProcessId p) {
    auto& proc = group.process(p);
    if (proc.queued() < workload.block_threshold) {
      proc.abcast(util::Bytes(workload.message_size, 0));
    }
    const util::TimePoint next = world.now() + period;
    if (next < end_time) {
      sim.at(next, [&tick, p] { tick(p); });
    }
  };
  for (util::ProcessId p = 0; p < n; ++p) {
    const auto phase = static_cast<util::Duration>(
        phase_rng.uniform(static_cast<std::uint64_t>(period)));
    sim.at(phase, [&tick, p] { tick(p); });
  }

  group.start();

  // Snapshot window baselines at warmup end.
  struct Baseline {
    std::uint64_t proto_msgs = 0;
    std::uint64_t proto_bytes = 0;
    std::uint64_t instances = 0;
    std::uint64_t delivered_msgs = 0;
  };
  Baseline base;
  auto protocol_traffic = [&] {
    std::pair<std::uint64_t, std::uint64_t> t{0, 0};
    for (util::ProcessId p = 0; p < n; ++p) {
      auto& st = group.process(p).stack();
      for (framework::ModuleId mid :
           {framework::kModAbcast, framework::kModConsensus,
            framework::kModRbcast, framework::kModMonolithic}) {
        t.first += st.wire_counters(mid).messages_sent;
        t.second += st.wire_counters(mid).bytes_sent;
      }
    }
    return t;
  };
  auto total_instances = [&] {
    std::uint64_t total = 0;
    for (util::ProcessId p = 0; p < n; ++p) {
      total += group.process(p).stats().instances_completed;
    }
    return total;
  };
  auto total_in_decisions = [&] {
    std::uint64_t total = 0;
    for (util::ProcessId p = 0; p < n; ++p) {
      total += group.process(p).stats().messages_in_decisions;
    }
    return total;
  };

  sim.at(workload.warmup, [&] {
    for (util::ProcessId p = 0; p < n; ++p) world.cpu(p).mark_window();
    auto t = protocol_traffic();
    base.proto_msgs = t.first;
    base.proto_bytes = t.second;
    base.instances = total_instances();
    base.delivered_msgs = total_in_decisions();
  });

  group.run_until(end_time);

  RunResult result;
  result.offered = workload.offered_load;
  result.latencies_ms = std::move(tracker->latencies_ms);
  result.unique_delivered = tracker->unique_delivered_in_window;

  const double measure_s = util::to_seconds(workload.measure);
  double rate_sum = 0.0;
  for (util::ProcessId p = 0; p < n; ++p) {
    rate_sum += static_cast<double>(delivered_in_window[p]) / measure_s;
  }
  result.throughput = rate_sum / static_cast<double>(n);

  double cpu_sum = 0.0;
  for (util::ProcessId p = 0; p < n; ++p) {
    cpu_sum += world.cpu(p).window_utilization();
  }
  result.cpu_utilization = cpu_sum / static_cast<double>(n);

  const auto traffic = protocol_traffic();
  const std::uint64_t window_msgs = traffic.first - base.proto_msgs;
  const std::uint64_t window_bytes = traffic.second - base.proto_bytes;
  const std::uint64_t window_instances =
      (total_instances() - base.instances) / n;  // each counted at n procs
  const std::uint64_t window_decided =
      (total_in_decisions() - base.delivered_msgs) / n;
  result.instances = window_instances;
  if (window_instances > 0) {
    result.avg_batch = static_cast<double>(window_decided) /
                       static_cast<double>(window_instances);
    result.msgs_per_consensus = static_cast<double>(window_msgs) /
                                static_cast<double>(window_instances);
    result.bytes_per_consensus = static_cast<double>(window_bytes) /
                                 static_cast<double>(window_instances);
  }
  if (result.unique_delivered > 0) {
    result.protocol_msgs_per_abcast =
        static_cast<double>(window_msgs) /
        static_cast<double>(result.unique_delivered);
    result.protocol_bytes_per_abcast =
        static_cast<double>(window_bytes) /
        static_cast<double>(result.unique_delivered);
  }
  result.sim_state_bytes =
      sim.queue_state_bytes() + world.network().state_bytes();
  result.peak_pending_events = sim.peak_pending_events();
  result.peak_in_flight_msgs = world.network().peak_in_flight();
  if (workload.collect_metrics) result.metrics = group.collect_metrics();
  if (workload.safety_check) {
    // Online invariants only: the run is chopped at a deadline with
    // messages legitimately still in flight, so the end-of-run agreement
    // check (checker finalize) would flag the cut itself. The campaign
    // runner, which drains before judging, runs the full finalize.
    auto report = group.checker()->report();
    result.safety_ok = report.ok;
    result.safety_violations = std::move(report.violations);
  }
  return result;
}

AggregateResult aggregate_runs(const std::vector<RunResult>& runs) {
  util::StreamingStats latency;
  util::StreamingStats throughput;
  AggregateResult agg;
  double batch = 0, util_cpu = 0, mpa = 0, bpa = 0, mpc = 0, bpc = 0;
  for (const RunResult& r : runs) {
    if (r.latencies_ms.count() > 0) latency.add(r.latencies_ms.mean());
    throughput.add(r.throughput);
    batch += r.avg_batch;
    util_cpu += r.cpu_utilization;
    mpa += r.protocol_msgs_per_abcast;
    bpa += r.protocol_bytes_per_abcast;
    mpc += r.msgs_per_consensus;
    bpc += r.bytes_per_consensus;
    agg.metrics += r.metrics;
    agg.sim_state_bytes = std::max(agg.sim_state_bytes, r.sim_state_bytes);
    agg.peak_pending_events =
        std::max(agg.peak_pending_events, r.peak_pending_events);
    agg.peak_in_flight_msgs =
        std::max(agg.peak_in_flight_msgs, r.peak_in_flight_msgs);
  }
  const double k = runs.empty() ? 1.0 : static_cast<double>(runs.size());
  agg.latency_ms = util::confidence_95(latency);
  agg.throughput = util::confidence_95(throughput);
  agg.avg_batch = batch / k;
  agg.cpu_utilization = util_cpu / k;
  agg.protocol_msgs_per_abcast = mpa / k;
  agg.protocol_bytes_per_abcast = bpa / k;
  agg.msgs_per_consensus = mpc / k;
  agg.bytes_per_consensus = bpc / k;
  return agg;
}

AggregateResult run_experiment(std::size_t n, const core::StackOptions& stack,
                               const WorkloadConfig& workload,
                               std::size_t seeds, std::uint64_t base_seed,
                               const runtime::CpuCostModel& cpu,
                               const sim::NetworkConfig& net) {
  std::vector<RunResult> runs;
  runs.reserve(seeds);
  for (std::size_t s = 0; s < seeds; ++s) {
    runs.push_back(run_once(n, stack, workload, base_seed + s * 7919, cpu, net));
  }
  return aggregate_runs(runs);
}

}  // namespace modcast::workload
