// Simulator workloads: one SimWorld per run, single-threaded.
#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <memory>

#include "channel/reliable_channel.hpp"
#include "faults/safety_checker.hpp"
#include "framework/event.hpp"
#include "gate.hpp"
#include "probes.hpp"
#include "runs.hpp"
#include "runtime/sim_world.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): independent streams per purpose.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::array<framework::ModuleId, 5> kModules = {
    framework::kModAbcast, framework::kModConsensus, framework::kModRbcast,
    framework::kModFd, framework::kModMonolithic};
constexpr std::array<const char*, 5> kModuleNames = {
    "abcast", "consensus", "rbcast", "fd", "monolithic"};

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Library counters of one process at one instant.
struct ProcSnap {
  std::uint64_t local_events = 0;
  std::uint64_t wire_deliveries = 0;
  std::array<std::uint64_t, 5> mod_msgs{};
  std::array<std::uint64_t, 5> mod_bytes{};
  std::uint64_t instances = 0;
  std::uint64_t in_decisions = 0;
  std::uint64_t late = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
};

struct Proc {
  std::unique_ptr<channel::ReliableChannel> channel;
  std::unique_ptr<channel::ChanneledRuntime> channel_rt;
  std::unique_ptr<TracedRuntime> traced_rt;
  std::unique_ptr<core::AbcastProcess> process;
  std::unique_ptr<TracedProtocol> stack_shim;
  std::unique_ptr<TracedProtocol> channel_shim;
};

ProcSnap snap(Proc& pr) {
  ProcSnap s;
  auto& st = pr.process->stack();
  s.local_events = st.counters().local_events;
  s.wire_deliveries = st.counters().wire_deliveries;
  for (std::size_t i = 0; i < kModules.size(); ++i) {
    s.mod_msgs[i] = st.wire_counters(kModules[i]).messages_sent;
    s.mod_bytes[i] = st.wire_counters(kModules[i]).bytes_sent;
  }
  const auto stats = pr.process->stats();
  s.instances = stats.instances_completed;
  s.in_decisions = stats.messages_in_decisions;
  s.late = stats.late_decisions;
  if (pr.channel) {
    s.retransmits = pr.channel->stats().retransmissions;
    s.acks = pr.channel->stats().acks_sent;
  }
  return s;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace

StackRun run_sim(const WorkloadSpec& w, const RunOptions& o) {
  const double t_start = wall_s();
  const std::size_t n = w.n;
  StackRun r;
  r.kind = o.kind;
  r.traced = o.traced;

  runtime::SimWorldConfig wc;
  wc.n = n;
  wc.event_shards = w.event_shards;
  wc.seed = derive_seed(o.seed, 1);
  runtime::SimWorld world(wc);
  auto& sim = world.simulator();
  const bool lossy = w.frame_loss > 0.0;
  if (lossy) world.network().set_drop_probability(w.frame_loss);
  std::unique_ptr<faults::SafetyChecker> checker;
  if (lossy) checker = std::make_unique<faults::SafetyChecker>(n);
  Probe probe(n);

  core::StackOptions options = w.stack;
  options.kind = o.kind;

  const util::TimePoint window_start = w.warmup;
  const util::TimePoint window_end = w.warmup + w.measure;

  // Per-message bookkeeping, indexed [origin][seq] (seqs are dense).
  std::vector<DeliveryLog> logs(n);
  std::vector<std::vector<std::uint64_t>> seqs(n);
  std::vector<std::vector<util::TimePoint>> admit_at(n);
  std::vector<std::vector<util::TimePoint>> first_at(n);
  std::vector<util::TimePoint> first_times;  // commit instants, in order
  std::vector<util::TimePoint> refused_due;
  std::vector<std::uint64_t> delivered_in_window(n, 0);

  auto slot = [](std::vector<util::TimePoint>& v, std::uint64_t seq) -> auto& {
    if (v.size() <= seq) v.resize(seq + 1, -1);
    return v[seq];
  };

  std::vector<Proc> procs(n);
  for (util::ProcessId p = 0; p < n; ++p) {
    Proc& pr = procs[p];
    runtime::Runtime* rt = &world.runtime(p);
    if (lossy) {
      pr.channel = std::make_unique<channel::ReliableChannel>(*rt);
      pr.channel_rt =
          std::make_unique<channel::ChanneledRuntime>(*rt, *pr.channel);
      rt = pr.channel_rt.get();
    }
    if (o.traced) {
      pr.traced_rt = std::make_unique<TracedRuntime>(*rt, probe);
      rt = pr.traced_rt.get();
    }
    pr.process = std::make_unique<core::AbcastProcess>(*rt, options);
    pr.process->set_deliver_handler(
        [&, p](util::ProcessId origin, std::uint64_t seq, const util::Bytes&) {
          spans::Scope span(SpanKind::kAppDeliver);
          span.tag(origin, seq);
          const util::TimePoint now = world.now();
          logs[p].push_back(MsgId{origin, seq});
          if (checker) {
            spans::Scope c(SpanKind::kFaultsChecker);
            checker->on_deliver(p, origin, seq, now);
          }
          if (now >= window_start && now < window_end) ++delivered_in_window[p];
          auto& first = slot(first_at[origin], seq);
          if (first < 0) {
            first = now;
            first_times.push_back(now);
          }
        });
    pr.process->set_admit_handler([&, p](std::uint64_t seq) {
      slot(admit_at[p], seq) = world.now();
      if (checker) {
        spans::Scope c(SpanKind::kFaultsChecker);
        checker->on_admit(p, seq, world.now());
      }
    });
    runtime::Protocol* top = &pr.process->protocol();
    if (o.traced) {
      pr.process->stack().set_tracer(module_span_sink());
      pr.stack_shim = std::make_unique<TracedProtocol>(
          *top, SpanKind::kStackOnMessage, *rt, &probe);
      top = pr.stack_shim.get();
    }
    if (pr.channel) {
      pr.channel->set_upper(top);
      top = pr.channel.get();
      if (o.traced) {
        pr.channel_shim = std::make_unique<TracedProtocol>(
            *top, SpanKind::kChannelOnMessage, world.runtime(p), nullptr);
        top = pr.channel_shim.get();
      }
    }
    world.attach(p, top);
  }

  // Open-loop generators: process p's k-th attempt is due at a seeded
  // uniform point of its k-th period, so each process offers exactly its
  // share of the load while the instants vary with the seed.
  const double period_ns =
      static_cast<double>(util::kSecond) * static_cast<double>(n) /
      w.offered_load;
  std::vector<util::Rng> gen_rng;
  for (util::ProcessId p = 0; p < n; ++p) {
    gen_rng.emplace_back(derive_seed(o.seed, 100 + p));
  }
  std::vector<std::uint64_t> slots(n, 0);
  auto next_due = [&](util::ProcessId p) {
    const double k = static_cast<double>(slots[p]++);
    return static_cast<util::TimePoint>((k + gen_rng[p].uniform_double()) *
                                        period_ns);
  };
  std::function<void(util::ProcessId)> tick = [&](util::ProcessId p) {
    if (world.crashed(p)) return;
    const util::TimePoint due = world.now();
    ++r.ops;
    auto& proc = *procs[p].process;
    if (proc.queued() >= kBlockThreshold) {
      refused_due.push_back(due);
    } else {
      spans::Scope span(SpanKind::kCoreAbcast);
      const std::uint64_t seq = proc.abcast(util::Bytes(w.payload_bytes, 0));
      span.tag(p, seq);
      seqs[p].push_back(seq);
    }
    const util::TimePoint next = next_due(p);
    if (next < window_end) sim.at(next, [&tick, p] { tick(p); }, p);
  };
  for (util::ProcessId p = 0; p < n; ++p) {
    sim.at(next_due(p), [&tick, p] { tick(p); }, p);
  }

  std::vector<util::TimePoint> crash_times;
  for (const Crash& c : w.crashes) {
    sim.at(c.at, [&, c] {
      if (checker) {
        spans::Scope span(SpanKind::kFaultsChecker);
        checker->on_crash(c.process, world.now());
      }
      world.crash(c.process);
      crash_times.push_back(world.now());
    });
  }
  std::function<void()> watchdog = [&] {
    {
      spans::Scope span(SpanKind::kFaultsChecker);
      checker->on_watchdog_tick(world.now());
    }
    sim.after(util::milliseconds(500), [&watchdog] { watchdog(); });
  };
  if (checker) sim.after(util::milliseconds(500), [&watchdog] { watchdog(); });

  auto run_to = [&](util::TimePoint t) {
    spans::Scope span(SpanKind::kSimRunUntil);
    return sim.run_until(t);
  };

  world.start();
  run_to(window_start);

  // --- measured window ----------------------------------------------------
  r.setup_s = wall_s() - t_start;
  std::vector<ProcSnap> open_snap;
  for (auto& pr : procs) open_snap.push_back(snap(pr));
  for (util::ProcessId p = 0; p < n; ++p) world.cpu(p).mark_window();
  const auto probe_open = probe.total();
  if (o.traced) spans::set_recording(true);
  const double cpu_open = process_cpu_s();
  const std::uint64_t window_events = run_to(window_end);
  r.cpu_s = process_cpu_s() - cpu_open;
  spans::set_recording(false);
  if (o.traced) {
    r.spans = spans::reduce();
    spans::reset();
  }
  const auto probe_close = probe.total();
  std::vector<ProcSnap> close_snap;
  for (auto& pr : procs) close_snap.push_back(snap(pr));
  double util_sum = 0.0;
  std::size_t live = 0;
  for (util::ProcessId p = 0; p < n; ++p) {
    if (world.crashed(p)) continue;
    util_sum += world.cpu(p).window_utilization();
    ++live;
  }
  const double peak_pending = static_cast<double>(sim.peak_pending_events());
  const double state_bytes = static_cast<double>(
      sim.queue_state_bytes() + world.network().state_bytes());

  // --- drain: generators have stopped; wait for every correct-origin
  // message to reach every correct process ---------------------------------
  std::vector<bool> correct(n);
  std::uint64_t correct_issued = 0;
  auto drained = [&] {
    for (util::ProcessId p = 0; p < n; ++p) {
      if (!correct[p]) continue;
      std::uint64_t got = 0;
      for (const MsgId& m : logs[p]) got += correct[m.origin] ? 1 : 0;
      if (got != correct_issued) return false;
    }
    return true;
  };
  for (util::ProcessId p = 0; p < n; ++p) correct[p] = !world.crashed(p);
  for (util::ProcessId p = 0; p < n; ++p) {
    if (correct[p]) correct_issued += seqs[p].size();
  }
  while (!drained() && world.now() < window_end + kDrainLimit) {
    sim.run_until(world.now() + util::milliseconds(100));
  }
  const util::TimePoint end = world.now();

  // --- gate ----------------------------------------------------------------
  GateInput gate{logs, seqs, correct, true};
  r.violation = check_contract(gate);
  if (checker && r.violation.empty()) {
    const auto report = checker->finalize(end);
    if (!report.ok) {
      r.violation = "SafetyChecker: " + (report.violations.empty()
                                             ? std::string("violation")
                                             : report.violations.front());
    }
  }
  for (const auto& log : logs) r.digests.push_back(log_digest(log));

  // --- workload-clock metrics ----------------------------------------------
  for (util::ProcessId origin = 0; origin < n; ++origin) {
    for (std::uint64_t seq : seqs[origin]) {
      const util::TimePoint f =
          seq < first_at[origin].size() ? first_at[origin][seq] : -1;
      const util::TimePoint a =
          seq < admit_at[origin].size() ? admit_at[origin][seq] : -1;
      if (f < 0) {
        if (correct[origin]) {
          ++r.undelivered;
        } else {
          ++r.lost_at_crashed;
        }
      } else if (f >= window_start && f < window_end) {
        ++r.unique_in_window;
      }
      if (a < window_start || a >= window_end) continue;
      if (f >= 0) {
        r.latencies_ms.push_back(util::to_milliseconds(f - a));
      } else if (correct[origin]) {
        // Never delivered: it misses every latency limit; its lower bound
        // is the time until the run ended.
        r.latencies_ms.push_back(util::to_milliseconds(end - a));
      }
    }
  }
  for (util::TimePoint due : refused_due) {
    ++r.refused;
    if (due >= window_start && due < window_end) {
      r.latencies_ms.push_back(util::to_milliseconds(end - due));
    }
  }
  double delivered_sum = 0.0;
  std::size_t n_correct = 0;
  for (util::ProcessId p = 0; p < n; ++p) {
    if (!correct[p]) continue;
    delivered_sum += static_cast<double>(delivered_in_window[p]);
    ++n_correct;
  }
  r.throughput = delivered_sum / static_cast<double>(n_correct) /
                 util::to_seconds(w.measure);
  for (util::TimePoint tc : crash_times) {
    auto it = std::upper_bound(first_times.begin(), first_times.end(), tc);
    const util::TimePoint next = it == first_times.end() ? end : *it;
    r.outages_ms.push_back(util::to_milliseconds(next - tc));
  }

  // --- per-layer counts ------------------------------------------------------
  const double unique = static_cast<double>(r.unique_in_window);
  ProcSnap all, cor;  // window deltas over all / correct processes
  for (util::ProcessId p = 0; p < n; ++p) {
    const ProcSnap& a = open_snap[p];
    const ProcSnap& b = close_snap[p];
    all.local_events += b.local_events - a.local_events;
    all.wire_deliveries += b.wire_deliveries - a.wire_deliveries;
    for (std::size_t i = 0; i < kModules.size(); ++i) {
      all.mod_msgs[i] += b.mod_msgs[i] - a.mod_msgs[i];
      all.mod_bytes[i] += b.mod_bytes[i] - a.mod_bytes[i];
    }
    all.retransmits += b.retransmits - a.retransmits;
    all.acks += b.acks - a.acks;
    if (!correct[p]) continue;
    cor.instances += b.instances - a.instances;
    cor.in_decisions += b.in_decisions - a.in_decisions;
    cor.late += b.late - a.late;
  }
  auto& c = r.counts;
  c["sim.events_per_msg"] = ratio(static_cast<double>(window_events), unique);
  c["sim.peak_pending_events"] = peak_pending;
  c["sim.state_bytes"] = state_bytes;
  c["sim.cpu_util"] = ratio(util_sum, static_cast<double>(live));
  c["framework.local_events_per_msg"] =
      ratio(static_cast<double>(all.local_events), unique);
  c["framework.wire_deliveries_per_msg"] =
      ratio(static_cast<double>(all.wire_deliveries), unique);
  for (std::size_t i = 0; i < kModules.size(); ++i) {
    const std::string m = kModuleNames[i];
    c[m + ".msgs_per_msg"] = ratio(static_cast<double>(all.mod_msgs[i]), unique);
    c[m + ".bytes_per_msg"] =
        ratio(static_cast<double>(all.mod_bytes[i]), unique);
  }
  c["adb.msgs_per_batch"] = ratio(static_cast<double>(cor.in_decisions),
                                  static_cast<double>(cor.instances));
  c["consensus.instances_per_msg"] =
      ratio(static_cast<double>(cor.instances) / static_cast<double>(n_correct),
            unique);
  c["consensus.late_decision_frac"] =
      ratio(static_cast<double>(cor.late), static_cast<double>(cor.instances));
  c["channel.retransmits_per_msg"] =
      ratio(static_cast<double>(all.retransmits), unique);
  c["channel.acks_per_msg"] = ratio(static_cast<double>(all.acks), unique);
  double outage_sum = 0.0;
  for (double x : r.outages_ms) outage_sum += x;
  c["outage_ms"] = ratio(outage_sum, static_cast<double>(r.outages_ms.size()));

  if (o.traced) {
    auto& pc = r.probe_counts;
    pc["runtime.sends_per_msg"] =
        ratio(static_cast<double>(probe_close.sends - probe_open.sends), unique);
    pc["runtime.timer_arms_per_msg"] = ratio(
        static_cast<double>(probe_close.timer_arms - probe_open.timer_arms),
        unique);
    pc["runtime.timer_cancels_per_msg"] =
        ratio(static_cast<double>(probe_close.timer_cancels -
                                  probe_open.timer_cancels),
              unique);
    pc["runtime.delivery_wait_ms.p50"] = percentile(probe_close.wait_ms, 50);
    pc["runtime.delivery_wait_ms.p99"] = percentile(probe_close.wait_ms, 99);
  }
  return r;
}

}  // namespace perfbench
