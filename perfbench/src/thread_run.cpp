// Real-thread workload: one ThreadWorld per run; the calling thread is the
// open-loop generator and posts abcast calls round-robin.
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "gate.hpp"
#include "probes.hpp"
#include "runs.hpp"
#include "runtime/thread_world.hpp"

namespace perfbench {
namespace {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// State one process thread owns while the world runs; the generator reads
/// the atomics, everything else is read after stop() joined the thread.
struct ProcState {
  DeliveryLog log;
  std::vector<util::TimePoint> delivered_at;
  std::vector<std::uint64_t> seqs;
  std::vector<util::TimePoint> due;      ///< parallel to seqs
  std::vector<util::TimePoint> refused;  ///< due instants of refusals
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> tasks_done{0};
};

}  // namespace

StackRun run_threads(const WorkloadSpec& w, const RunOptions& o) {
  const double t_start = wall_s();
  const std::size_t n = w.n;
  StackRun r;
  r.kind = o.kind;
  r.traced = o.traced;

  Probe probe(n);
  core::StackOptions options = w.stack;
  options.kind = o.kind;
  std::vector<std::unique_ptr<ProcState>> state;
  for (std::size_t p = 0; p < n; ++p) state.push_back(std::make_unique<ProcState>());

  // Declared before the world so the world (and its threads) goes first.
  std::vector<std::unique_ptr<TracedRuntime>> traced_rt(n);
  std::vector<std::unique_ptr<core::AbcastProcess>> procs(n);
  std::vector<std::unique_ptr<TracedProtocol>> shims(n);
  runtime::ThreadWorld world(n, derive_seed(o.seed, 1));

  for (util::ProcessId p = 0; p < n; ++p) {
    runtime::Runtime* rt = &world.runtime(p);
    if (o.traced) {
      traced_rt[p] = std::make_unique<TracedRuntime>(*rt, probe);
      rt = traced_rt[p].get();
    }
    procs[p] = std::make_unique<core::AbcastProcess>(*rt, options);
    ProcState& st = *state[p];
    procs[p]->set_deliver_handler(
        [&st, &world](util::ProcessId origin, std::uint64_t seq,
                      const util::Bytes&) {
          spans::Scope span(SpanKind::kAppDeliver);
          span.tag(origin, seq);
          st.log.push_back(MsgId{origin, seq});
          st.delivered_at.push_back(world.now());
          st.delivered.fetch_add(1, std::memory_order_release);
        });
    runtime::Protocol* top = &procs[p]->protocol();
    if (o.traced) {
      procs[p]->stack().set_tracer(module_span_sink());
      shims[p] = std::make_unique<TracedProtocol>(
          *top, SpanKind::kStackOnMessage, *rt, &probe);
      top = shims[p].get();
    }
    world.attach(p, top);
  }
  world.start();

  // --- open-loop generator: the k-th attempt is due at a seeded uniform
  // point of the k-th period; targets go round-robin -------------------------
  util::Rng rng(derive_seed(o.seed, 100));
  const double period_ns = static_cast<double>(util::kSecond) / w.offered_load;
  const util::TimePoint origin = world.now();
  const util::TimePoint window_start = origin + w.warmup;
  const util::TimePoint window_end = window_start + w.measure;
  bool window_open = false;
  double cpu_open = 0.0;
  std::uint64_t posted = 0;
  for (;;) {
    const util::TimePoint due =
        origin + static_cast<util::TimePoint>(
                     (static_cast<double>(posted) + rng.uniform_double()) *
                     period_ns);
    if (!window_open && due >= window_start) {
      const util::TimePoint wait = window_start - world.now();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      r.setup_s = wall_s() - t_start;
      if (o.traced) spans::set_recording(true);
      cpu_open = process_cpu_s() - thread_cpu_s();
      window_open = true;
    }
    if (due >= window_end) break;
    const util::TimePoint wait = due - world.now();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    const util::TimePoint posted_at = world.now();
    if (due >= window_start) {
      r.gen_lag_ms.push_back(util::to_milliseconds(posted_at - due));
    }
    const auto p = static_cast<util::ProcessId>(posted % n);
    ++posted;
    spans::Scope span(SpanKind::kRuntimePost);
    world.post(p, [&w, &st = *state[p], &proc = *procs[p], due] {
      if (proc.queued() >= kBlockThreshold) {
        st.refused.push_back(due);
      } else {
        spans::Scope a(SpanKind::kCoreAbcast);
        const std::uint64_t seq = proc.abcast(util::Bytes(w.payload_bytes, 0));
        a.tag(proc.stack().self(), seq);
        st.seqs.push_back(seq);
        st.due.push_back(due);
      }
      st.tasks_done.fetch_add(1, std::memory_order_release);
    });
  }
  {
    const util::TimePoint wait = window_end - world.now();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
  r.cpu_s = process_cpu_s() - thread_cpu_s() - cpu_open;
  spans::set_recording(false);
  r.ops = posted;

  // --- drain: every posted task ran and every issued message was delivered
  // everywhere ---------------------------------------------------------------
  const util::TimePoint drain_end = world.now() + kDrainLimit;
  auto drained = [&] {
    std::uint64_t done = 0;
    for (const auto& st : state) done += st->tasks_done.load(std::memory_order_acquire);
    if (done != posted) return false;
    std::uint64_t refused = 0;
    for (const auto& st : state) refused += st->refused.size();
    for (const auto& st : state) {
      if (st->delivered.load(std::memory_order_acquire) != posted - refused) {
        return false;
      }
    }
    return true;
  };
  while (!drained() && world.now() < drain_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  world.stop();
  if (o.traced) {
    r.spans = spans::reduce();
    spans::reset();
  }

  // --- gate ------------------------------------------------------------------
  GateInput gate;
  for (const auto& st : state) {
    gate.logs.push_back(st->log);
    gate.abcast_seqs.push_back(st->seqs);
  }
  gate.check_agreement = true;
  r.violation = check_contract(gate);
  for (const auto& log : gate.logs) r.digests.push_back(log_digest(log));

  // --- latency from the due instant, throughput -------------------------------
  std::unordered_map<std::uint64_t, util::TimePoint> first;
  auto key = [](std::uint64_t origin_id, std::uint64_t seq) {
    return (origin_id << 48) ^ seq;
  };
  std::uint64_t in_window = 0;
  for (const auto& st : state) {
    for (std::size_t i = 0; i < st->log.size(); ++i) {
      const util::TimePoint t = st->delivered_at[i];
      if (t >= window_start && t < window_end) ++in_window;
      auto [it, fresh] = first.try_emplace(key(st->log[i].origin, st->log[i].seq), t);
      if (!fresh && t < it->second) it->second = t;
    }
  }
  const util::TimePoint end = world.now();
  for (std::size_t p = 0; p < n; ++p) {
    const ProcState& st = *state[p];
    for (std::size_t i = 0; i < st.seqs.size(); ++i) {
      auto it = first.find(key(p, st.seqs[i]));
      const bool delivered = it != first.end();
      if (!delivered) ++r.undelivered;
      if (delivered && it->second >= window_start && it->second < window_end) {
        ++r.unique_in_window;
      }
      if (st.due[i] < window_start || st.due[i] >= window_end) continue;
      r.latencies_ms.push_back(
          util::to_milliseconds((delivered ? it->second : end) - st.due[i]));
    }
    for (util::TimePoint d : st.refused) {
      ++r.refused;
      if (d >= window_start && d < window_end) {
        r.latencies_ms.push_back(util::to_milliseconds(end - d));
      }
    }
  }
  r.throughput = static_cast<double>(in_window) / static_cast<double>(n) /
                 util::to_seconds(w.measure);
  const double lag_p99 = percentile(r.gen_lag_ms, 99);
  r.gen_valid = lag_p99 <= w.max_gen_lag_p99_ms;

  // --- per-layer counts (whole run: the counters are read after join) -------
  std::uint64_t total_unique = first.size();
  double local_events = 0, wire_deliveries = 0, instances = 0, in_decisions = 0,
         late = 0;
  std::map<std::string, double> mod_msgs, mod_bytes;
  const std::pair<const char*, framework::ModuleId> modules[] = {
      {"abcast", framework::kModAbcast},
      {"consensus", framework::kModConsensus},
      {"rbcast", framework::kModRbcast},
      {"fd", framework::kModFd},
      {"monolithic", framework::kModMonolithic}};
  for (auto& proc : procs) {
    auto& stack = proc->stack();
    local_events += static_cast<double>(stack.counters().local_events);
    wire_deliveries += static_cast<double>(stack.counters().wire_deliveries);
    for (const auto& [name, id] : modules) {
      mod_msgs[name] += static_cast<double>(stack.wire_counters(id).messages_sent);
      mod_bytes[name] += static_cast<double>(stack.wire_counters(id).bytes_sent);
    }
    const auto s = proc->stats();
    instances += static_cast<double>(s.instances_completed);
    in_decisions += static_cast<double>(s.messages_in_decisions);
    late += static_cast<double>(s.late_decisions);
  }
  const double unique = static_cast<double>(total_unique);
  auto& c = r.counts;
  c["framework.local_events_per_msg"] = ratio(local_events, unique);
  c["framework.wire_deliveries_per_msg"] = ratio(wire_deliveries, unique);
  for (const auto& [name, id] : modules) {
    c[std::string(name) + ".msgs_per_msg"] = ratio(mod_msgs[name], unique);
    c[std::string(name) + ".bytes_per_msg"] = ratio(mod_bytes[name], unique);
  }
  c["adb.msgs_per_batch"] = ratio(in_decisions, instances);
  c["consensus.instances_per_msg"] =
      ratio(instances / static_cast<double>(n), unique);
  c["consensus.late_decision_frac"] = ratio(late, instances);
  if (o.traced) {
    const auto t = probe.total();
    auto& pc = r.probe_counts;
    pc["runtime.sends_per_msg"] = ratio(static_cast<double>(t.sends), unique);
    pc["runtime.timer_arms_per_msg"] =
        ratio(static_cast<double>(t.timer_arms), unique);
    pc["runtime.timer_cancels_per_msg"] =
        ratio(static_cast<double>(t.timer_cancels), unique);
    pc["runtime.delivery_wait_ms.p50"] = percentile(t.wait_ms, 50);
    pc["runtime.delivery_wait_ms.p99"] = percentile(t.wait_ms, 99);
  }
  return r;
}

}  // namespace perfbench
