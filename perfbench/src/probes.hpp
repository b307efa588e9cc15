// Passive probes for the traced run, placed at the library's public
// boundaries: a runtime::Runtime decorator handed to each AbcastProcess, a
// runtime::Protocol shim in front of each stack (and channel), and a
// Stack::set_tracer sink. They forward every call unchanged, charge_cpu
// included, and schedule nothing, so the simulated event order is the same
// with them as without; the passivity check compares the two runs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "framework/trace.hpp"
#include "runtime/runtime.hpp"
#include "aliases.hpp"
#include "spans.hpp"

namespace perfbench {

/// Counters and samples one traced world accumulates. Each process thread
/// writes only its own ProcCounters; the send→receive lanes are shared and
/// locked (uncontended on the simulator).
class Probe {
 public:
  explicit Probe(std::size_t n);

  struct ProcCounters {
    std::uint64_t sends = 0;
    std::uint64_t timer_arms = 0;
    std::uint64_t timer_cancels = 0;
    std::vector<double> wait_ms;  ///< delivery waits ended while recording
  };

  ProcCounters& proc(util::ProcessId p) { return procs_[p]; }
  const ProcCounters& proc(util::ProcessId p) const { return procs_[p]; }

  /// Sender side: `at` is the sender's clock when send() was called.
  void on_send(util::ProcessId from, util::ProcessId to, util::TimePoint at);
  /// Receiver side: matches the oldest unmatched send of this (from, to)
  /// pair (channels are FIFO per pair).
  void on_receive(util::ProcessId from, util::ProcessId to, util::TimePoint at);

  /// Sum over processes (counters) / concatenation (samples).
  ProcCounters total() const;

 private:
  struct Lane {
    std::mutex mu;
    std::deque<util::TimePoint> sent;  // guarded by mu
  };
  std::size_t n_;
  std::vector<ProcCounters> procs_;
  std::unique_ptr<Lane[]> lanes_;  // n*n, [from*n + to]
};

class TracedRuntime final : public runtime::Runtime {
 public:
  TracedRuntime(runtime::Runtime& inner, Probe& probe)
      : inner_(&inner), probe_(&probe) {}

  util::ProcessId self() const override { return inner_->self(); }
  std::size_t group_size() const override { return inner_->group_size(); }
  util::TimePoint now() const override { return inner_->now(); }
  void send(util::ProcessId to, util::Payload msg) override;
  runtime::TimerId set_timer(util::Duration delay,
                             std::function<void()> fn) override;
  void cancel_timer(runtime::TimerId id) override;
  util::Rng& rng() override { return inner_->rng(); }
  void charge_cpu(util::Duration cost) override { inner_->charge_cpu(cost); }

 private:
  runtime::Runtime* inner_;
  Probe* probe_;
};

/// Protocol shim: times inner->on_message as a `kind` span. With a probe it
/// also ends the delivery wait of the matching send.
class TracedProtocol final : public runtime::Protocol {
 public:
  TracedProtocol(runtime::Protocol& inner, SpanKind kind,
                 runtime::Runtime& rt, Probe* probe)
      : inner_(&inner), kind_(kind), rt_(&rt), probe_(probe) {}

  void start() override { inner_->start(); }
  void on_message(util::ProcessId from, util::Payload msg) override;

 private:
  runtime::Protocol* inner_;
  SpanKind kind_;
  runtime::Runtime* rt_;
  Probe* probe_;
};

/// Stack::set_tracer sink that turns boundary crossings into module spans.
framework::TraceSink module_span_sink();

/// Module a trace record is charged to.
SpanKind module_of(const framework::TraceRecord& rec);

}  // namespace perfbench
