// SimGroup: an n-process atomic broadcast deployment on the simulator.
//
// Wires a SimWorld to n AbcastProcess instances and records every delivery,
// which is what tests assert invariants on and what the experiment harness
// measures. Pure convenience — everything here can be done by hand with the
// lower-level APIs.
#pragma once

#include <memory>
#include <vector>

#include "channel/reliable_channel.hpp"
#include "core/abcast_process.hpp"
#include "faults/safety_checker.hpp"
#include "metrics/metrics.hpp"
#include "runtime/sim_world.hpp"
#include "util/rng.hpp"

namespace modcast::core {

/// One recorded adeliver event.
struct DeliveryRecord {
  util::ProcessId origin;
  std::uint64_t seq;
  util::TimePoint at;
  std::size_t payload_size;

  friend bool operator==(const DeliveryRecord& a, const DeliveryRecord& b) {
    return a.origin == b.origin && a.seq == b.seq;
  }
};

struct SimGroupConfig {
  std::size_t n = 3;
  StackOptions stack;
  runtime::CpuCostModel cpu;
  sim::NetworkConfig net;
  std::uint64_t seed = 1;
  bool record_deliveries = true;
  bool record_payloads = false;  ///< also keep payload bytes (tests only)

  /// Lossy-network mode: each message is dropped with this probability. The
  /// protocols assume quasi-reliable channels, so enabling drops requires
  /// reliable_channels too (a TCP-lite layer under every stack) — the
  /// configuration that implements the paper's §2.1 channel model instead
  /// of assuming it.
  double drop_probability = 0.0;
  bool reliable_channels = false;
  channel::ChannelConfig channel;

  /// Attaches an online faults::SafetyChecker observing every admit,
  /// adeliver, and crash across the group, plus a periodic liveness
  /// watchdog. Query it via safety_report() after the run.
  bool safety_check = false;
  faults::SafetyConfig safety;

  /// Installs a MetricsRegistry tracer on every stack. Purely observational:
  /// the event order and all protocol behavior are unchanged (the Stack
  /// charges crossing costs with or without a tracer). Query per-process
  /// registries via metrics(p) or the merged view via collect_metrics().
  bool collect_metrics = false;
};

class SimGroup {
 public:
  /// Observers ride on the group-owned per-process handlers, after
  /// recording and safety checking. Installing an observer does not disturb
  /// the checker or the delivery log — unlike calling
  /// process(p).set_deliver_handler directly, which takes over the raw
  /// stack callback and silences both.
  using DeliverObserver =
      std::function<void(util::ProcessId p, util::ProcessId origin,
                         std::uint64_t seq, const util::Bytes& payload)>;
  using AdmitObserver =
      std::function<void(util::ProcessId p, std::uint64_t seq)>;

  explicit SimGroup(SimGroupConfig config);

  std::size_t size() const { return procs_.size(); }
  runtime::SimWorld& world() { return *world_; }
  AbcastProcess& process(util::ProcessId p) { return *procs_.at(p); }

  /// Starts all processes (call once before running). Also arms the safety
  /// watchdog when safety checking is configured.
  void start();
  void run_until(util::TimePoint deadline) { world_->run_until(deadline); }
  /// Runs until quiescence (bounded by max_events); returns events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX) {
    return world_->run(max_events);
  }
  util::TimePoint now() const { return world_->now(); }

  /// Crash-stops p now and informs the safety checker (if attached).
  void crash(util::ProcessId p);
  void crash_at(util::ProcessId p, util::TimePoint when);
  bool crashed(util::ProcessId p) const { return world_->crashed(p); }

  void set_deliver_observer(DeliverObserver fn) {
    deliver_observer_ = std::move(fn);
  }
  void set_admit_observer(AdmitObserver fn) {
    admit_observer_ = std::move(fn);
  }

  /// The online checker (null unless safety_check was configured).
  faults::SafetyChecker* checker() { return checker_.get(); }
  /// Finalized contract verdict (end-of-run agreement check included).
  /// Requires safety_check.
  faults::SafetyReport safety_report() {
    return checker_->finalize(world_->now());
  }

  /// The adeliver log of process p, in delivery order.
  const std::vector<DeliveryRecord>& deliveries(util::ProcessId p) const {
    return deliveries_.at(p);
  }
  /// Recorded payloads of process p (only if record_payloads).
  const std::vector<util::Bytes>& payloads(util::ProcessId p) const {
    return payloads_.at(p);
  }

  const SimGroupConfig& config() const { return config_; }

  /// Channel layer of process p (null unless reliable_channels).
  channel::ReliableChannel* channel_of(util::ProcessId p) {
    return channels_.empty() ? nullptr : channels_.at(p).get();
  }

  /// Metrics registry of process p (null unless collect_metrics).
  metrics::MetricsRegistry* metrics(util::ProcessId p) {
    return metrics_.empty() ? nullptr : metrics_.at(p).get();
  }
  /// Merged group snapshot: all registries plus the below-stack counters
  /// (channel stats, network volume, timer arms). Requires collect_metrics.
  metrics::GroupMetrics collect_metrics() const;

 private:
  void arm_watchdog();
  void watchdog_tick();

  SimGroupConfig config_;
  std::unique_ptr<runtime::SimWorld> world_;
  std::vector<std::unique_ptr<channel::ReliableChannel>> channels_;
  std::vector<std::unique_ptr<channel::ChanneledRuntime>> channeled_rts_;
  std::vector<std::unique_ptr<AbcastProcess>> procs_;
  std::vector<std::unique_ptr<metrics::MetricsRegistry>> metrics_;
  std::vector<std::vector<DeliveryRecord>> deliveries_;
  std::vector<std::vector<util::Bytes>> payloads_;
  std::unique_ptr<faults::SafetyChecker> checker_;
  DeliverObserver deliver_observer_;
  AdmitObserver admit_observer_;
};

// ---------------------------------------------------------------------------
// Invariant checkers (used by tests; kept in the library so examples can
// assert correctness too).
// ---------------------------------------------------------------------------

/// Result of checking the atomic broadcast contract over delivery logs.
struct ContractViolation {
  bool ok = true;
  std::string detail;  ///< empty when ok
};

/// Uniform total order + uniform integrity across all processes:
/// every log is duplicate-free, and any two logs are prefix-compatible
/// (one is a prefix of the other, or they are equal).
ContractViolation check_total_order(const SimGroup& group);

/// Uniform agreement among the given (correct) processes: all correct
/// processes delivered exactly the same sequence.
ContractViolation check_agreement_among_correct(const SimGroup& group);

}  // namespace modcast::core
