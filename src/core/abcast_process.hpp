// Public API: one atomic broadcast endpoint (process), either stack.
//
// AbcastProcess is the library's front door. Pick a StackKind, attach the
// process to a runtime (simulated or threaded), register a delivery handler,
// and call abcast(). Both stacks expose identical semantics — validity,
// uniform agreement, uniform integrity, uniform total order — and differ
// only in internal structure, which is precisely the paper's experiment.
//
//   runtime::SimWorld world({.n = 3});
//   std::vector<std::unique_ptr<core::AbcastProcess>> procs;
//   for (util::ProcessId p = 0; p < 3; ++p) {
//     procs.push_back(std::make_unique<core::AbcastProcess>(
//         world.runtime(p), core::StackOptions{}));
//     procs[p]->set_deliver_handler(...);
//     world.attach(p, &procs[p]->protocol());
//   }
//   world.start();
//   procs[0]->abcast(payload);
//   world.run_until(util::seconds(1));
#pragma once

#include <cstdint>
#include <memory>

#include "abcast/modular_abcast.hpp"
#include "adb/flow.hpp"
#include "consensus/chandra_toueg.hpp"
#include "fd/heartbeat_fd.hpp"
#include "framework/stack.hpp"
#include "monolithic/monolithic_abcast.hpp"
#include "rbcast/reliable_bcast.hpp"
#include "runtime/runtime.hpp"

namespace modcast::core {

enum class StackKind {
  kModular,     ///< Fig. 1 left: ABcast / Consensus / RBcast microprotocols
  kMonolithic,  ///< Fig. 1 right: one merged module (§4 optimizations)
};

const char* to_string(StackKind kind);

struct StackOptions {
  StackKind kind = StackKind::kModular;

  /// CPU cost of one module-boundary crossing in the composition framework
  /// (event allocation, dispatch, header push/pop). Charged per crossing by
  /// the Stack; only observable under the simulated runtime.
  util::Duration module_crossing_cost = util::microseconds(20);

  fd::FdConfig fd;
  rbcast::RbcastConfig rbcast;
  consensus::ConsensusConfig consensus;
  /// Flow control, batching, pipelining and per-instance cost: identical in
  /// both stacks (§5.1).
  adb::FlowConfig flow;
  /// Modular-stack settings (indirect consensus); ignored by the monolithic
  /// stack.
  abcast::AbcastConfig modular;
  /// Monolithic-stack settings (§4.1–§4.3 toggles, forward flush delay);
  /// ignored by the modular stack.
  monolithic::MonolithicConfig monolithic;
};

/// Uniform view over either stack's statistics.
struct ProcessStats {
  std::uint64_t delivered = 0;
  std::uint64_t instances_completed = 0;
  std::uint64_t messages_in_decisions = 0;
  std::uint64_t admitted = 0;
  std::uint32_t max_round = 0;
  std::uint64_t late_decisions = 0;  ///< instances decided in rounds >= 2

  double avg_batch() const {
    return instances_completed == 0
               ? 0.0
               : static_cast<double>(messages_in_decisions) /
                     static_cast<double>(instances_completed);
  }
};

class AbcastProcess {
 public:
  using DeliverFn = std::function<void(util::ProcessId origin,
                                       std::uint64_t seq,
                                       const util::Bytes& payload)>;
  using AdmitFn = std::function<void(std::uint64_t seq)>;

  AbcastProcess(runtime::Runtime& rt, StackOptions options);
  ~AbcastProcess();

  AbcastProcess(const AbcastProcess&) = delete;
  AbcastProcess& operator=(const AbcastProcess&) = delete;

  /// A-broadcasts payload; queues above the flow-control window (the admit
  /// handler fires when the message is actually admitted). Returns the
  /// sequence number this process assigned.
  std::uint64_t abcast(util::Bytes payload);

  /// adeliver callback: same (origin, seq) order at every correct process.
  void set_deliver_handler(DeliverFn fn);
  /// Fired when an own message passes flow control (the paper's t0).
  void set_admit_handler(AdmitFn fn);

  /// The runtime::Protocol to attach to a SimWorld / ThreadWorld.
  runtime::Protocol& protocol();

  const StackOptions& options() const { return options_; }
  ProcessStats stats() const;
  std::size_t queued() const;     ///< messages waiting for flow control
  std::size_t in_flight() const;  ///< own admitted, undelivered messages
  /// The flow core of whichever stack runs (shared counters, pool).
  const adb::Flow& flow() const;

  framework::Stack& stack() { return *stack_; }
  fd::HeartbeatFd& failure_detector() { return *fd_; }

  /// Non-null only for the matching kind (white-box access for tests).
  abcast::ModularAbcast* modular() { return modular_.get(); }
  monolithic::MonolithicAbcast* monolithic() { return monolithic_.get(); }
  consensus::ChandraTouegConsensus* consensus_module() {
    return consensus_.get();
  }
  rbcast::ReliableBcast* rbcast_module() { return rbcast_.get(); }

 private:
  StackOptions options_;
  std::unique_ptr<framework::Stack> stack_;
  std::unique_ptr<fd::HeartbeatFd> fd_;
  std::unique_ptr<rbcast::ReliableBcast> rbcast_;
  std::unique_ptr<consensus::ChandraTouegConsensus> consensus_;
  std::unique_ptr<abcast::ModularAbcast> modular_;
  std::unique_ptr<monolithic::MonolithicAbcast> monolithic_;
  util::Bytes delivery_buf_;  ///< adeliver copy target, reused
};

}  // namespace modcast::core
