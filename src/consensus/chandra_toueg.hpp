// Chandra–Toueg ◇S consensus with the paper's optimizations (§3.2).
//
// The algorithm proceeds in asynchronous rounds; the coordinator of round r
// is p_{(r−1) mod n}, so round 1 of every instance is coordinated by p0
// (fixed — this is what makes the monolithic §4.1 optimization possible and
// keeps the comparison fair). Each round has estimate / propose / ack /
// decide phases, with three good-run optimizations:
//
//  1. Round 1 has no estimate phase: the coordinator proposes its own
//     initial value directly (Fig. 3).
//  2. A new round starts only when the current coordinator is suspected —
//     not eagerly when a round ends.
//  3. Decisions are reliably broadcast as a small DECISION *tag* naming
//     (instance, round); receivers resolve the value from the proposal they
//     already hold. A receiver that never saw the proposal pulls the full
//     decision from its peers (the "additional communication steps" the
//     paper concedes for bad runs). Recovery rounds (r ≥ 2) broadcast the
//     full value, prioritizing correctness over bytes in already-bad runs.
//
// Because round 1 is coordinator-push only, a correct-but-valueless
// coordinator would never start the instance. A nudge timer covers this
// corner: a participant holding an initial value re-introduces the estimate
// phase by sending its estimate to the coordinator, which adopts it if it
// has no value of its own (used by the §3.3 ABcast liveness path; never
// fires under steady load).
//
// Module I/O: consume kEvPropose, raise kEvDecide; decisions travel through
// the reliable broadcast module (kEvRbcast / kEvRdeliver); suspicions come
// from the failure detector (kEvSuspect). The value is an opaque byte blob —
// the consensus module never interprets it (black-box modularity).
//
// Concurrent instances: all protocol state is keyed by instance number
// (per-instance rounds, estimates, timers), so a pipelined caller may run
// any number of instances at once — decisions can complete in any order and
// nothing bleeds across instances. The round and tag-or-pull rules are the
// shared src/ct cores; this module is their I/O shell.
#pragma once

#include <cstdint>
#include <optional>

#include "ct/dissemination.hpp"
#include "fd/heartbeat_fd.hpp"
#include "framework/stack.hpp"

namespace modcast::consensus {

struct ConsensusConfig {
  /// How long a participant with an initial value waits for the round-1
  /// proposal before nudging the coordinator with an estimate.
  util::Duration proposal_nudge_timeout = util::milliseconds(200);
};

/// Statistics a test or bench can assert on.
struct ConsensusStats {
  std::uint64_t decided = 0;
  std::uint32_t max_round = 0;   ///< highest round that decided any instance
  std::uint64_t late_decisions = 0;  ///< instances decided in a round >= 2
                                     ///< (crash/suspicion recovery work)
  std::uint64_t pulls_sent = 0;
  std::uint64_t nudges_sent = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t max_open_instances = 0;  ///< concurrent undecided instances
};

class ChandraTouegConsensus final : public framework::Module {
 public:
  /// Extended consensus specification ([12], Ekwall & Schiper DSN'06): an
  /// optional upcall asking the layer above whether a proposed value is
  /// locally actionable (for indirect consensus: "do I hold the payloads
  /// these ids name?"). When it returns false, the module defers the
  /// ack/proposal; the upper layer raises kEvRevalidate once the situation
  /// may have changed. With no validator installed, behaviour is the
  /// classic black-box consensus.
  using Validator =
      // wirecheck:allow(hot.function): Installed once by set_proposal_validator, never constructed per message.
      std::function<bool(std::uint64_t instance, const util::Payload& value)>;

  explicit ChandraTouegConsensus(ConsensusConfig config = {},
                                 const fd::HeartbeatFd* fd = nullptr)
      : config_(config), fd_(fd) {}

  std::string_view name() const override { return "ct-consensus"; }
  void init(framework::Stack& stack) override;

  void set_proposal_validator(Validator v) { validator_ = std::move(v); }

  /// Proposes `value` for instance k. The first value bound to an instance
  /// at this process becomes its initial estimate; later calls for the same
  /// instance are ignored.
  void propose(std::uint64_t k, util::Payload value);

  bool has_decided(std::uint64_t k) const { return instances_.decided(k); }
  /// Decision value, or nullptr if undecided/pruned. It shares the buffer
  /// of the proposal it was decided from.
  const util::Payload* decision(std::uint64_t k) const {
    return instances_.decision(k);
  }

  const ConsensusStats& stats() const { return stats_; }

  /// Coordinator of round r (1-based): p_{(r−1) mod n}.
  util::ProcessId coordinator(std::uint32_t round) const {
    return group().coordinator(round);
  }

 private:
  struct Instance : ct::RoundState {
    /// Proposal round awaiting validation before we may ack it.
    std::optional<std::uint32_t> pending_ack_round;
    /// Chosen (round, value) awaiting validation before we may propose it.
    std::optional<std::pair<std::uint32_t, util::Payload>> pending_propose;
    runtime::TimerId nudge_timer = runtime::kInvalidTimer;
    runtime::TimerId pull_timer = runtime::kInvalidTimer;
  };

  ct::Group group() const { return {stack_->group_size(), stack_->self()}; }
  bool suspects(util::ProcessId q) const {
    return fd_ != nullptr && fd_->suspects(q);
  }
  Instance& instance(std::uint64_t k);
  bool value_ok(std::uint64_t k, const util::Payload& value) const {
    return !validator_ || validator_(k, value);
  }
  void adopt_and_ack(Instance& inst, std::uint32_t round);
  void on_revalidate(std::uint64_t k);

  void do_propose(Instance& inst, std::uint32_t round, util::Payload value);
  void move_on(Instance& inst);
  void send_estimate(Instance& inst, std::uint32_t round,
                     util::ProcessId coord);
  void send_nack(std::uint64_t k, std::uint32_t round, util::ProcessId to);
  void check_estimates(Instance& inst, std::uint32_t round);
  void decide_local(std::uint64_t k, util::Payload value);
  void broadcast_decision(Instance& inst, std::uint32_t round);
  void send_full(util::ProcessId to, std::uint64_t k);
  void start_pull(Instance& inst);
  void arm_nudge(Instance& inst);

  void on_wire(util::ProcessId from, util::Payload msg);
  void on_rdeliver(util::ProcessId origin, const util::Payload& payload);
  void on_suspect(util::ProcessId q);

  void on_proposal(util::ProcessId from, std::uint64_t k, std::uint32_t round,
                   util::Payload value);
  void on_solicit(util::ProcessId from, std::uint64_t k, std::uint32_t round);

  ConsensusConfig config_;
  const fd::HeartbeatFd* fd_;
  Validator validator_;
  framework::Stack* stack_ = nullptr;
  ct::Instances<Instance> instances_;
  std::uint64_t open_instances_ = 0;  ///< created undecided, not yet decided
  ConsensusStats stats_;
};

}  // namespace modcast::consensus
