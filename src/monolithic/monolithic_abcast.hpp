// Monolithic atomic broadcast (§4): reliable broadcast + Chandra–Toueg
// consensus + atomic broadcast merged into ONE module, enabling the three
// cross-module optimizations the paper describes. External semantics are
// identical to the modular stack; only good-run message patterns differ.
//
//  §4.1 opt_combine — the decision of consensus instance k and the proposal
//       of instance k+1 ride in a single COMBINED message (the round-1
//       coordinator of every instance is the same process, p0).
//  §4.2 opt_piggyback — application messages are not diffused to everyone;
//       a sender forwards them to the coordinator only, piggybacked on the
//       ack it is about to send (or as a small standalone FORWARD when the
//       system is idle). On coordinator change, messages are re-piggybacked
//       on the estimate sent to the new coordinator.
//  §4.3 opt_cheap_decision — decisions are simply sent to all (n−1
//       messages): the messages of instance k+1 implicitly acknowledge the
//       decision of k, so the (n−1)·⌊(n+1)/2⌋-message reliable broadcast is
//       unnecessary in good runs.
//
// Each optimization has a correctness fallback for bad runs: missed
// decisions are pulled from peers; on suspicion of the coordinator the full
// estimate/propose/ack round machinery (rounds ≥ 2) takes over with full-
// value decisions relayed on first receipt. Rounds, tag-or-pull and the
// §4.3-off tag resenders are the shared src/ct cores.
//
// All three toggles exist so the ablation bench can attribute the paper's
// measured gap to the individual optimizations.
//
// Flow control, batching, pipelining and in-order application of decisions
// are the adb::Flow core shared with the modular stack (§5.1).
//
// Steady-state traffic per instance (all opts on): 1 COMBINED to n−1
// processes + n−1 ACKs = 2(n−1) messages — the paper's §5.2.1 count.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "adb/flow.hpp"
#include "adb/types.hpp"
#include "ct/dissemination.hpp"
#include "fd/heartbeat_fd.hpp"
#include "framework/stack.hpp"
#include "util/seq_tracker.hpp"

namespace modcast::monolithic {

/// Monolithic-stack settings; the tuning both stacks share is
/// adb::FlowConfig.
struct MonolithicConfig {
  /// Aggregation delay before an idle process sends a standalone FORWARD to
  /// the coordinator (lets a burst of abcasts share one message).
  util::Duration forward_flush_delay = util::microseconds(200);
  /// Coordinator retransmits an unacked proposal after this long (loss
  /// robustness; never fires in good runs over quasi-reliable channels).
  util::Duration ack_retransmit = util::milliseconds(400);

  // Ablation toggles (paper sections 4.1, 4.2, 4.3). All on = the paper's
  // monolithic stack; all off ≈ the modular algorithm in one module.
  bool opt_combine = true;
  bool opt_piggyback = true;
  bool opt_cheap_decision = true;
};

/// Monolithic-stack counters; the shared ones are adb::FlowStats.
struct MonolithicStats {
  std::uint64_t combined_sent = 0;       ///< proposals that carried a decision
  std::uint64_t standalone_tags = 0;     ///< decisions that went out alone
  std::uint64_t forwards_sent = 0;       ///< standalone forwards to the coord
  std::uint64_t piggybacked_messages = 0;///< app messages that rode on acks
  std::uint64_t retransmissions = 0;
  std::uint32_t max_round = 0;
  std::uint64_t late_decisions = 0;  ///< instances decided in a round >= 2
  std::uint64_t pulls_sent = 0;
};

class MonolithicAbcast final : public framework::Module {
 public:
  explicit MonolithicAbcast(adb::FlowConfig flow = {},
                            MonolithicConfig config = {},
                            const fd::HeartbeatFd* fd = nullptr)
      : config_(config), fd_(fd), flow_(flow) {}

  std::string_view name() const override { return "monolithic-abcast"; }
  void init(framework::Stack& stack) override;
  void start() override;

  /// A-broadcasts payload (queues above the flow-control window). Returns
  /// the assigned sequence number.
  std::uint64_t abcast(util::Payload payload);

  void set_deliver_handler(adb::DeliverFn fn) { deliver_ = std::move(fn); }
  void set_admit_handler(adb::AdmitFn fn) { admit_ = std::move(fn); }

  const MonolithicStats& stats() const { return stats_; }
  const adb::Flow& flow() const { return flow_; }
  /// Retained decision of instance k (the ordered batch), or nullptr if
  /// undecided or pruned. A view of the proposal frame it was decided from.
  const util::Payload* decision(std::uint64_t k) const {
    const Decided* d = instances_.decision(k);
    return d == nullptr ? nullptr : &d->batch;
  }

 private:
  struct Instance : ct::RoundState {
    runtime::TimerId pull_timer = runtime::kInvalidTimer;
    runtime::TimerId retransmit_timer = runtime::kInvalidTimer;
  };
  /// A retained decision: the round that decided it and the batch — a view
  /// of the proposal frame it was decided from.
  struct Decided {
    std::uint32_t round = 0;
    util::Payload batch;
  };

  // --- identity helpers ---
  ct::Group group() const { return {stack_->group_size(), stack_->self()}; }
  bool suspects(util::ProcessId q) const {
    return fd_ != nullptr && fd_->suspects(q);
  }
  bool i_am_initial_coordinator() const {
    return stack_->self() == group().coordinator(1);
  }
  Instance& instance(std::uint64_t k) { return instances_.at(k); }
  std::uint32_t decision_round(std::uint64_t k) const {
    const Decided* d = instances_.decision(k);
    return d == nullptr ? 0 : d->round;
  }

  // --- application / flow control ---
  void admit_queued();
  void route_message(adb::AppMessage m);
  void flush_outbox_standalone();
  void arm_flush_timer();
  void pool_add(adb::AppMessage m);
  util::Payload build_estimate_value();

  // --- coordinator good path ---
  bool try_start_instance();
  void start_instances();
  void arm_batch_timer(util::TimePoint now);
  void cancel_batch_timer();
  void coordinator_decided(Instance& inst, std::uint32_t round);
  /// The single standalone decision-tag send site: every (n−1)-message
  /// drain tag counted by analysis::monolithic_messages_per_run's
  /// `standalone_tags` term goes through here (costcheck budgets it as the
  /// monolithic stack's batch-drain phase). With `relay`, a resender passes
  /// on a tag it received with §4.3 off; that is traced as a relay and not
  /// counted as a drain tag.
  void send_standalone_tag(std::uint64_t k, std::uint32_t round,
                           bool relay = false);
  void arm_retransmit(Instance& inst, std::uint32_t round);

  // --- round machinery (recovery) ---
  void move_on(Instance& inst);
  void ensure_estimate(Instance& inst);
  void send_estimate(Instance& inst, std::uint32_t round,
                     util::ProcessId coord);
  void send_nack(std::uint64_t k, std::uint32_t round, util::ProcessId to);
  void check_estimates(Instance& inst, std::uint32_t round);
  void handle_proposal(util::ProcessId from, std::uint64_t k,
                       std::uint32_t round, util::Payload batch);
  void send_ack(Instance& inst, std::uint32_t round, util::ProcessId coord);

  // --- decisions ---
  void resolve_decision_tag(std::uint64_t k, std::uint32_t round);
  /// Replies kFullReply(k) to `to` when instance k is decided and retained.
  /// Answers pulls, and any recovery-round message (estimate/nack) arriving
  /// for an instance we already decided: the sender is lagging — e.g. it
  /// just healed from a partition — and hands it the value directly, so a
  /// laggard catches up at one instance per round trip instead of one per
  /// liveness timeout.
  bool reply_decision_if_known(util::ProcessId to, std::uint64_t k);
  void decide(std::uint64_t k, std::uint32_t round, util::Payload batch);
  void apply_ready_decisions();
  void start_pull(Instance& inst);
  void broadcast_decision_fallback(std::uint64_t k, std::uint32_t round,
                                   const util::Payload& batch,
                                   bool relay_seen);
  static bool batch_is_empty(const util::Payload& value);
  void recheck_active_estimates();

  // --- wire ---
  void on_wire(util::ProcessId from, util::Payload msg);
  void on_suspect(util::ProcessId q);
  void ensure_instance_progress();
  void arm_liveness_timer();

  MonolithicConfig config_;
  const fd::HeartbeatFd* fd_;
  framework::Stack* stack_ = nullptr;
  adb::DeliverFn deliver_;
  adb::AdmitFn admit_;

  // Admission, the ordering pool (coordinator: messages to order; with
  // opt_piggyback off, every process pools every diffused message, like the
  // modular stack), the pipelining gate and in-order application.
  adb::Flow flow_;
  std::map<adb::MsgId, util::Payload> own_pending_;  ///< admitted, undelivered
  std::deque<adb::AppMessage> outbox_;  ///< not yet sent to coordinator
  runtime::TimerId flush_timer_ = runtime::kInvalidTimer;
  runtime::TimerId batch_timer_ = runtime::kInvalidTimer;  ///< δ-time trigger

  // Instance bookkeeping.
  ct::Instances<Instance, Decided> instances_;
  /// §4.1 combine, pipelined: decisions reached but not yet shipped in a
  /// COMBINED proposal. Each new proposal pops the front as its ride-along
  /// tag; leftovers are flushed as standalone tags.
  std::deque<std::uint64_t> untagged_decisions_;
  util::SeqTracker relayed_decisions_;  ///< dedup for fallback relaying

  util::TimePoint last_activity_ = 0;
  MonolithicStats stats_;
};

}  // namespace modcast::monolithic
