// ADB flow core: the flow control, batching, pipelining and ordered
// delivery both atomic broadcast stacks share (§5.1), written once.
//
// Sans-IO: nothing here sends, arms a timer, reads a clock or charges CPU.
// Two shells drive it — abcast::ModularAbcast and monolithic::MonolithicAbcast.
// A shell owns its wire formats, timers, CPU charges and callbacks, passes
// the current time in where a trigger needs it, and turns what the core
// hands out into messages:
//
//   * admission — own payloads queue FIFO; admit_next() hands them out one
//     at a time while fewer than `window` are admitted-but-undelivered, so
//     each shell keeps its per-message admit → send → pool → propose order;
//   * the pool — adb::Batcher, the unordered messages a proposal is cut
//     from, with its count / payload-byte / δ-time triggers;
//   * the pipelining gate — at most `pipeline_depth` instances undecided;
//   * ordered application — decisions arriving out of instance order are
//     buffered and applied strictly in order: sorted by id, duplicates
//     across instances delivered once, own in-flight slots freed.
//
// Each stack's only differences are then its own: diffusion and indirect
// consensus in the modular shell, §4.1–4.3 in the monolithic one.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "adb/types.hpp"
#include "util/seq_tracker.hpp"
#include "util/time.hpp"

namespace modcast::adb {

/// The tuning both stacks share. Identical in both by construction (§5.1).
struct FlowConfig {
  /// Per-process flow-control window W (own messages in flight).
  std::size_t window = 2;
  /// Count cap/trigger of a proposal batch (the paper's M). The default is
  /// effectively uncapped, so M follows the global backlog n·W — the paper's
  /// "each process is allowed a certain backlog" flow control. The §5.2
  /// table benches pin it to the paper's worked example, M = 4.
  std::size_t max_batch = 64;
  /// Payload-byte cap/trigger of a proposal batch; 0 disables.
  std::size_t batch_bytes = 0;
  /// δ-time aggregation window: a non-full batch waits until its oldest
  /// eligible message is this old. 0 = propose eagerly (the paper's
  /// behavior).
  util::Duration batch_delay = 0;
  /// Consensus instances that may be undecided at once (k-deep
  /// pipelining). 1 = strictly sequential instances (the paper's behavior).
  std::size_t pipeline_depth = 1;
  /// §3.3 "t": silence period after which a process holding unordered
  /// messages starts a consensus on its own.
  util::Duration liveness_timeout = util::milliseconds(500);
  /// Fixed CPU cost charged once per completed consensus instance at every
  /// process: instance setup/teardown, flow-control bookkeeping, timer
  /// churn, scheduler wakeups. Calibrated against the paper's testbed,
  /// whose small-message throughput plateau (~900 msgs/s at n=3 regardless
  /// of size, Fig. 11) implies a multi-millisecond fixed cost per instance.
  util::Duration instance_overhead = util::microseconds(2500);
};

struct FlowStats {
  std::uint64_t admitted = 0;             ///< own messages admitted
  std::uint64_t delivered = 0;            ///< adeliver events at this process
  std::uint64_t instances_completed = 0;  ///< decisions applied
  std::uint64_t messages_in_decisions = 0;  ///< sum of batch sizes (avg M)
  std::uint64_t max_inflight_instances = 0;  ///< pipelining high-water mark
};

/// The pending-message pool proposals are cut from, plus the trigger policy
/// deciding WHEN a batch is worth proposing.
///
/// A batch closes as soon as ANY trigger fires: the count cap, the
/// payload-byte cap, or the δ-time window. Messages cut into an undecided
/// instance are marked in flight so a later instance never re-proposes them
/// (the exact per-run accounting of §5.2 depends on it).
///
///   * entries stay in the pool until marked ordered (delivery), even while
///     riding an in-flight proposal;
///   * removal is lazy: mark_ordered() drops the id, the dead entry is
///     compacted away by the next cut();
///   * iteration (for re-diffusion / recovery estimates) walks live entries
///     in arrival order.
class Batcher {
 public:
  explicit Batcher(const FlowConfig& config) : config_(config) {}

  /// Adds a message to the pool. Returns false on duplicate (id already
  /// live). `now` timestamps the entry for the δ-time trigger.
  bool add(AppMessage m, util::TimePoint now);

  /// Marks a message ordered (delivered): it stops being live. The entry is
  /// compacted away lazily by the next cut().
  void mark_ordered(const MsgId& id) { ids_.erase(id); }

  /// No live entry, counting those riding an in-flight proposal.
  bool empty() const { return ids_.empty(); }
  /// Live entries NOT in any in-flight proposal — what the next cut() can
  /// draw from.
  std::size_t eligible() const;

  /// True when the eligible pool should be proposed now: it is non-empty
  /// AND (batch_delay is 0, or the count/byte cap is reached, or the oldest
  /// eligible message has waited batch_delay).
  bool ready(util::TimePoint now) const;
  /// Instant the δ-time trigger fires for the current oldest eligible
  /// entry. Meaningful only when eligible() > 0 and !ready().
  util::TimePoint deadline() const;

  /// Cuts a batch for instance k: up to the caps of eligible messages in
  /// arrival order, marked in flight under k so later cuts skip them.
  /// Compacts dead entries as it walks.
  std::vector<AppMessage> cut(std::uint64_t k);

  /// Instance k reached a decision that was applied: its in-flight marks
  /// drop, so any of its messages the decision did NOT order become
  /// eligible again.
  void on_decided(std::uint64_t k);

  /// Live entries in arrival order (re-diffusion, recovery estimates).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (const Entry& e : fifo_) {
      if (ids_.count(e.msg.id) != 0) fn(e.msg);
    }
  }

  /// Up to `cap` live entries in arrival order, in-flight ones included —
  /// recovery proposals must cover everything we hold (duplicates across
  /// instances are filtered at delivery). Does not compact or mark.
  std::vector<AppMessage> peek(std::size_t cap) const;

 private:
  struct Entry {
    AppMessage msg;
    util::TimePoint added_at = 0;
  };

  bool in_flight(const MsgId& id) const { return proposed_.count(id) != 0; }

  FlowConfig config_;
  std::deque<Entry> fifo_;  ///< arrival order; may hold dead entries
  std::set<MsgId> ids_;     ///< live ids
  std::set<MsgId> proposed_;  ///< ids riding an undecided proposal
  std::map<std::uint64_t, std::vector<MsgId>> in_flight_;  ///< per instance
};

class Flow {
 public:
  explicit Flow(FlowConfig config);

  /// The process own messages are admitted under. Set before admit_next().
  void set_self(util::ProcessId self) { self_ = self; }

  const FlowConfig& config() const { return config_; }
  const FlowStats& stats() const { return stats_; }

  // --- admission ---

  /// Queues an own payload. Admission is strictly FIFO, so the returned
  /// sequence number is fixed by the queue position even if the message is
  /// not admitted yet.
  std::uint64_t enqueue(util::Payload payload);
  /// The next queued message, admitted, if the window has room.
  std::optional<AppMessage> admit_next();
  std::size_t queued() const { return app_queue_.size(); }
  /// Own messages admitted and not yet delivered.
  std::size_t in_flight() const { return in_flight_; }

  // --- the pool ---

  /// Pools m unless it was delivered already or is pooled. `now` stamps it
  /// for the δ-time trigger. True when m was added.
  bool pool_add(AppMessage m, util::TimePoint now);
  const Batcher& pool() const { return pool_; }
  bool delivered(const MsgId& id) const {
    return delivered_.seen(id.origin, id.seq);
  }

  // --- proposals ---

  /// The instance the next cut() proposes for.
  std::uint64_t next_instance() const { return next_instance_; }
  /// The instance whose decision is applied next.
  std::uint64_t next_decide() const { return next_decide_; }
  /// True while pipeline_depth instances are undecided.
  bool pipeline_full() const {
    return next_instance_ - next_decide_ >= config_.pipeline_depth;
  }
  /// Cuts the pool into the proposal for next_instance() and moves past
  /// it; empty (nothing moves) when no message is eligible.
  std::vector<AppMessage> cut();
  /// A recovery proposal for instance k: up to max_batch of everything
  /// pooled, in-flight messages included. Later cuts start past k.
  std::vector<AppMessage> recovery_batch(std::uint64_t k);

  // --- ordered decisions ---

  /// Buffers instance k's decided value until its predecessors are
  /// applied. False when k is applied already.
  bool buffer_decision(std::uint64_t k, util::Payload value);
  /// The buffered value of next_decide(), or nullptr until it arrives.
  const util::Payload* next_decision() const;
  std::size_t buffered_decisions() const { return decisions_.size(); }
  /// Applies next_decision(), which the shell decoded into `batch`: drops
  /// the buffered value, orders the batch by id and, for each message not
  /// delivered by an earlier instance, frees its pool entry (and its
  /// window slot if it is ours) and calls `deliver(const AppMessage&)`.
  /// Then next_decide() moves on and the instance's unordered messages
  /// become eligible again.
  template <typename Deliver>
  void apply_next(std::vector<AppMessage> batch, Deliver&& deliver) {
    begin_apply(batch);
    for (const AppMessage& m : batch) {
      if (order(m)) deliver(m);
    }
    end_apply();
  }

 private:
  /// apply_next's steps: drop the buffered value and sort the batch; mark
  /// one message ordered (false: an earlier instance delivered it); close
  /// the instance.
  void begin_apply(std::vector<AppMessage>& batch);
  bool order(const AppMessage& m);
  void end_apply();

  FlowConfig config_;
  util::ProcessId self_ = util::kInvalidProcess;
  FlowStats stats_;

  std::deque<util::Payload> app_queue_;  ///< own payloads awaiting admission
  std::uint64_t next_seq_ = 0;         ///< seq of the next admitted message
  std::size_t in_flight_ = 0;          ///< own admitted, not yet delivered

  Batcher pool_;
  util::SeqTracker delivered_;

  std::uint64_t next_instance_ = 0;
  std::uint64_t next_decide_ = 0;
  std::map<std::uint64_t, util::Payload> decisions_;  ///< out of order, buffered
};

}  // namespace modcast::adb
