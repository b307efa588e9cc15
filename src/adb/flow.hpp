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
///   * removal is lazy: mark_ordered() makes the entry dead and drops its
///     payload; dead entries leave from the front of the arrival order once
///     no instance marks them;
///   * iteration (for re-diffusion / recovery estimates) walks live entries
///     in arrival order.
///
/// Every per-message step is O(1) and, once the pool's buffers have grown
/// to the working set, allocation-free: ids find their entry through a
/// per-origin seq-indexed table, live and in-flight entries are counted,
/// and each instance's marks are a chain through its entries.
class Batcher {
 public:
  explicit Batcher(const FlowConfig& config) : config_(config) {}

  /// Adds a message to the pool. Returns false on duplicate (id already
  /// live). `now` timestamps the entry for the δ-time trigger. An id
  /// re-added after it was ordered is in flight while the instance that
  /// carried it is undecided.
  bool add(AppMessage m, util::TimePoint now);

  /// Marks a message ordered (delivered): it stops being live and its
  /// payload is released at once.
  void mark_ordered(const MsgId& id);

  /// No live entry, counting those riding an in-flight proposal.
  bool empty() const { return live_ == 0; }
  /// Live entries NOT in any in-flight proposal — what the next cut() can
  /// draw from.
  std::size_t eligible() const { return live_ - live_in_flight_; }

  /// True when the eligible pool should be proposed now: it is non-empty
  /// AND (batch_delay is 0, or the count/byte cap is reached, or the oldest
  /// eligible message has waited batch_delay).
  bool ready(util::TimePoint now) const;
  /// Instant the δ-time trigger fires for the current oldest eligible
  /// entry. Meaningful only when eligible() > 0 and !ready().
  util::TimePoint deadline() const;

  /// Cuts a batch for instance k into `batch` (cleared first, its capacity
  /// reused): up to the caps of eligible messages in arrival order, marked
  /// in flight under k so later cuts skip them.
  void cut(std::uint64_t k, std::vector<AppMessage>& batch);

  /// Instance k reached a decision that was applied: its in-flight marks
  /// drop, so any of its messages the decision did NOT order become
  /// eligible again.
  void on_decided(std::uint64_t k);

  /// Live entries in arrival order (re-diffusion, recovery estimates).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (std::size_t i = head_; i < fifo_.size(); ++i) {
      if (fifo_[i].live) fn(fifo_[i].msg);
    }
  }

  /// Up to `cap` live entries in arrival order, in-flight ones included —
  /// recovery proposals must cover everything we hold (duplicates across
  /// instances are filtered at delivery). Marks nothing.
  std::vector<AppMessage> peek(std::size_t cap) const;

 private:
  static constexpr std::uint64_t kNone = util::SeqIndex::kNone;
  /// A released prefix this long, and at least half of fifo_, is erased.
  static constexpr std::size_t kCompactAt = 16;

  /// A pooled message. Its position (arrival number) never changes: the
  /// entry lives at fifo_[position - base_].
  struct Entry {
    AppMessage msg;  ///< payload released once ordered
    util::TimePoint added_at = 0;
    bool live = false;                  ///< not yet ordered
    std::uint64_t in_flight = kNone;    ///< instance whose proposal has it
    std::uint64_t next_marked = kNone;  ///< next position in that chain
  };
  /// One undecided instance's marks: positions first → … → last, linked by
  /// Entry::next_marked.
  struct Marks {
    std::uint64_t k = 0;
    std::uint64_t first = kNone;
    std::uint64_t last = kNone;
  };

  Entry& at(std::uint64_t position) { return fifo_[position - base_]; }
  bool eligible(const Entry& e) const { return e.live && e.in_flight == kNone; }
  /// Instance k's marks, created empty on first use.
  Marks& marks_for(std::uint64_t k);
  /// Puts the entry at `position` on the chain of `marks`.
  void mark(Marks& marks, std::uint64_t position);
  /// Releases dead, unmarked entries at the front of the arrival order.
  void drop_dead_front();

  FlowConfig config_;
  std::vector<Entry> fifo_;   ///< arrival order; [0, head_) released
  std::size_t head_ = 0;
  std::uint64_t base_ = 0;    ///< position of fifo_[0]
  util::SeqIndex index_;      ///< id -> position of its newest entry
  std::vector<Marks> marks_;  ///< undecided instances with marks
  std::size_t live_ = 0;
  std::size_t live_in_flight_ = 0;
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
