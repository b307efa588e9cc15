// Deterministic discrete-event queue.
//
// Events are ordered by (time, insertion sequence): two events scheduled for
// the same instant fire in the order they were scheduled. This makes every
// simulation a pure function of its inputs and seed, which the property
// tests rely on for replayability.
//
// Implementation: callbacks live in a slab-pooled slot store (InlineFn keeps
// small captures allocation-free; SlabPool keeps the slots pointer-stable,
// so growth never relocates a live callback, and an event runs in place).
// Pending events are ordered by one flat 4-ary heap of 24-byte entries plus
// FIFO lanes.
//
// Lanes: a caller that knows its events arrive in non-decreasing time (a
// sender's network arrivals: its NIC serializes departures and propagation
// is constant) schedules them on its own lane. Only a lane's head sits in
// the heap; the rest wait in the lane's ring, and popping the head moves
// the next one up with a single sift. So the heap holds the timers plus one
// entry per busy lane, not every in-flight message. A lane entry that would
// break its lane's order (an extra per-message delay can reorder a sender's
// arrivals) goes to the heap instead. Sequence numbers are queue-global and
// taken at schedule time either way, so lanes never change which event
// runs next.
//
// Cancellation is O(1): each slot carries a generation counter, and an
// EventId embeds the generation it was issued under, so cancel just bumps
// the generation and frees the slot. Each heap or lane entry remembers the
// sequence number of its event; one whose slot no longer holds that
// sequence is stale and is dropped when it surfaces.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/arena.hpp"
#include "util/inline_fn.hpp"
#include "util/time.hpp"

namespace modcast::sim {

/// Handle for cancelling a scheduled event. Encodes (generation << 32) |
/// (slot + 1); never 0, so 0 is usable as "no event".
using EventId = std::uint64_t;

/// Names a FIFO lane of an EventQueue (see the file comment).
using LaneId = std::uint32_t;

class EventQueue {
 public:
  /// Callables up to 64 capture bytes are stored inline in the slot pool.
  using Callback = util::InlineFn<64>;

  /// Opens `count` new lanes and returns the id of the first; the others
  /// follow consecutively.
  LaneId add_lanes(std::size_t count);

  /// Schedules `fn` at absolute time `when`. Returns a handle usable with
  /// cancel().
  EventId schedule(util::TimePoint when, Callback&& fn);

  /// Like schedule(), through lane `lane`: cheapest when `when` is not
  /// earlier than the lane's previous entry. The event runs in the same
  /// order either way.
  EventId schedule(LaneId lane, util::TimePoint when, Callback&& fn);

  /// Cancels a pending event and reports whether it did. Cancelling an
  /// already-fired, running or unknown event is a no-op that returns false
  /// (timers race with their own firing; that must be benign).
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Runs the earliest pending event if its time is <= `deadline`: stores
  /// its time in `*now`, then calls it. Returns false, running nothing, when
  /// the queue is empty or the earliest event is later than `deadline`.
  bool run_next(util::TimePoint deadline, util::TimePoint* now);

  /// Peak simultaneously-pending events over the queue's lifetime.
  std::size_t high_water() const { return peak_live_; }

  /// Bytes of heap state the queue holds (slot slabs, heap and lanes).
  /// Exact and deterministic; the scalability bench reports it.
  std::size_t state_bytes() const;

 private:
  static constexpr LaneId kNoLane = 0xffffffffu;
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  struct Slot {
    Callback fn;
    std::uint64_t seq = kNoSeq;  ///< the pending event's, else kNoSeq
    std::uint32_t generation = 0;
  };
  struct Entry {
    util::TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
    LaneId lane;  ///< kNoLane for an entry scheduled straight on the heap
  };
  /// A lane's head is in the heap (`busy`); its followers wait in `ring`, a
  /// power-of-two ring of `count` entries from `head`.
  struct Lane {
    std::vector<Entry> ring;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    util::TimePoint tail = 0;  ///< time of the latest entry, while busy
    bool busy = false;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Takes a slot for `fn` and returns its entry (lane unset).
  Entry acquire(util::TimePoint when, Callback&& fn);
  EventId id_of(const Entry& e) const;
  void push_heap(const Entry& e);
  /// Removes the heap root, which belongs to lane `lane` (or none): the
  /// lane's next entry takes its place, else the heap shrinks.
  void pop_root(LaneId lane);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Entry> heap_;
  std::vector<Lane> lanes_;
  SlabPool<Slot> slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace modcast::sim
