// Unit tests: deterministic event queue (sim/event_queue).
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace modcast::sim {
namespace {

constexpr util::TimePoint kForever = std::numeric_limits<util::TimePoint>::max();

/// Runs every pending event; returns how many ran.
std::size_t drain(EventQueue& q) {
  util::TimePoint now = 0;
  std::size_t ran = 0;
  while (q.run_next(kForever, &now)) ++ran;
  return ran;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(drain(q), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunNextReportsTimeAndHonoursDeadline) {
  EventQueue q;
  bool ran = false;
  q.schedule(42, [&] { ran = true; });
  util::TimePoint now = 0;
  EXPECT_FALSE(q.run_next(41, &now));
  EXPECT_FALSE(ran);
  EXPECT_EQ(now, 0);
  EXPECT_TRUE(q.run_next(42, &now));
  EXPECT_TRUE(ran);
  EXPECT_EQ(now, 42);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.run_next(kForever, &now));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule(10, [&] { ran = true; });
  q.schedule(20, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  drain(q);
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelUnknownIsNoOp) {
  EventQueue q;
  q.schedule(1, [] {});
  EXPECT_FALSE(q.cancel(9999));  // never scheduled
  EXPECT_FALSE(q.cancel(0));     // invalid id
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelTwiceCountsOnce) {
  EventQueue q;
  EventId id = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue q;
  EventId first = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(first);
  util::TimePoint now = 0;
  EXPECT_FALSE(q.run_next(19, &now));
  EXPECT_TRUE(q.run_next(20, &now));
  EXPECT_EQ(now, 20);
}

TEST(EventQueue, StaleIdAfterSlotReuseIsNoOp) {
  // The pooled implementation recycles slots; an EventId from a fired event
  // must never cancel a later event that happens to reuse the same slot.
  EventQueue q;
  bool first_ran = false;
  EventId stale = q.schedule(1, [&] { first_ran = true; });
  drain(q);
  EXPECT_TRUE(first_ran);

  bool second_ran = false;
  q.schedule(2, [&] { second_ran = true; });  // reuses the freed slot
  EXPECT_FALSE(q.cancel(stale));              // generation mismatch
  EXPECT_EQ(q.size(), 1u);
  drain(q);
  EXPECT_TRUE(second_ran);
}

TEST(EventQueue, CancelledSlotReuseKeepsOrdering) {
  // Heavy schedule/cancel churn forces slot recycling while live entries
  // remain in the heap; execution order must stay (time, insertion).
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int round = 0; round < 100; ++round) {
    q.schedule(1000 + round, [&order, round] { order.push_back(round); });
    for (int j = 0; j < 3; ++j) {
      doomed.push_back(q.schedule(500 + round, [&order] {
        order.push_back(-1);  // must never run
      }));
    }
    for (EventId id : doomed) q.cancel(id);
    doomed.clear();
  }
  EXPECT_EQ(q.size(), 100u);
  drain(q);
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RescheduleAfterCancelGetsFreshId) {
  EventQueue q;
  EventId a = q.schedule(10, [] {});
  q.cancel(a);
  EventId b = q.schedule(10, [] {});
  EXPECT_NE(a, b);  // same slot, different generation
  q.cancel(a);      // stale: still a no-op
  EXPECT_EQ(q.size(), 1u);
  bool ran = false;
  q.schedule(20, [&] { ran = true; });
  q.cancel(b);
  drain(q);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, LargeCallablesFallBackToHeap) {
  // Callables above the inline capacity must still work (heap fallback).
  EventQueue q;
  std::array<std::uint64_t, 32> big{};  // 256 bytes, above inline storage
  big[0] = 7;
  big[31] = 9;
  std::uint64_t got = 0;
  q.schedule(1, [big, &got] { got = big[0] + big[31]; });
  drain(q);
  EXPECT_EQ(got, 16u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  // Schedule with descending times; expect ascending execution.
  std::vector<util::TimePoint> fired;
  for (int i = 999; i >= 0; --i) {
    q.schedule(i, [&fired, i] { fired.push_back(i); });
  }
  drain(q);
  ASSERT_EQ(fired.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[i], i);
}

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

TEST(EventQueue, SameInstantTiesAcrossLanesAndHeapKeepInsertionOrder) {
  EventQueue q;
  const LaneId lane = q.add_lanes(2);
  std::vector<int> order;
  auto rec = [&order](int i) { return [&order, i] { order.push_back(i); }; };
  q.schedule(5, rec(0));
  q.schedule(lane, 5, rec(1));
  q.schedule(5, rec(2));
  q.schedule(lane + 1, 5, rec(3));
  q.schedule(lane, 5, rec(4));
  q.schedule(lane + 1, 4, rec(5));  // earlier than its lane: to the heap
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{5, 0, 1, 2, 3, 4}));
}

TEST(EventQueue, OutOfOrderLanePushFallsBackToTheHeap) {
  EventQueue q;
  const LaneId lane = q.add_lanes(1);
  std::vector<int> order;
  q.schedule(lane, 10, [&] { order.push_back(10); });
  q.schedule(lane, 30, [&] { order.push_back(30); });
  q.schedule(lane, 5, [&] { order.push_back(5); });    // before the lane
  q.schedule(lane, 20, [&] { order.push_back(20); });  // still before 30
  q.schedule(lane, 30, [&] { order.push_back(31); });  // tie: after 30
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{5, 10, 20, 30, 31}));
}

TEST(EventQueue, CancelledLaneEntriesAreSkipped) {
  EventQueue q;
  const LaneId lane = q.add_lanes(1);
  std::vector<int> order;
  const EventId head = q.schedule(lane, 1, [&] { order.push_back(1); });
  q.schedule(lane, 2, [&] { order.push_back(2); });
  const EventId middle = q.schedule(lane, 3, [&] { order.push_back(3); });
  q.schedule(lane, 4, [&] { order.push_back(4); });
  const EventId last = q.schedule(lane, 5, [&] { order.push_back(5); });
  EXPECT_TRUE(q.cancel(head));
  EXPECT_TRUE(q.cancel(middle));
  EXPECT_TRUE(q.cancel(last));
  EXPECT_EQ(q.size(), 2u);
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
  // The lane drained through a cancelled tail and takes new entries.
  q.schedule(lane, 6, [&] { order.push_back(6); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{2, 4, 6}));
}

TEST(EventQueue, RunningEventCannotCancelItselfAndMaySchedule) {
  EventQueue q;
  const LaneId lane = q.add_lanes(1);
  EventId self = 0;
  bool cancelled_self = true;
  std::vector<int> order;
  self = q.schedule(lane, 1, [&] {
    cancelled_self = q.cancel(self);
    q.schedule(lane, 1, [&] { order.push_back(2); });
    q.schedule(1, [&] { order.push_back(3); });
    order.push_back(1);
  });
  EXPECT_EQ(drain(q), 3u);
  EXPECT_FALSE(cancelled_self);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // The running event's slot was not counted as pending: one at a time.
  EXPECT_EQ(q.high_water(), 2u);
}

TEST(EventQueue, CancelChurnStaysBounded) {
  // Per-message timer arm/cancel churn (the reliable-channel pattern) next
  // to lane traffic must not accumulate state: cancelled entries are dropped
  // as they surface and slots recycle.
  EventQueue q;
  const LaneId lane = q.add_lanes(8);
  util::TimePoint now = 0;
  std::vector<int> fired;
  for (int i = 0; i < 20000; ++i) {
    const EventId timer = q.schedule(now + 1000, [] {});
    q.schedule(lane + static_cast<LaneId>(i % 8), now + 1,
               [&fired, i] { fired.push_back(i); });
    q.cancel(timer);
    ASSERT_TRUE(q.run_next(kForever, &now));
  }
  EXPECT_EQ(fired.size(), 20000u);
  EXPECT_TRUE(q.empty());
  EXPECT_LT(q.high_water(), 16u);
  EXPECT_LT(q.state_bytes(), std::size_t{1} << 16);
}

// ---------------------------------------------------------------------------
// Differential test against a reference ordered map
// ---------------------------------------------------------------------------

/// Drives an EventQueue and a std::map keyed by (when, seq) with the same
/// random schedule/cancel/run sequence and checks them against each other
/// at every step. Events pick their own follow-ups when they run: schedule
/// on a lane or the heap, cancel themselves (a no-op), cancel another.
class Differential {
 public:
  static constexpr LaneId kLanes = 4;

  explicit Differential(std::uint64_t seed) : rng_(seed) {
    lane0_ = q_.add_lanes(kLanes);
    lane_tail_.assign(kLanes, 0);
  }

  void step() {
    const std::uint64_t op = rng_.uniform(10);
    if (op < 3) {
      schedule_random();
    } else if (op < 5) {
      cancel_random();
    } else {
      run_one(now_ + static_cast<util::TimePoint>(rng_.uniform(4)));
    }
    ASSERT_EQ(q_.size(), ref_.size());
    ASSERT_EQ(q_.empty(), ref_.empty());
  }

  void finish() {
    while (!ref_.empty()) run_one(kForever);
    util::TimePoint t = 0;
    EXPECT_FALSE(q_.run_next(kForever, &t));
  }

  std::size_t ran() const { return ran_; }
  std::size_t out_of_order() const { return out_of_order_; }
  std::size_t lane_cancels() const { return lane_cancels_; }
  std::size_t nested() const { return nested_; }

 private:
  using Key = std::pair<util::TimePoint, std::uint64_t>;
  struct Event {
    EventId id = 0;
    Key key;
    bool on_lane = false;
  };

  /// Small time steps, so same-instant ties are common.
  void schedule_random() {
    const auto when = now_ + static_cast<util::TimePoint>(rng_.uniform(6));
    if (rng_.uniform(2) == 0) {
      schedule(when, -1);
      return;
    }
    const auto lane = static_cast<LaneId>(rng_.uniform(kLanes));
    // Mostly in lane order (ties included); sometimes earlier than the
    // lane's latest entry, which must fall back to the heap.
    util::TimePoint at = std::max(lane_tail_[lane], now_) +
                         static_cast<util::TimePoint>(rng_.uniform(3));
    if (rng_.uniform(5) == 0) at = when;
    schedule(at, static_cast<int>(lane));
  }

  void schedule(util::TimePoint when, int lane) {
    const int tag = static_cast<int>(events_.size());
    Event ev;
    ev.key = Key{when, next_seq_++};
    auto fn = [this, tag] { on_run(tag); };
    if (lane < 0) {
      ev.id = q_.schedule(when, fn);
    } else {
      const auto l = static_cast<LaneId>(lane);
      ev.on_lane = true;
      if (when < lane_tail_[l]) ++out_of_order_;
      lane_tail_[l] = std::max(lane_tail_[l], when);
      ev.id = q_.schedule(lane0_ + l, when, fn);
    }
    events_.push_back(ev);
    ref_.emplace(ev.key, tag);
  }

  /// Cancels any event ever scheduled: pending, fired or cancelled.
  void cancel_random() {
    if (events_.empty()) return;
    const auto tag = static_cast<int>(rng_.uniform(events_.size()));
    cancel(tag);
  }

  void cancel(int tag) {
    const Event& ev = events_[static_cast<std::size_t>(tag)];
    const bool pending = ref_.erase(ev.key) == 1;
    if (pending && ev.on_lane) ++lane_cancels_;
    ASSERT_EQ(q_.cancel(ev.id), pending) << "tag " << tag;
  }

  void run_one(util::TimePoint deadline) {
    const bool due = !ref_.empty() && ref_.begin()->first.first <= deadline;
    expected_ = due ? ref_.begin()->second : -1;
    util::TimePoint t = now_;
    ASSERT_EQ(q_.run_next(deadline, &t), due);
    if (!due) return;
    EXPECT_EQ(t, events_[static_cast<std::size_t>(expected_)].key.first);
    now_ = t;
  }

  void on_run(int tag) {
    ASSERT_EQ(tag, expected_) << "ran out of (when, seq) order";
    ref_.erase(events_[static_cast<std::size_t>(tag)].key);
    now_ = events_[static_cast<std::size_t>(tag)].key.first;
    ++ran_;
    switch (rng_.uniform(6)) {
      case 0:
        cancel(tag);  // already running: must report false
        break;
      case 1:
        ++nested_;
        schedule_random();
        break;
      case 2:
        ++nested_;
        schedule_random();
        cancel_random();
        break;
      default:
        break;
    }
  }

  util::Rng rng_;
  EventQueue q_;
  LaneId lane0_ = 0;
  std::vector<util::TimePoint> lane_tail_;
  std::vector<Event> events_;
  std::map<Key, int> ref_;
  std::uint64_t next_seq_ = 0;
  util::TimePoint now_ = 0;
  int expected_ = -1;
  std::size_t ran_ = 0;
  std::size_t out_of_order_ = 0;
  std::size_t lane_cancels_ = 0;
  std::size_t nested_ = 0;
};

TEST(EventQueue, MatchesAnOrderedMapOnRandomSequences) {
  std::size_t ran = 0, out_of_order = 0, lane_cancels = 0, nested = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Differential d(seed);
    for (int i = 0; i < 2000; ++i) {
      d.step();
      if (testing::Test::HasFatalFailure()) FAIL() << "seed " << seed;
    }
    d.finish();
    if (testing::Test::HasFailure()) FAIL() << "seed " << seed;
    ran += d.ran();
    out_of_order += d.out_of_order();
    lane_cancels += d.lane_cancels();
    nested += d.nested();
  }
  // The sequences reached every path the test is meant to cover.
  EXPECT_GT(ran, 10000u);
  EXPECT_GT(out_of_order, 100u);
  EXPECT_GT(lane_cancels, 100u);
  EXPECT_GT(nested, 1000u);
}

}  // namespace
}  // namespace modcast::sim
