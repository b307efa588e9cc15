// Unit tests: the adb flow core both stacks share — the Batcher pool and
// adb::Flow's admission, pipelining gate and ordered decision application.
#include "adb/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace modcast::adb {
namespace {

AppMessage msg(util::ProcessId origin, std::uint64_t seq,
               std::size_t bytes = 1) {
  return AppMessage{MsgId{origin, seq}, util::Bytes(bytes, 0)};
}

/// Batcher::cut into a fresh vector.
std::vector<AppMessage> cut(Batcher& b, std::uint64_t k) {
  std::vector<AppMessage> batch;
  b.cut(k, batch);
  return batch;
}

std::vector<MsgId> ids(const std::vector<AppMessage>& batch) {
  std::vector<MsgId> out;
  for (const AppMessage& m : batch) out.push_back(m.id);
  return out;
}

// ---------------------------------------------------------------------------
// Zero-copy codec
// ---------------------------------------------------------------------------

TEST(AdbCodec, DecodedBatchSharesTheValuesBuffer) {
  const util::Payload value = encode_batch({msg(1, 0, 64), msg(2, 5, 16)});
  const std::vector<AppMessage> batch = decode_batch(value, 3);
  ASSERT_EQ(batch.size(), 2u);
  for (const AppMessage& m : batch) {
    EXPECT_TRUE(m.payload.shares_buffer(value));
  }
  EXPECT_EQ(batch[0].payload.size(), 64u);
  EXPECT_EQ(batch[1].id, (MsgId{2, 5}));
  // A batch encoded straight into a frame after a header decodes the same
  // way from the frame's reader.
  util::ByteWriter w;
  w.u8(9);
  encode_batch(w, {msg(3, 1, 8)});
  const util::Payload frame(w.take());
  util::ByteReader r(frame);
  r.u8();
  const std::vector<AppMessage> framed = decode_batch(r, 4);
  ASSERT_EQ(framed.size(), 1u);
  EXPECT_TRUE(framed[0].payload.shares_buffer(frame));
  EXPECT_TRUE(r.done());
}

TEST(AdbCodec, BlobOverrunningTheValueThrows) {
  // One message whose payload length claims more bytes than remain.
  util::ByteWriter w;
  w.u32(1);
  w.u32(0);
  w.u64(0);
  w.u32(1000);
  w.raw(util::Bytes(8, 0));
  EXPECT_THROW(decode_batch(util::Payload(w.take()), 1), util::DecodeError);
}

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

TEST(Batcher, CutAndPeekShareThePooledPayloads) {
  FlowConfig cfg;
  Batcher b(cfg);
  const AppMessage m = msg(0, 0, 16384);
  b.add(m, 0);
  const std::vector<AppMessage> peeked = b.peek(8);
  const std::vector<AppMessage> batch = cut(b, 0);
  ASSERT_EQ(peeked.size(), 1u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(peeked[0].payload.shares_buffer(m.payload));
  EXPECT_TRUE(batch[0].payload.shares_buffer(m.payload));
}

TEST(Batcher, CutStopsAtCountCap) {
  FlowConfig cfg;
  cfg.max_batch = 3;
  Batcher b(cfg);
  for (std::uint64_t s = 0; s < 5; ++s) EXPECT_TRUE(b.add(msg(0, s), 0));
  EXPECT_FALSE(b.add(msg(0, 2), 0));  // duplicate id
  EXPECT_EQ(ids(cut(b, 0)),
            (std::vector<MsgId>{{0, 0}, {0, 1}, {0, 2}}));
  EXPECT_EQ(b.eligible(), 2u);
  EXPECT_EQ(ids(cut(b, 1)), (std::vector<MsgId>{{0, 3}, {0, 4}}));
  EXPECT_EQ(b.eligible(), 0u);
  EXPECT_TRUE(cut(b, 2).empty());
}

TEST(Batcher, CutStopsOnceByteCapIsReached) {
  FlowConfig cfg;
  cfg.batch_bytes = 10;
  Batcher b(cfg);
  for (std::uint64_t s = 0; s < 5; ++s) b.add(msg(0, s, 4), 0);
  // 4 + 4 < 10 leaves room; 12 bytes closes the batch.
  EXPECT_EQ(cut(b, 0).size(), 3u);
  EXPECT_EQ(cut(b, 1).size(), 2u);
}

TEST(Batcher, InFlightMessagesWaitForTheirInstanceToBeApplied) {
  FlowConfig cfg;
  cfg.max_batch = 2;
  Batcher b(cfg);
  for (std::uint64_t s = 0; s < 3; ++s) b.add(msg(0, s), 0);
  ASSERT_EQ(cut(b, 0).size(), 2u);
  // Instance 0 orders only (0,0); (0,1) stays marked until 0 is applied.
  b.mark_ordered(MsgId{0, 0});
  EXPECT_EQ(ids(b.peek(8)), (std::vector<MsgId>{{0, 1}, {0, 2}}));
  EXPECT_EQ(ids(cut(b, 1)), (std::vector<MsgId>{{0, 2}}));
  EXPECT_TRUE(cut(b, 2).empty());
  b.on_decided(0);
  EXPECT_EQ(b.eligible(), 1u);
  EXPECT_EQ(ids(cut(b, 2)), (std::vector<MsgId>{{0, 1}}));
}

TEST(Batcher, DelayTriggerWaitsUntilDeadlineOrCap) {
  FlowConfig cfg;
  cfg.max_batch = 3;
  cfg.batch_delay = 100;
  Batcher b(cfg);
  EXPECT_FALSE(b.ready(0));
  b.add(msg(0, 0), 10);
  EXPECT_FALSE(b.ready(50));
  EXPECT_EQ(b.deadline(), 110);
  EXPECT_TRUE(b.ready(110));
  b.add(msg(0, 1), 20);
  b.add(msg(0, 2), 30);
  EXPECT_TRUE(b.ready(30));  // count cap reached before the deadline

  FlowConfig eager;
  Batcher e(eager);
  e.add(msg(0, 0), 10);
  EXPECT_TRUE(e.ready(10));
}

TEST(Batcher, PeekCoversInFlightEntriesAndMarksNothing) {
  FlowConfig cfg;
  cfg.max_batch = 2;
  Batcher b(cfg);
  for (std::uint64_t s = 0; s < 3; ++s) b.add(msg(1, s), 0);
  cut(b, 0);
  EXPECT_EQ(ids(b.peek(8)),
            (std::vector<MsgId>{{1, 0}, {1, 1}, {1, 2}}));
  EXPECT_EQ(ids(b.peek(1)), (std::vector<MsgId>{{1, 0}}));
  EXPECT_EQ(b.eligible(), 1u);
}

TEST(Batcher, OrderedEntryReleasesItsPayloadAtOnce) {
  FlowConfig cfg;
  Batcher b(cfg);
  const AppMessage m = msg(0, 0, 16384);
  const AppMessage other = msg(1, 0, 16);
  b.add(m, 0);
  b.add(other, 0);
  cut(b, 0);  // both ride instance 0: the dead entry stays until it applies
  EXPECT_EQ(m.payload.use_count(), 2);
  b.mark_ordered(m.id);
  EXPECT_EQ(m.payload.use_count(), 1);  // the pool no longer pins the frame
  EXPECT_EQ(other.payload.use_count(), 2);
}

/// The set-based pool this Batcher replaced, kept as the reference its
/// flat pool must match step by step: a deque of entries in arrival order,
/// the live ids, the ids riding an undecided proposal and each instance's
/// marks. One change: an ordered entry leaves the deque at once. The old
/// pool removed it at the next cut, so an id re-added before then revived
/// the dead entry too (the id twice in a batch, the old timestamp for the
/// δ-time trigger). adb::Flow never re-adds an ordered id, so no run could
/// see that.
class ReferenceBatcher {
 public:
  explicit ReferenceBatcher(const FlowConfig& config) : config_(config) {}

  bool add(AppMessage m, util::TimePoint now) {
    if (!ids_.insert(m.id).second) return false;
    fifo_.push_back(Entry{std::move(m), now});
    return true;
  }
  void mark_ordered(const MsgId& id) {
    if (ids_.erase(id) == 0) return;
    fifo_.erase(std::find_if(fifo_.begin(), fifo_.end(),
                             [&id](const Entry& e) { return e.msg.id == id; }));
  }
  bool empty() const { return ids_.empty(); }
  std::size_t eligible() const {
    std::size_t live_proposed = 0;
    for (const MsgId& id : proposed_) live_proposed += ids_.count(id);
    return ids_.size() - live_proposed;
  }
  bool ready(util::TimePoint now) const {
    std::size_t count = 0;
    std::size_t bytes = 0;
    bool have_oldest = false;
    util::TimePoint oldest = 0;
    for (const Entry& e : fifo_) {
      if (ids_.count(e.msg.id) == 0 || proposed_.count(e.msg.id) != 0)
        continue;
      if (!have_oldest) {
        have_oldest = true;
        oldest = e.added_at;
      }
      if (config_.batch_delay == 0) return true;
      ++count;
      bytes += e.msg.payload.size();
      if (count >= config_.max_batch) return true;
      if (config_.batch_bytes > 0 && bytes >= config_.batch_bytes) return true;
    }
    return have_oldest && now - oldest >= config_.batch_delay;
  }
  util::TimePoint deadline() const {
    for (const Entry& e : fifo_) {
      if (ids_.count(e.msg.id) == 0 || proposed_.count(e.msg.id) != 0)
        continue;
      return e.added_at + config_.batch_delay;
    }
    return 0;
  }
  std::vector<AppMessage> cut(std::uint64_t k) {
    std::vector<AppMessage> batch;
    std::size_t batch_bytes = 0;
    std::deque<Entry> keep;
    for (Entry& e : fifo_) {
      if (ids_.count(e.msg.id) == 0) continue;
      const bool room =
          batch.size() < config_.max_batch &&
          (config_.batch_bytes == 0 || batch_bytes < config_.batch_bytes);
      if (room && proposed_.count(e.msg.id) == 0) {
        batch.push_back(e.msg);
        batch_bytes += e.msg.payload.size();
      }
      keep.push_back(std::move(e));
    }
    fifo_ = std::move(keep);
    for (const AppMessage& m : batch) {
      proposed_.insert(m.id);
      in_flight_[k].push_back(m.id);
    }
    return batch;
  }
  void on_decided(std::uint64_t k) {
    auto it = in_flight_.find(k);
    if (it == in_flight_.end()) return;
    for (const MsgId& id : it->second) proposed_.erase(id);
    in_flight_.erase(it);
  }
  std::vector<MsgId> live() const {
    std::vector<MsgId> out;
    for (const Entry& e : fifo_) {
      if (ids_.count(e.msg.id) != 0) out.push_back(e.msg.id);
    }
    return out;
  }
  std::vector<MsgId> peek(std::size_t cap) const {
    std::vector<MsgId> out = live();
    if (out.size() > cap) out.resize(cap);
    return out;
  }

 private:
  struct Entry {
    AppMessage msg;
    util::TimePoint added_at = 0;
  };
  FlowConfig config_;
  std::deque<Entry> fifo_;
  std::set<MsgId> ids_;
  std::set<MsgId> proposed_;
  std::map<std::uint64_t, std::vector<MsgId>> in_flight_;
};

/// Drives a Batcher and the reference with one seeded random sequence of
/// add / cut / mark_ordered / on_decided / peek / ready / deadline calls and
/// compares every result. Ids come from a few origins, mostly in seq order,
/// with re-adds of ordered ids; instances decide out of order and some ids
/// are ordered while their instance is still undecided.
void run_model(std::uint64_t seed, const FlowConfig& cfg) {
  util::Rng rng(seed);
  Batcher b(cfg);
  ReferenceBatcher ref(cfg);
  std::vector<std::uint64_t> next_seq(4, 0);
  std::vector<MsgId> added;
  std::vector<std::uint64_t> undecided;
  std::uint64_t next_k = 0;
  util::TimePoint now = 0;
  for (int step = 0; step < 1000; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    now += static_cast<util::TimePoint>(rng.uniform(30));
    const std::uint64_t op = rng.uniform(100);
    if (op < 35) {
      MsgId id;
      if (!added.empty() && rng.chance(0.15)) {
        id = added[rng.uniform(added.size())];  // duplicate or re-add
      } else {
        id.origin = static_cast<util::ProcessId>(rng.uniform(4));
        // Mostly the next seq; sometimes one skipped ahead or left behind.
        const std::uint64_t jump = rng.chance(0.1) ? rng.uniform(4) : 0;
        id.seq = next_seq[id.origin] + jump;
        next_seq[id.origin] = std::max(next_seq[id.origin], id.seq + 1);
      }
      added.push_back(id);
      const std::size_t size = 1 + rng.uniform(8);
      ASSERT_EQ(b.add(AppMessage{id, util::Bytes(size, 0)}, now),
                ref.add(AppMessage{id, util::Bytes(size, 0)}, now));
    } else if (op < 55) {
      // Mostly a fresh instance; sometimes one cut already.
      const std::uint64_t k = (!undecided.empty() && rng.chance(0.1))
                                  ? undecided[rng.uniform(undecided.size())]
                                  : next_k++;
      const std::vector<AppMessage> got = cut(b, k);
      ASSERT_EQ(ids(got), ids(ref.cut(k)));
      if (std::find(undecided.begin(), undecided.end(), k) ==
          undecided.end())
        undecided.push_back(k);
    } else if (op < 80) {
      if (added.empty()) continue;
      const MsgId id = added[rng.uniform(added.size())];
      b.mark_ordered(id);
      ref.mark_ordered(id);
    } else if (op < 92) {
      if (undecided.empty()) continue;
      const std::size_t i = rng.uniform(undecided.size());
      b.on_decided(undecided[i]);
      ref.on_decided(undecided[i]);
      undecided.erase(undecided.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const std::size_t cap = rng.uniform(10);
      ASSERT_EQ(ids(b.peek(cap)), ref.peek(cap));
    }
    ASSERT_EQ(b.empty(), ref.empty());
    ASSERT_EQ(b.eligible(), ref.eligible());
    ASSERT_EQ(b.ready(now), ref.ready(now));
    if (b.eligible() > 0) {
      ASSERT_EQ(b.deadline(), ref.deadline());
    }
    std::vector<MsgId> live;
    b.for_each_live([&live](const AppMessage& m) { live.push_back(m.id); });
    ASSERT_EQ(live, ref.live());
  }
}

TEST(Batcher, MatchesTheSetBasedReferenceOnRandomSequences) {
  FlowConfig eager;
  eager.max_batch = 3;
  FlowConfig capped;
  capped.max_batch = 5;
  capped.batch_bytes = 12;
  capped.batch_delay = 40;
  FlowConfig uncapped;
  uncapped.batch_delay = 100;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_model(seed, eager);
    run_model(seed, capped);
    run_model(seed, uncapped);
  }
}

// ---------------------------------------------------------------------------
// Flow
// ---------------------------------------------------------------------------

/// Applies every buffered decision in order; returns the delivered ids.
std::vector<MsgId> apply_ready(Flow& f) {
  std::vector<MsgId> out;
  while (const util::Payload* value = f.next_decision()) {
    f.apply_next(decode_batch(*value, 4),
                 [&out](const AppMessage& m) { out.push_back(m.id); });
  }
  return out;
}

TEST(Flow, AdmitsFifoUnderTheWindowWithPredictedSeqs) {
  FlowConfig cfg;
  cfg.window = 2;
  Flow f(cfg);
  f.set_self(1);
  EXPECT_EQ(f.enqueue(util::Bytes{'a'}), 0u);
  EXPECT_EQ(f.enqueue(util::Bytes{'b'}), 1u);
  EXPECT_EQ(f.enqueue(util::Bytes{'c'}), 2u);

  std::optional<AppMessage> m = f.admit_next();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, (MsgId{1, 0}));
  EXPECT_EQ(m->payload, util::Bytes{'a'});
  ASSERT_TRUE(f.admit_next().has_value());
  EXPECT_FALSE(f.admit_next().has_value());  // window full
  EXPECT_EQ(f.queued(), 1u);
  EXPECT_EQ(f.in_flight(), 2u);
  EXPECT_EQ(f.enqueue(util::Bytes{'d'}), 3u);

  // Delivering (1,0) frees one slot: the next admission is (1,2), 'c'.
  f.buffer_decision(0, encode_batch({msg(1, 0)}));
  apply_ready(f);
  EXPECT_EQ(f.in_flight(), 1u);
  m = f.admit_next();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, (MsgId{1, 2}));
  EXPECT_EQ(m->payload, util::Bytes{'c'});
  EXPECT_EQ(f.stats().admitted, 3u);
}

TEST(Flow, OutOfOrderDecisionWaitsForItsPredecessor) {
  Flow f(FlowConfig{});
  f.set_self(0);
  EXPECT_TRUE(f.buffer_decision(1, encode_batch({msg(2, 0)})));
  EXPECT_EQ(f.next_decision(), nullptr);
  EXPECT_TRUE(apply_ready(f).empty());
  EXPECT_EQ(f.buffered_decisions(), 1u);

  EXPECT_TRUE(f.buffer_decision(0, encode_batch({msg(1, 1), msg(1, 0)})));
  // Instance 0 first, sorted by id; then the buffered instance 1.
  EXPECT_EQ(apply_ready(f), (std::vector<MsgId>{{1, 0}, {1, 1}, {2, 0}}));
  EXPECT_EQ(f.next_decide(), 2u);
  EXPECT_EQ(f.next_instance(), 2u);
  EXPECT_EQ(f.buffered_decisions(), 0u);
  EXPECT_FALSE(f.buffer_decision(1, encode_batch({})));  // already applied
}

TEST(Flow, DuplicateIdsAcrossInstancesAreDeliveredOnce) {
  Flow f(FlowConfig{});
  f.set_self(0);
  f.buffer_decision(0, encode_batch({msg(1, 0), msg(2, 0)}));
  f.buffer_decision(1, encode_batch({msg(2, 0), msg(2, 1)}));
  EXPECT_EQ(apply_ready(f), (std::vector<MsgId>{{1, 0}, {2, 0}, {2, 1}}));
  EXPECT_EQ(f.stats().delivered, 3u);
  EXPECT_EQ(f.stats().messages_in_decisions, 3u);
  EXPECT_EQ(f.stats().instances_completed, 2u);
  EXPECT_TRUE(f.delivered(MsgId{2, 0}));
  // A delivered message is never pooled again.
  EXPECT_FALSE(f.pool_add(msg(2, 0), 0));
  EXPECT_TRUE(f.pool().empty());
}

TEST(Flow, InFlightDropsOnlyForOwnMessages) {
  FlowConfig cfg;
  cfg.window = 4;
  Flow f(cfg);
  f.set_self(0);
  f.enqueue(util::Bytes{'x'});
  ASSERT_TRUE(f.admit_next().has_value());
  f.buffer_decision(0, encode_batch({msg(1, 0), msg(2, 0)}));
  apply_ready(f);
  EXPECT_EQ(f.in_flight(), 1u);
  f.buffer_decision(1, encode_batch({msg(0, 0), msg(1, 1)}));
  apply_ready(f);
  EXPECT_EQ(f.in_flight(), 0u);
}

TEST(Flow, PipelineGateBoundsUndecidedInstances) {
  FlowConfig cfg;
  cfg.max_batch = 1;
  cfg.pipeline_depth = 2;
  Flow f(cfg);
  f.set_self(0);
  for (std::uint64_t s = 0; s < 3; ++s) f.pool_add(msg(1, s), 0);
  EXPECT_EQ(ids(f.cut()), (std::vector<MsgId>{{1, 0}}));
  EXPECT_EQ(ids(f.cut()), (std::vector<MsgId>{{1, 1}}));
  EXPECT_TRUE(f.pipeline_full());
  EXPECT_EQ(f.stats().max_inflight_instances, 2u);

  // Applying instance 0 opens a slot; its message leaves the pool.
  f.buffer_decision(0, encode_batch({msg(1, 0)}));
  apply_ready(f);
  EXPECT_FALSE(f.pipeline_full());
  EXPECT_EQ(f.next_instance(), 2u);
  EXPECT_EQ(ids(f.cut()), (std::vector<MsgId>{{1, 2}}));
  EXPECT_TRUE(f.cut().empty());  // nothing eligible: the counter stays
  EXPECT_EQ(f.next_instance(), 3u);
}

TEST(Flow, RecoveryBatchCoversInFlightAndSkipsPastTheInstance) {
  FlowConfig cfg;
  cfg.max_batch = 2;
  Flow f(cfg);
  f.set_self(0);
  for (std::uint64_t s = 0; s < 3; ++s) f.pool_add(msg(1, s), 0);
  f.cut();  // (1,0) and (1,1) ride instance 0
  EXPECT_EQ(ids(f.recovery_batch(4)),
            (std::vector<MsgId>{{1, 0}, {1, 1}}));
  EXPECT_EQ(f.next_instance(), 5u);
}

}  // namespace
}  // namespace modcast::adb
