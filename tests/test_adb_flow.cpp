// Unit tests: the adb flow core both stacks share — the Batcher pool and
// adb::Flow's admission, pipelining gate and ordered decision application.
#include "adb/flow.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace modcast::adb {
namespace {

AppMessage msg(util::ProcessId origin, std::uint64_t seq,
               std::size_t bytes = 1) {
  return AppMessage{MsgId{origin, seq}, util::Bytes(bytes, 0)};
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
  const std::vector<AppMessage> batch = decode_batch(value);
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
  const std::vector<AppMessage> framed = decode_batch(r);
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
  EXPECT_THROW(decode_batch(util::Payload(w.take())), util::DecodeError);
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
  const std::vector<AppMessage> cut = b.cut(0);
  ASSERT_EQ(peeked.size(), 1u);
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_TRUE(peeked[0].payload.shares_buffer(m.payload));
  EXPECT_TRUE(cut[0].payload.shares_buffer(m.payload));
}

TEST(Batcher, CutStopsAtCountCap) {
  FlowConfig cfg;
  cfg.max_batch = 3;
  Batcher b(cfg);
  for (std::uint64_t s = 0; s < 5; ++s) EXPECT_TRUE(b.add(msg(0, s), 0));
  EXPECT_FALSE(b.add(msg(0, 2), 0));  // duplicate id
  EXPECT_EQ(ids(b.cut(0)),
            (std::vector<MsgId>{{0, 0}, {0, 1}, {0, 2}}));
  EXPECT_EQ(b.eligible(), 2u);
  EXPECT_EQ(ids(b.cut(1)), (std::vector<MsgId>{{0, 3}, {0, 4}}));
  EXPECT_EQ(b.eligible(), 0u);
  EXPECT_TRUE(b.cut(2).empty());
}

TEST(Batcher, CutStopsOnceByteCapIsReached) {
  FlowConfig cfg;
  cfg.batch_bytes = 10;
  Batcher b(cfg);
  for (std::uint64_t s = 0; s < 5; ++s) b.add(msg(0, s, 4), 0);
  // 4 + 4 < 10 leaves room; 12 bytes closes the batch.
  EXPECT_EQ(b.cut(0).size(), 3u);
  EXPECT_EQ(b.cut(1).size(), 2u);
}

TEST(Batcher, InFlightMessagesWaitForTheirInstanceToBeApplied) {
  FlowConfig cfg;
  cfg.max_batch = 2;
  Batcher b(cfg);
  for (std::uint64_t s = 0; s < 3; ++s) b.add(msg(0, s), 0);
  ASSERT_EQ(b.cut(0).size(), 2u);
  // Instance 0 orders only (0,0); (0,1) stays marked until 0 is applied.
  b.mark_ordered(MsgId{0, 0});
  EXPECT_EQ(ids(b.peek(8)), (std::vector<MsgId>{{0, 1}, {0, 2}}));
  EXPECT_EQ(ids(b.cut(1)), (std::vector<MsgId>{{0, 2}}));
  EXPECT_TRUE(b.cut(2).empty());
  b.on_decided(0);
  EXPECT_EQ(b.eligible(), 1u);
  EXPECT_EQ(ids(b.cut(2)), (std::vector<MsgId>{{0, 1}}));
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
  b.cut(0);
  EXPECT_EQ(ids(b.peek(8)),
            (std::vector<MsgId>{{1, 0}, {1, 1}, {1, 2}}));
  EXPECT_EQ(ids(b.peek(1)), (std::vector<MsgId>{{1, 0}}));
  EXPECT_EQ(b.eligible(), 1u);
}

// ---------------------------------------------------------------------------
// Flow
// ---------------------------------------------------------------------------

/// Applies every buffered decision in order; returns the delivered ids.
std::vector<MsgId> apply_ready(Flow& f) {
  std::vector<MsgId> out;
  while (const util::Payload* value = f.next_decision()) {
    f.apply_next(decode_batch(*value),
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
