// Unit tests: experiment harness (workload/experiment) and ADB service
// wire types (adb/types).
#include "workload/experiment.hpp"

#include <gtest/gtest.h>

#include "adb/types.hpp"

namespace modcast::workload {
namespace {

using util::seconds;

WorkloadConfig quick(double load, std::size_t size) {
  WorkloadConfig wl;
  wl.offered_load = load;
  wl.message_size = size;
  wl.warmup = seconds(1);
  wl.measure = seconds(2);
  return wl;
}

TEST(Experiment, LowLoadThroughputTracksOfferedLoad) {
  core::StackOptions stack;
  for (auto kind : {core::StackKind::kModular, core::StackKind::kMonolithic}) {
    stack.kind = kind;
    auto r = run_once(3, stack, quick(200, 512), 1);
    EXPECT_NEAR(r.throughput, 200.0, 12.0) << core::to_string(kind);
    EXPECT_GT(r.latencies_ms.count(), 100u);
    EXPECT_GT(r.latencies_ms.mean(), 0.0);
    EXPECT_LT(r.cpu_utilization, 0.9);
  }
}

TEST(Experiment, OverloadSaturatesBelowOffered) {
  core::StackOptions stack;
  stack.kind = core::StackKind::kModular;
  auto r = run_once(3, stack, quick(8000, 16384), 1);
  EXPECT_LT(r.throughput, 4000.0);
  EXPECT_GT(r.throughput, 100.0);
  EXPECT_GT(r.cpu_utilization, 0.5);  // the system is genuinely busy
  EXPECT_GT(r.avg_batch, 1.5);        // batching kicked in
}

TEST(Experiment, MetricsArePerConsensusConsistent) {
  core::StackOptions stack;
  stack.kind = core::StackKind::kMonolithic;
  auto r = run_once(3, stack, quick(2000, 1024), 1);
  ASSERT_GT(r.instances, 0u);
  // unique messages ≈ instances × avg batch.
  EXPECT_NEAR(static_cast<double>(r.unique_delivered),
              static_cast<double>(r.instances) * r.avg_batch,
              static_cast<double>(r.unique_delivered) * 0.10);
  EXPECT_GT(r.protocol_msgs_per_abcast, 0.0);
  EXPECT_GT(r.protocol_bytes_per_abcast, 1024.0);  // at least its own payload
}

TEST(Experiment, DeterministicPerSeed) {
  core::StackOptions stack;
  stack.kind = core::StackKind::kModular;
  auto a = run_once(3, stack, quick(500, 256), 42);
  auto b = run_once(3, stack, quick(500, 256), 42);
  EXPECT_EQ(a.unique_delivered, b.unique_delivered);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.latencies_ms.mean(), b.latencies_ms.mean());
}

TEST(Experiment, AggregateProducesConfidenceIntervals) {
  core::StackOptions stack;
  stack.kind = core::StackKind::kModular;
  auto agg = run_experiment(3, stack, quick(300, 256), 3);
  EXPECT_EQ(agg.latency_ms.count, 3u);
  EXPECT_EQ(agg.throughput.count, 3u);
  EXPECT_GT(agg.latency_ms.mean, 0.0);
  EXPECT_NEAR(agg.throughput.mean, 300.0, 15.0);
  // Different seeds differ slightly: a finite CI width is expected.
  EXPECT_GE(agg.latency_ms.half_width, 0.0);
}

}  // namespace
}  // namespace modcast::workload

namespace modcast::adb {
namespace {

TEST(AdbTypes, MessageRoundTrip) {
  AppMessage m;
  m.id = {4, 12345};
  m.payload = util::Bytes{9, 8, 7, 6};
  util::ByteWriter w;
  encode_message(w, m);
  EXPECT_EQ(w.size(), encoded_size(m));
  const util::Payload frame(w.take());
  util::ByteReader r(frame);
  AppMessage back = decode_message(r, 5);
  EXPECT_EQ(back.id, m.id);
  EXPECT_EQ(back.payload, m.payload);
}

TEST(AdbTypes, BatchRoundTrip) {
  std::vector<AppMessage> batch;
  for (std::uint32_t i = 0; i < 5; ++i) {
    batch.push_back({{i, i * 100}, util::Bytes(i, static_cast<uint8_t>(i))});
  }
  auto encoded = encode_batch(batch);
  auto decoded = decode_batch(encoded, 5);
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded[i].id, batch[i].id);
    EXPECT_EQ(decoded[i].payload, batch[i].payload);
  }
}

TEST(AdbTypes, EmptyBatch) {
  auto encoded = encode_batch({});
  EXPECT_EQ(encoded.size(), 4u);
  EXPECT_TRUE(decode_batch(encoded, 1).empty());
}

TEST(AdbTypes, MsgIdOrdering) {
  EXPECT_LT((MsgId{0, 5}), (MsgId{1, 0}));
  EXPECT_LT((MsgId{1, 0}), (MsgId{1, 1}));
  EXPECT_EQ((MsgId{2, 3}), (MsgId{2, 3}));
}

TEST(AdbTypes, CorruptBatchThrows) {
  util::Bytes bad = {0xff, 0xff, 0xff, 0xff};  // claims 4 billion messages
  EXPECT_THROW(decode_batch(bad, 1), util::DecodeError);
}

}  // namespace
}  // namespace modcast::adb
