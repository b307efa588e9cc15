// Tests: quasi-reliable channel layer (channel/reliable_channel).
#include "channel/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/sim_group.hpp"
#include "runtime/sim_world.hpp"
#include "util/rng.hpp"

namespace modcast::channel {
namespace {

using util::Bytes;
using util::milliseconds;
using util::ProcessId;
using util::seconds;

/// Records in-order deliveries from the channel.
class Sink : public runtime::Protocol {
 public:
  void on_message(ProcessId from, util::Payload msg) override {
    received.emplace_back(from, msg.to_bytes());
  }
  std::vector<std::pair<ProcessId, Bytes>> received;
};

struct Fixture {
  explicit Fixture(std::size_t n, ChannelConfig cc = {}) {
    runtime::SimWorldConfig wc;
    wc.n = n;
    // Zero CPU costs: channel arithmetic is what is under test.
    wc.cpu.recv_base = 0;
    wc.cpu.recv_ns_per_byte = 0;
    wc.cpu.send_base = 0;
    wc.cpu.send_ns_per_byte = 0;
    world = std::make_unique<runtime::SimWorld>(wc);
    for (ProcessId p = 0; p < n; ++p) {
      sinks.push_back(std::make_unique<Sink>());
      channels.push_back(
          std::make_unique<ReliableChannel>(world->runtime(p), cc));
      channels.back()->set_upper(sinks.back().get());
      world->attach(p, channels.back().get());
    }
    world->start();
  }
  std::unique_ptr<runtime::SimWorld> world;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<std::unique_ptr<ReliableChannel>> channels;
};

Bytes payload(int i) { return Bytes{static_cast<std::uint8_t>(i)}; }

TEST(ReliableChannel, InOrderDeliveryWithoutLoss) {
  Fixture f(2);
  f.world->simulator().at(0, [&] {
    for (int i = 0; i < 20; ++i) f.channels[0]->send(1, payload(i));
  });
  f.world->run_until(seconds(1));
  ASSERT_EQ(f.sinks[1]->received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(f.sinks[1]->received[i].second, payload(i));
  }
  EXPECT_EQ(f.channels[0]->stats().retransmissions, 0u);
}

TEST(ReliableChannel, RecoverFromSingleDrop) {
  Fixture f(2);
  int to_drop = 1;  // drop exactly the first data segment
  f.world->network().set_drop([&to_drop](ProcessId from, ProcessId) {
    return from == 0 && to_drop-- > 0;
  });
  f.world->simulator().at(0, [&] {
    for (int i = 0; i < 5; ++i) f.channels[0]->send(1, payload(i));
  });
  f.world->run_until(seconds(2));
  ASSERT_EQ(f.sinks[1]->received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.sinks[1]->received[i].second, payload(i)) << i;
  }
  EXPECT_GE(f.channels[0]->stats().retransmissions, 1u);
  EXPECT_GE(f.channels[1]->stats().out_of_order_buffered, 1u);
}

TEST(ReliableChannel, SurvivesHeavyRandomLoss) {
  Fixture f(3);
  auto rng = std::make_shared<util::Rng>(99);
  f.world->network().set_drop([rng](ProcessId, ProcessId) {
    return rng->chance(0.3);
  });
  constexpr int kCount = 50;
  f.world->simulator().at(0, [&] {
    for (int i = 0; i < kCount; ++i) {
      f.channels[0]->send(1, payload(i));
      f.channels[2]->send(1, payload(100 + i));
    }
  });
  f.world->run_until(seconds(10));
  ASSERT_EQ(f.sinks[1]->received.size(), 2u * kCount);
  // Per-sender FIFO despite 30% loss.
  int next0 = 0, next2 = 100;
  for (auto& [from, msg] : f.sinks[1]->received) {
    if (from == 0) {
      EXPECT_EQ(msg, payload(next0++));
    } else {
      EXPECT_EQ(msg, payload(next2++));
    }
  }
}

TEST(ReliableChannel, DuplicatesFromLostAcksAreSuppressed) {
  Fixture f(2);
  // Drop every ack from p1 for a while: p0 retransmits, p1 must dedup.
  int drops = 6;
  f.world->network().set_drop([&drops](ProcessId from, ProcessId) {
    return from == 1 && drops-- > 0;
  });
  f.world->simulator().at(0, [&] { f.channels[0]->send(1, payload(7)); });
  f.world->run_until(seconds(2));
  ASSERT_EQ(f.sinks[1]->received.size(), 1u);
  EXPECT_GE(f.channels[1]->stats().duplicates_dropped, 1u);
}

TEST(ReliableChannel, SelfSendBypasses) {
  Fixture f(2);
  f.world->simulator().at(0, [&] { f.channels[0]->send(0, payload(3)); });
  f.world->run_until(milliseconds(10));
  ASSERT_EQ(f.sinks[0]->received.size(), 1u);
  EXPECT_EQ(f.sinks[0]->received[0].second, payload(3));
  EXPECT_EQ(f.channels[0]->stats().data_sent, 0u);
}

TEST(ReliableChannel, BidirectionalPiggybackedAcks) {
  ChannelConfig cc;
  cc.ack_delay = milliseconds(5);
  Fixture f(2, cc);
  f.world->simulator().at(0, [&] {
    for (int i = 0; i < 10; ++i) {
      f.channels[0]->send(1, payload(i));
      f.channels[1]->send(0, payload(50 + i));
    }
  });
  f.world->run_until(seconds(1));
  EXPECT_EQ(f.sinks[0]->received.size(), 10u);
  EXPECT_EQ(f.sinks[1]->received.size(), 10u);
  // Chatter acks heavily suppressed by piggybacking + delayed acks.
  EXPECT_LT(f.channels[0]->stats().acks_sent, 10u);
}

// The headline integration: the full atomic broadcast stacks, unchanged,
// over a 10%-lossy network with the channel layer providing the
// quasi-reliable service they assume.
class LossyAbcast : public ::testing::TestWithParam<core::StackKind> {};

TEST_P(LossyAbcast, ContractHoldsOverLossyNetwork) {
  core::SimGroupConfig cfg;
  cfg.n = 3;
  cfg.stack.kind = GetParam();
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(150);
  cfg.stack.flow.liveness_timeout = milliseconds(200);
  cfg.drop_probability = 0.10;
  cfg.reliable_channels = true;
  core::SimGroup group(cfg);
  group.start();
  for (ProcessId p = 0; p < 3; ++p) {
    for (int i = 0; i < 20; ++i) {
      group.world().simulator().at(
          milliseconds(1 + p) + i * milliseconds(8), [&group, p] {
            group.process(p).abcast(Bytes(64, 0x42));
          });
    }
  }
  group.run_until(seconds(15));
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
  EXPECT_EQ(group.deliveries(0).size(), 60u);
  // The channels really did repair losses.
  std::uint64_t retransmissions = 0;
  for (ProcessId p = 0; p < 3; ++p) {
    retransmissions += group.channel_of(p)->stats().retransmissions;
  }
  EXPECT_GT(retransmissions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Stacks, LossyAbcast,
                         ::testing::Values(core::StackKind::kModular,
                                           core::StackKind::kMonolithic),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

}  // namespace
}  // namespace modcast::channel
