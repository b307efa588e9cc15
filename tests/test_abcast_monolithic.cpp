// Integration + fault-injection tests: monolithic atomic broadcast stack.
#include "monolithic/monolithic_abcast.hpp"

#include <gtest/gtest.h>

#include "analysis/analytical_model.hpp"
#include "core/sim_group.hpp"

namespace modcast::monolithic {
namespace {

using util::milliseconds;
using util::seconds;

core::SimGroupConfig mono_config(std::size_t n, std::uint64_t seed = 1) {
  core::SimGroupConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.stack.kind = core::StackKind::kMonolithic;
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(100);
  cfg.stack.flow.liveness_timeout = milliseconds(150);
  return cfg;
}

void feed(core::SimGroup& g, util::ProcessId p, int count,
          util::Duration start, util::Duration gap, std::size_t size = 32) {
  for (int i = 0; i < count; ++i) {
    g.world().simulator().at(start + i * gap, [&g, p, size] {
      if (!g.crashed(p)) g.process(p).abcast(util::Bytes(size, 0xab));
    });
  }
}

class MonolithicGroupSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MonolithicGroupSizes, TotalOrderAndAgreementUnderLoad) {
  const std::size_t n = GetParam();
  core::SimGroup group(mono_config(n));
  group.start();
  for (util::ProcessId p = 0; p < n; ++p) {
    feed(group, p, 30, milliseconds(1 + p), milliseconds(7));
  }
  group.run_until(seconds(5));
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
  EXPECT_EQ(group.deliveries(0).size(), 30u * n);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, MonolithicGroupSizes,
                         ::testing::Values(2, 3, 4, 5, 7));

TEST(MonolithicMessages, SteadyStateCountMatchesFormula) {
  // §5.2.1: 2(n−1) messages per consensus execution at saturation.
  const std::size_t n = 3;
  core::SimGroupConfig cfg = mono_config(n);
  cfg.stack.flow.max_batch = 4;
  cfg.stack.flow.window = 4;
  core::SimGroup group(cfg);
  group.start();
  for (util::ProcessId p = 0; p < n; ++p) {
    feed(group, p, 400, milliseconds(1), milliseconds(1), 64);
  }
  struct Snap {
    std::uint64_t msgs = 0;
    std::uint64_t instances = 0;
  } base;
  auto totals = [&] {
    Snap s;
    for (util::ProcessId p = 0; p < n; ++p) {
      s.msgs += group.process(p).stack()
                    .wire_counters(framework::kModMonolithic)
                    .messages_sent;
      s.instances += group.process(p).stats().instances_completed;
    }
    s.instances /= n;
    return s;
  };
  group.world().simulator().at(milliseconds(400), [&] { base = totals(); });
  group.run_until(milliseconds(1200));
  const Snap end = totals();
  const double per_instance =
      static_cast<double>(end.msgs - base.msgs) /
      static_cast<double>(end.instances - base.instances);
  const double expected = static_cast<double>(
      analysis::monolithic_messages_per_consensus(n));
  EXPECT_NEAR(per_instance, expected, expected * 0.08);
}

TEST(MonolithicPiggyback, MessagesRideOnAcksAtHighLoad) {
  core::SimGroup group(mono_config(3));
  group.start();
  for (util::ProcessId p = 0; p < 3; ++p) {
    feed(group, p, 200, milliseconds(1), milliseconds(1), 64);
  }
  group.run_until(seconds(2));
  // Non-coordinators' messages mostly piggyback on acks, rarely travel as
  // standalone forwards.
  const auto& s1 = group.process(1).monolithic()->stats();
  EXPECT_GT(s1.piggybacked_messages, 150u);
  EXPECT_LT(s1.forwards_sent, 20u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(MonolithicPiggyback, DecisionsRideOnNextProposalAtHighLoad) {
  core::SimGroup group(mono_config(3));
  group.start();
  feed(group, 0, 300, milliseconds(1), milliseconds(1), 64);
  group.run_until(seconds(2));
  const auto& s0 = group.process(0).monolithic()->stats();
  // §4.1: nearly every decision combined with the next proposal.
  EXPECT_GT(s0.combined_sent, s0.standalone_tags * 5);
}

TEST(MonolithicLowLoad, StandaloneDecisionWhenIdle) {
  core::SimGroup group(mono_config(3));
  group.start();
  // One lonely message: no instance k+1 will carry the decision of k.
  group.world().simulator().at(milliseconds(1), [&] {
    group.process(1).abcast(util::Bytes(16, 5));
  });
  group.run_until(seconds(2));
  EXPECT_EQ(group.deliveries(0).size(), 1u);
  EXPECT_EQ(group.deliveries(2).size(), 1u);
  const auto& s0 = group.process(0).monolithic()->stats();
  EXPECT_EQ(s0.standalone_tags, 1u);
  EXPECT_EQ(s0.combined_sent, 0u);
}

TEST(MonolithicCrash, NonCoordinatorCrashDoesNotBlockOthers) {
  core::SimGroup group(mono_config(3));
  group.start();
  feed(group, 0, 20, milliseconds(1), milliseconds(5));
  feed(group, 1, 20, milliseconds(2), milliseconds(5));
  group.crash_at(2, milliseconds(30));
  group.run_until(seconds(3));
  EXPECT_EQ(group.deliveries(0).size(), 40u);
  EXPECT_EQ(group.deliveries(1).size(), 40u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(MonolithicCrash, CoordinatorCrashPendingMessagesStillDelivered) {
  // p1/p2 abcast; their messages sit with the coordinator (piggybacked).
  // p0 crashes; the recovery rounds (estimates re-piggyback the messages to
  // the new coordinator, §4.2 fallback) must still deliver everything.
  core::SimGroup group(mono_config(3));
  group.start();
  feed(group, 1, 10, milliseconds(1), milliseconds(5));
  feed(group, 2, 10, milliseconds(3), milliseconds(5));
  group.crash_at(0, milliseconds(12));
  group.run_until(seconds(5));
  EXPECT_EQ(group.deliveries(1).size(), 20u);
  EXPECT_EQ(group.deliveries(2).size(), 20u);
  EXPECT_GE(group.process(1).stats().max_round, 2u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(MonolithicCrash, CoordinatorCrashMidStreamIsConsistent) {
  // Crash the coordinator while instances are flowing: survivors must agree
  // on a common prefix + identical continuation.
  core::SimGroup group(mono_config(5, 3));
  group.start();
  for (util::ProcessId p = 0; p < 5; ++p) {
    feed(group, p, 30, milliseconds(1 + p), milliseconds(4));
  }
  group.crash_at(0, milliseconds(40));
  group.run_until(seconds(6));
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
  // All survivor-origin messages delivered (validity for correct senders).
  std::size_t survivor_msgs = 0;
  for (const auto& d : group.deliveries(1)) {
    if (d.origin != 0) ++survivor_msgs;
  }
  EXPECT_EQ(survivor_msgs, 4u * 30u);
}

TEST(MonolithicFaults, FalseSuspicionsUnderLoadAreSafe) {
  core::SimGroup group(mono_config(3, 7));
  group.start();
  for (util::ProcessId p = 0; p < 3; ++p) {
    feed(group, p, 25, milliseconds(1 + p), milliseconds(8));
  }
  for (int i = 0; i < 5; ++i) {
    group.world().simulator().at(milliseconds(20 + i * 40), [&group, i] {
      group.process(1 + (i % 2)).failure_detector().force_suspect(0);
    });
  }
  group.run_until(seconds(5));
  EXPECT_EQ(group.deliveries(0).size(), 75u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(MonolithicFaults, DroppedProposalRecoveredByRetransmission) {
  core::SimGroup group(mono_config(3));
  int drops = 4;
  group.world().network().set_drop(
      [&drops](util::ProcessId from, util::ProcessId) {
        return from == 0 && drops > 0 && drops-- > 0;
      });
  group.start();
  feed(group, 0, 10, milliseconds(1), milliseconds(3));
  group.run_until(seconds(5));
  EXPECT_EQ(group.deliveries(1).size(), 10u);
  EXPECT_EQ(group.deliveries(2).size(), 10u);
  const auto& s0 = group.process(0).monolithic()->stats();
  EXPECT_GE(s0.retransmissions, 1u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

// Ablation toggles: with all three optimizations off the monolithic stack's
// wire behaviour approaches the modular algorithm's (diffusion to all +
// standalone decisions), with them on it reaches 2(n−1).
TEST(MonolithicAblation, TogglesChangeMessagePattern) {
  auto msgs_per_instance = [](bool combine, bool piggyback, bool cheap) {
    core::SimGroupConfig cfg = mono_config(3);
    cfg.stack.monolithic.opt_combine = combine;
    cfg.stack.monolithic.opt_piggyback = piggyback;
    cfg.stack.monolithic.opt_cheap_decision = cheap;
    cfg.stack.flow.max_batch = 4;
    cfg.stack.flow.window = 4;
    core::SimGroup group(cfg);
    group.start();
    for (util::ProcessId p = 0; p < 3; ++p) {
      feed(group, p, 400, milliseconds(1), milliseconds(1), 64);
    }
    std::uint64_t base_msgs = 0, base_inst = 0;
    auto totals = [&](std::uint64_t& msgs, std::uint64_t& inst) {
      msgs = 0;
      inst = 0;
      for (util::ProcessId p = 0; p < 3; ++p) {
        msgs += group.process(p).stack()
                    .wire_counters(framework::kModMonolithic)
                    .messages_sent;
        inst += group.process(p).stats().instances_completed;
      }
      inst /= 3;
    };
    group.world().simulator().at(milliseconds(400), [&] {
      totals(base_msgs, base_inst);
    });
    group.run_until(milliseconds(1200));
    std::uint64_t end_msgs = 0, end_inst = 0;
    totals(end_msgs, end_inst);
    auto check = core::check_agreement_among_correct(group);
    EXPECT_TRUE(check.ok) << check.detail;
    return static_cast<double>(end_msgs - base_msgs) /
           static_cast<double>(end_inst - base_inst);
  };

  const double all_on = msgs_per_instance(true, true, true);
  const double no_piggyback = msgs_per_instance(true, false, true);
  const double no_cheap = msgs_per_instance(true, true, false);
  const double all_off = msgs_per_instance(false, false, false);

  EXPECT_NEAR(all_on, 4.0, 0.5);           // 2(n−1)
  EXPECT_GT(no_piggyback, all_on + 5.0);   // + M(n−1) diffusion
  EXPECT_GT(no_cheap, all_on + 1.5);       // + decision rbcast traffic
  EXPECT_GT(all_off, no_piggyback + 1.5);  // worst of all worlds
}

TEST(MonolithicDeterminism, SameSeedSameRun) {
  auto run = [](std::uint64_t seed) {
    core::SimGroup group(mono_config(3, seed));
    group.start();
    for (util::ProcessId p = 0; p < 3; ++p) {
      feed(group, p, 15, milliseconds(1 + p), milliseconds(6));
    }
    group.run_until(seconds(3));
    return group.deliveries(2);
  };
  auto a = run(11);
  auto b = run(11);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]);
    EXPECT_EQ(a[i].at, b[i].at);
  }
}

// Regression: when cap-triggered instance starts drain the proposal pool the
// pending δ-timer must be cancelled, not left to fire as a no-op. Baseline =
// steady-state periodic timers (FD heartbeats, liveness tick), which keep
// exactly one arm outstanding each.
TEST(MonolithicTimerHygiene, CapProposalDisarmsBatchTimer) {
  core::SimGroupConfig cfg = mono_config(3);
  cfg.stack.flow.batch_delay = milliseconds(50);
  cfg.stack.flow.max_batch = 4;
  cfg.stack.flow.window = 8;
  core::SimGroup group(cfg);
  group.start();
  std::size_t base = 0;
  group.world().simulator().at(milliseconds(1), [&] {
    base = group.world().pending_timers(0);
    for (int i = 0; i < 4; ++i) group.process(0).abcast(util::Bytes(16, 1));
  });
  group.world().simulator().at(milliseconds(40), [&] {
    EXPECT_EQ(group.world().pending_timers(0), base)
        << "batch timer left armed after a cap-triggered instance start";
  });
  group.run_until(seconds(1));
  EXPECT_EQ(group.deliveries(0).size(), 4u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

// Negative control: a sub-cap pool waiting out batch_delay keeps its δ-timer
// armed; after it fires and the instance decides, back to baseline.
TEST(MonolithicTimerHygiene, DeltaTimerStaysArmedWhileBatchWaits) {
  core::SimGroupConfig cfg = mono_config(3);
  cfg.stack.flow.batch_delay = milliseconds(50);
  cfg.stack.flow.max_batch = 4;
  cfg.stack.flow.window = 8;
  core::SimGroup group(cfg);
  group.start();
  std::size_t base = 0;
  group.world().simulator().at(milliseconds(1), [&] {
    base = group.world().pending_timers(0);
    group.process(0).abcast(util::Bytes(16, 2));
  });
  group.world().simulator().at(milliseconds(40), [&] {
    EXPECT_EQ(group.world().pending_timers(0), base + 1)
        << "δ-timer should be pending while the pool ages";
    EXPECT_EQ(group.deliveries(0).size(), 0u);
  });
  group.world().simulator().at(milliseconds(120), [&] {
    EXPECT_EQ(group.world().pending_timers(0), base)
        << "δ-timer should be gone after firing and deciding";
    EXPECT_EQ(group.deliveries(0).size(), 1u);
  });
  group.run_until(seconds(1));
  EXPECT_EQ(group.deliveries(0).size(), 1u);
}

}  // namespace
}  // namespace modcast::monolithic
