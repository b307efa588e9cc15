// Unit + fault-injection tests: Chandra–Toueg consensus.
#include "consensus/chandra_toueg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <set>
#include <vector>

#include "stack_harness.hpp"

namespace modcast::consensus {
namespace {

using test::bytes_of;
using test::NodeHarness;
using test::string_of;
using util::milliseconds;
using util::seconds;

fd::FdConfig fast_fd() {
  fd::FdConfig c;
  c.heartbeat_interval = milliseconds(20);
  c.timeout = milliseconds(100);
  return c;
}

/// Asserts uniform agreement + validity for instance k among non-crashed
/// processes; returns the decided value.
std::string assert_decided_same(NodeHarness& h, std::uint64_t k,
                                const std::set<std::string>& proposed) {
  std::string value;
  bool first = true;
  for (util::ProcessId p = 0; p < h.size(); ++p) {
    if (h.world().crashed(p)) continue;
    auto it = h.node(p).decided.find(k);
    EXPECT_TRUE(it != h.node(p).decided.end())
        << "process " << p << " did not decide instance " << k;
    if (it == h.node(p).decided.end()) continue;
    const std::string v = string_of(it->second);
    if (first) {
      value = v;
      first = false;
    } else {
      EXPECT_EQ(v, value) << "agreement violated at process " << p;
    }
  }
  EXPECT_TRUE(proposed.count(value) != 0)
      << "validity violated: decided '" << value << "' was never proposed";
  return value;
}

class ConsensusGoodRun : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConsensusGoodRun, AllDecideCoordinatorValue) {
  const std::size_t n = GetParam();
  NodeHarness h(n, 1, fast_fd());
  h.start();
  std::set<std::string> proposed;
  for (util::ProcessId p = 0; p < n; ++p) {
    proposed.insert("v" + std::to_string(p));
    h.propose_at(milliseconds(5), p, 0, "v" + std::to_string(p));
  }
  h.run_until(seconds(1));
  // In a good run with the optimized algorithm, the round-1 coordinator's
  // own value wins.
  EXPECT_EQ(assert_decided_same(h, 0, proposed), "v0");
  for (util::ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(h.node(p).cons.stats().max_round, 1u);
    EXPECT_EQ(h.node(p).cons.stats().nacks_sent, 0u);
  }
}

TEST_P(ConsensusGoodRun, SequentialInstancesAllDecide) {
  const std::size_t n = GetParam();
  NodeHarness h(n, 1, fast_fd());
  h.start();
  constexpr std::uint64_t kInstances = 20;
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    for (util::ProcessId p = 0; p < n; ++p) {
      h.propose_at(milliseconds(5 + 10 * static_cast<std::int64_t>(k)), p, k,
                   "k" + std::to_string(k) + "p" + std::to_string(p));
    }
  }
  h.run_until(seconds(2));
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    std::set<std::string> proposed;
    for (util::ProcessId p = 0; p < n; ++p) {
      proposed.insert("k" + std::to_string(k) + "p" + std::to_string(p));
    }
    assert_decided_same(h, k, proposed);
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, ConsensusGoodRun,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 9, 11));

TEST(ConsensusGoodRunDetail, DecisionIsTagOnlyInRoundOne) {
  // The decision travels through rbcast as a small tag: total consensus +
  // rbcast bytes must stay far below the proposal size × message count.
  NodeHarness h(3, 1, fast_fd());
  h.start();
  const std::string big(10000, 'x');
  for (util::ProcessId p = 0; p < 3; ++p) h.propose_at(milliseconds(5), p, 0, big);
  h.run_until(seconds(1));
  std::uint64_t rb_bytes = 0;
  for (util::ProcessId p = 0; p < 3; ++p) {
    rb_bytes += h.node(p).stack.wire_counters(framework::kModRbcast)
                    .bytes_sent;
  }
  // 4 rbcast messages carrying a ~14-byte tag each, not the 10 KB value.
  EXPECT_LT(rb_bytes, 500u);
}

TEST(ConsensusGoodRunDetail, NonCoordinatorsDoNotSendEstimatesInRoundOne) {
  NodeHarness h(5, 1, fast_fd());
  h.start();
  for (util::ProcessId p = 0; p < 5; ++p) {
    h.propose_at(milliseconds(5), p, 0, "v");
  }
  h.run_until(seconds(1));
  for (util::ProcessId p = 0; p < 5; ++p) {
    EXPECT_EQ(h.node(p).cons.stats().nudges_sent, 0u) << "process " << p;
  }
  // Message budget: proposal (n−1) + acks (n−1) + rbcast decision
  // (n−1)·⌊(n+1)/2⌋ = 4 + 4 + 12 = 20 messages, and nothing else.
  std::uint64_t total = 0;
  for (util::ProcessId p = 0; p < 5; ++p) {
    total += h.node(p).stack.wire_counters(framework::kModConsensus)
                 .messages_sent;
    total += h.node(p).stack.wire_counters(framework::kModRbcast)
                 .messages_sent;
  }
  EXPECT_EQ(total, 20u);
}

TEST(ConsensusCrash, CoordinatorCrashBeforeProposalDecidesInLaterRound) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  h.world().crash_at(0, milliseconds(1));  // p0 = round-1 coordinator
  for (util::ProcessId p = 1; p < 3; ++p) {
    h.propose_at(milliseconds(5), p, 0, "v" + std::to_string(p));
  }
  h.run_until(seconds(2));
  // Either survivor's estimate may win (both carry timestamp 0; the round-2
  // coordinator's locking rule breaks the tie) — what matters is agreement
  // and that recovery needed a later round.
  assert_decided_same(h, 0, {"v1", "v2"});
  EXPECT_GE(h.node(1).cons.stats().max_round, 2u);
}

TEST(ConsensusCrash, CoordinatorCrashAfterProposalStillDecidesConsistently) {
  NodeHarness h(5, 2, fast_fd());
  h.start();
  for (util::ProcessId p = 0; p < 5; ++p) {
    h.propose_at(milliseconds(5), p, 0, "v" + std::to_string(p));
  }
  // Crash the coordinator moments after it proposed; acks may or may not
  // have arrived, the decision may or may not have been broadcast.
  h.world().crash_at(0, milliseconds(6));
  h.run_until(seconds(3));
  // Whatever happens, the survivors agree; if the round-1 proposal reached a
  // majority, CT locking forces v0.
  assert_decided_same(h, 0, {"v0", "v1", "v2", "v3", "v4"});
}

TEST(ConsensusCrash, MinoritySurvivesMaximalFaults) {
  // n=7 tolerates 3 crashes.
  NodeHarness h(7, 3, fast_fd());
  h.start();
  for (util::ProcessId p = 0; p < 7; ++p) {
    h.propose_at(milliseconds(5), p, 0, "v" + std::to_string(p));
  }
  h.world().crash_at(0, milliseconds(6));
  h.world().crash_at(1, milliseconds(150));
  h.world().crash_at(2, milliseconds(300));
  h.run_until(seconds(5));
  assert_decided_same(h, 0,
                      {"v0", "v1", "v2", "v3", "v4", "v5", "v6"});
}

TEST(ConsensusSuspicion, FalseSuspicionIsSafe) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  // p1 wrongly suspects the coordinator just as the instance starts.
  h.world().simulator().at(milliseconds(4), [&] {
    h.node(1).fd.force_suspect(0);
  });
  for (util::ProcessId p = 0; p < 3; ++p) {
    h.propose_at(milliseconds(5), p, 0, "v" + std::to_string(p));
  }
  h.run_until(seconds(2));
  assert_decided_same(h, 0, {"v0", "v1", "v2"});
}

TEST(ConsensusSuspicion, EveryoneWronglySuspectsCoordinator) {
  NodeHarness h(5, 1, fast_fd());
  h.start();
  h.world().simulator().at(milliseconds(4), [&] {
    for (util::ProcessId p = 1; p < 5; ++p) h.node(p).fd.force_suspect(0);
  });
  for (util::ProcessId p = 0; p < 5; ++p) {
    h.propose_at(milliseconds(5), p, 0, "v" + std::to_string(p));
  }
  h.run_until(seconds(3));
  assert_decided_same(h, 0, {"v0", "v1", "v2", "v3", "v4"});
}

TEST(ConsensusLiveness, NudgeLetsValuelessCoordinatorPropose) {
  // Only p1 proposes; p0 (the coordinator) has no initial value. The nudge
  // re-introduces the estimate phase and the instance still decides.
  ConsensusConfig cc;
  cc.proposal_nudge_timeout = milliseconds(50);
  NodeHarness h(3, 1, fast_fd(), {}, cc);
  h.start();
  h.propose_at(milliseconds(5), 1, 0, "only-one");
  h.run_until(seconds(2));
  for (util::ProcessId p = 0; p < 3; ++p) {
    auto it = h.node(p).decided.find(0);
    ASSERT_TRUE(it != h.node(p).decided.end()) << "process " << p;
    EXPECT_EQ(string_of(it->second), "only-one");
  }
  EXPECT_GE(h.node(1).cons.stats().nudges_sent, 1u);
}

TEST(ConsensusRecovery, CoordinatorCountsOwnEstimateWhenPeersArriveFirst) {
  // p0 crashes. p2 suspects it quickly and sends its round-2 estimate to
  // p1, the round-2 coordinator, whose slow failure detector does not
  // suspect p0 yet. With majority − 1 = 1 peer estimate in hand, p1 must
  // enter round 2, count its own estimate and propose — not wait for its
  // own suspicion of p0.
  runtime::SimWorldConfig wc;
  wc.n = 3;
  runtime::SimWorld world(wc);
  fd::FdConfig slow = fast_fd();
  slow.timeout = seconds(30);
  std::vector<std::unique_ptr<test::Node>> nodes;
  for (util::ProcessId p = 0; p < 3; ++p) {
    nodes.push_back(std::make_unique<test::Node>(world.runtime(p),
                                                 p == 1 ? slow : fast_fd()));
    nodes.back()->record_all();
    world.attach(p, &nodes.back()->stack);
  }
  world.start();
  world.crash_at(0, milliseconds(1));
  for (util::ProcessId p = 1; p < 3; ++p) {
    world.simulator().at(milliseconds(5), [&nodes, p] {
      nodes[p]->cons.propose(0, bytes_of("v" + std::to_string(p)));
    });
  }
  world.run_until(seconds(2));
  EXPECT_EQ(nodes[1]->fd.suspected_count(), 0u);
  for (util::ProcessId p = 1; p < 3; ++p) {
    auto it = nodes[p]->decided.find(0);
    ASSERT_TRUE(it != nodes[p]->decided.end()) << "process " << p;
    // Both estimates are unlocked and equally long: the bytewise larger wins.
    EXPECT_EQ(string_of(it->second), "v2");
  }
  EXPECT_EQ(nodes[1]->cons.stats().max_round, 2u);
}

TEST(ConsensusRecovery, DecisionTagWithoutProposalTriggersPull) {
  // p2 misses the proposal (link blocked) but receives the DECISION tag via
  // rbcast relays; it must pull the full value.
  NodeHarness h(3, 1, fast_fd());
  h.world().network().set_link_blocked(0, 2, true);  // p2 never hears p0
  h.start();
  for (util::ProcessId p = 0; p < 3; ++p) {
    h.propose_at(milliseconds(5), p, 0, "pullme");
  }
  h.run_until(seconds(2));
  auto it = h.node(2).decided.find(0);
  ASSERT_TRUE(it != h.node(2).decided.end());
  EXPECT_EQ(string_of(it->second), "pullme");
  EXPECT_GE(h.node(2).cons.stats().pulls_sent, 1u);
}

TEST(ConsensusApi, DecisionAccessors) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  for (util::ProcessId p = 0; p < 3; ++p) h.propose_at(milliseconds(5), p, 0, "v");
  h.run_until(seconds(1));
  EXPECT_TRUE(h.node(0).cons.has_decided(0));
  ASSERT_NE(h.node(0).cons.decision(0), nullptr);
  EXPECT_EQ(string_of(*h.node(0).cons.decision(0)), "v");
  EXPECT_FALSE(h.node(0).cons.has_decided(99));
  EXPECT_EQ(h.node(0).cons.decision(99), nullptr);
}

TEST(ConsensusApi, CoordinatorRotation) {
  NodeHarness h(3, 1, fast_fd());
  auto& cons = h.node(0).cons;
  EXPECT_EQ(cons.coordinator(1), 0u);
  EXPECT_EQ(cons.coordinator(2), 1u);
  EXPECT_EQ(cons.coordinator(3), 2u);
  EXPECT_EQ(cons.coordinator(4), 0u);
}

TEST(ConsensusApi, ProposeIsIdempotentPerInstance) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  for (util::ProcessId p = 0; p < 3; ++p) {
    h.propose_at(milliseconds(5), p, 0, "first");
    h.propose_at(milliseconds(6), p, 0, "second");  // ignored
  }
  h.run_until(seconds(1));
  EXPECT_EQ(string_of(h.node(1).decided.at(0)), "first");
}

// ---------------------------------------------------------------------------
// Open-instance accounting
// ---------------------------------------------------------------------------

TEST(ConsensusStatsCount, MaxOpenInstancesMatchesABruteForceCount) {
  // Pipeline depth 4: every process proposes instances in bursts of four,
  // 1 µs apart, the bursts closer together than an instance takes to
  // decide, so undecided instances pile up across bursts. All processes
  // propose k at the same instant and no message for k can arrive earlier,
  // so each process creates k exactly then. A probe right after each
  // propose counts proposed-but-undecided instances by brute force; the
  // open count only rises at a creation, so the probes see its maximum.
  constexpr std::size_t kN = 3;
  constexpr std::uint64_t kInstances = 40;
  NodeHarness h(kN, 1, fast_fd());
  h.start();
  std::vector<std::uint64_t> brute_max(kN, 0);
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    const util::TimePoint at =
        milliseconds(5) +
        static_cast<util::TimePoint>(k / 4) * util::microseconds(1700) +
        static_cast<util::TimePoint>(k % 4) * util::microseconds(1);
    for (util::ProcessId p = 0; p < kN; ++p) {
      h.propose_at(at, p, k, "v" + std::to_string(k));
    }
    h.world().simulator().at(at, [&h, &brute_max, k] {
      for (util::ProcessId p = 0; p < kN; ++p) {
        const std::uint64_t open = k + 1 - h.node(p).decided.size();
        brute_max[p] = std::max(brute_max[p], open);
      }
    });
  }
  h.run_until(seconds(2));
  for (util::ProcessId p = 0; p < kN; ++p) {
    EXPECT_EQ(h.node(p).decided.size(), kInstances) << "process " << p;
    EXPECT_GT(brute_max[p], 4u) << "bursts must overlap; process " << p;
    EXPECT_EQ(h.node(p).cons.stats().max_open_instances, brute_max[p])
        << "process " << p;
  }
}

TEST(ConsensusStatsCount, InstanceTouchedAfterItsDecisionIsNotOpen) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  for (util::ProcessId p = 0; p < 3; ++p) {
    h.propose_at(milliseconds(5), p, 0, "a");
  }
  h.run_until(milliseconds(100));
  framework::Stack& stack = h.node(2).stack;
  ASSERT_EQ(h.node(2).cons.stats().max_open_instances, 1u);
  // Instance 1's decision reaches p2 before anything else of instance 1
  // (a kFull answer to a pull) ...
  util::ByteWriter full = framework::Stack::writer(framework::kModConsensus);
  full.u8(6);  // kFull
  full.u64(1);
  full.blob(bytes_of("b"));
  stack.on_message(0, full.take());
  ASSERT_TRUE(h.node(2).cons.has_decided(1));
  // ... then a late recovery-round proposal for it creates the instance,
  // born decided.
  util::ByteWriter proposal =
      framework::Stack::writer(framework::kModConsensus);
  proposal.u8(2);  // kProposal
  proposal.u64(1);
  proposal.u32(2);
  proposal.blob(bytes_of("b"));
  stack.on_message(1, proposal.take());
  h.run_until(milliseconds(200));
  EXPECT_EQ(h.node(2).cons.stats().max_open_instances, 1u);
  // A later instance opens and closes as usual.
  for (util::ProcessId p = 0; p < 3; ++p) {
    h.propose_at(milliseconds(205), p, 2, "c");
  }
  h.run_until(milliseconds(400));
  EXPECT_TRUE(h.node(2).cons.has_decided(2));
  EXPECT_EQ(h.node(2).cons.stats().max_open_instances, 1u);
}

}  // namespace
}  // namespace modcast::consensus
