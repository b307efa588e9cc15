// Unit tests: the sans-IO Chandra–Toueg round core and dissemination core
// shared by both stacks.
#include "ct/round_core.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ct/dissemination.hpp"

namespace modcast::ct {
namespace {

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

/// A process holding an unlocked initial estimate, as its shell leaves it.
RoundState with_estimate(const std::string& value) {
  RoundState s;
  s.has_estimate = true;
  s.estimate = bytes_of(value);
  return s;
}

auto suspecting(std::set<util::ProcessId> suspected) {
  return [suspected](util::ProcessId q) { return suspected.count(q) != 0; };
}

TEST(CtCore, EstimateArrivalOrderDoesNotMatter) {
  const Group g{5, 2};  // p2 coordinates round 3
  RoundState a = with_estimate("own");
  RoundState b = a;
  record_estimate(a, g, 3, 0, 0, bytes_of("x"));
  record_estimate(a, g, 3, 4, 1, bytes_of("yy"));
  record_estimate(b, g, 3, 4, 1, bytes_of("yy"));
  record_estimate(b, g, 3, 0, 0, bytes_of("x"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.round, 3u);
}

TEST(CtCore, RefreshedEstimateCountsOnce) {
  const Group g{5, 1};  // majority 3; p1 coordinates round 2
  RoundState s = with_estimate("own");
  record_estimate(s, g, 2, 3, 0, bytes_of("old"));
  record_estimate(s, g, 2, 3, 0, bytes_of("newer"));
  EXPECT_EQ(s.estimates[2].size(), 2u);  // p3 once, plus our own
  EXPECT_EQ(s.estimates[2][3].value, bytes_of("newer"));
  EXPECT_EQ(locked_estimate(s, g, 2), nullptr);
  record_estimate(s, g, 2, 4, 0, bytes_of("z"));
  EXPECT_NE(locked_estimate(s, g, 2), nullptr);
}

TEST(CtCore, MajorityPerGroupSize) {
  EXPECT_EQ((Group{3, 0}.majority()), 2u);
  EXPECT_EQ((Group{4, 0}.majority()), 3u);
  EXPECT_EQ((Group{5, 0}.majority()), 3u);
  EXPECT_EQ((Group{7, 0}.majority()), 4u);
}

TEST(CtCore, CoordinatorRotatesEveryRound) {
  const Group g{3, 0};
  EXPECT_EQ(g.coordinator(1), 0u);
  EXPECT_EQ(g.coordinator(2), 1u);
  EXPECT_EQ(g.coordinator(3), 2u);
  EXPECT_EQ(g.coordinator(4), 0u);
}

TEST(CtCore, AdvanceSkipsSuspectedCoordinatorsAndStopsAtSelf) {
  const Group g{5, 3};
  RoundState s = with_estimate("mine");
  // p1 and p2 (rounds 2 and 3) are suspected; round 4 is ours.
  const std::uint32_t first = advance_round(s, g, suspecting({0, 1, 2}));
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(s.round, 4u);
  EXPECT_EQ(s.nacked_rounds, (std::set<std::uint32_t>{2, 3}));
  // Entering our own round records our estimate (rule 3).
  ASSERT_EQ(s.estimates[4].count(3), 1u);
  EXPECT_EQ(s.estimates[4][3].value, bytes_of("mine"));

  // Everyone else suspected: still stops at self within n rounds.
  RoundState t;
  advance_round(t, g, suspecting({0, 1, 2, 4}));
  EXPECT_EQ(t.round, 4u);
  EXPECT_LE(t.round - 1, g.n);

  // An unsuspected coordinator stops the rotation at once.
  RoundState u;
  EXPECT_EQ(advance_round(u, g, suspecting({})), 2u);
  EXPECT_EQ(u.round, 2u);
  EXPECT_TRUE(u.nacked_rounds.empty());
}

TEST(CtCore, MoveOnReportsSkippedRoundsThenTheNewRound) {
  // p1 and p2 (rounds 2 and 3) are suspected. Each skipped round gets our
  // estimate, then a nack; then we join round 4 — coordinating it if it is
  // ours, sending our estimate to its coordinator otherwise.
  for (const util::ProcessId self : {util::ProcessId{3}, util::ProcessId{4}}) {
    const Group g{5, self};
    RoundState s = with_estimate("mine");
    std::vector<std::string> log;
    auto note = [&log](const char* what) {
      return [&log, what](std::uint32_t r) {
        log.push_back(what + std::to_string(r));
      };
    };
    move_on(s, g, suspecting({1, 2}), note("est "), note("nack "),
            note("coord "));
    const std::string last = self == 3 ? "coord 4" : "est 4";
    EXPECT_EQ(log, (std::vector<std::string>{"est 2", "nack 2", "est 3",
                                             "nack 3", last}))
        << "self " << self;
    EXPECT_EQ(s.round, 4u);
  }
}

TEST(CtCore, EnteredCoordinatorNacksLowerRounds) {
  // p2 coordinates round 3 and enters it when a peer estimate arrives;
  // a round-2 proposal arriving afterwards must be nacked, never acked —
  // acking it would leave our recorded round-3 estimate stale.
  const Group g{3, 2};
  RoundState s = with_estimate("mine");
  s.round = 2;
  record_estimate(s, g, 3, 0, 0, bytes_of("peer"));
  EXPECT_EQ(s.round, 3u);
  ASSERT_EQ(s.estimates[3].count(2), 1u);
  s.proposals[2] = bytes_of("stale");
  EXPECT_EQ(vote(s, g, 2, /*coordinator_suspected=*/false), Vote::kStaleNack);
  EXPECT_EQ(s.acked_rounds.count(2), 0u);
  EXPECT_EQ(s.estimate_ts, 0u);
  EXPECT_FALSE(may_propose(s, g, 2));
  EXPECT_TRUE(may_propose(s, g, 3));
  // A locked own entry is never refreshed.
  s.estimates[3][2].ts = 1;
  refresh_own_estimate(s, g, 3);
  EXPECT_EQ(s.estimates[3][2].ts, 1u);
}

TEST(CtCore, LockingPicksHighestTsThenLargerValueThenLowestSender) {
  std::map<util::ProcessId, Estimate> ests;
  ests[0] = {0, bytes_of("aaaaaaaa")};
  ests[1] = {2, bytes_of("b")};
  ests[2] = {2, bytes_of("cc")};
  ests[3] = {2, bytes_of("dd")};
  ests[4] = {1, bytes_of("eeeeeeeeee")};
  const Estimate* best = locking_rule(ests);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->value, bytes_of("dd"));  // equal length: bytewise larger

  // Identical values: the lowest sender's entry.
  ests[3].value = bytes_of("cc");
  EXPECT_EQ(locking_rule(ests), &ests.at(2));

  // An empty batch never shadows a non-empty one among unlocked estimates.
  std::map<util::ProcessId, Estimate> unlocked;
  unlocked[0] = {0, {}};
  unlocked[5] = {0, bytes_of("m")};
  EXPECT_EQ(locking_rule(unlocked)->value, bytes_of("m"));
  EXPECT_EQ(locking_rule({}), nullptr);
}

TEST(CtCore, AcksDecideAtMajorityWithImplicitSelfAck) {
  const Group g{5, 0};
  RoundState s;
  propose(s, 1, bytes_of("v"));
  EXPECT_EQ(s.estimate_ts, 1u);
  EXPECT_FALSE(maybe_decide_as_coordinator(s, g, 1));
  EXPECT_FALSE(count_ack(s, g, 1, 1));
  EXPECT_FALSE(count_ack(s, g, 1, 1));  // a duplicate ack counts once
  EXPECT_TRUE(count_ack(s, g, 1, 2));
  EXPECT_FALSE(count_ack(s, g, 2, 3));  // never proposed in round 2
}

TEST(CtCore, VoteAcksSuspectsAndCatchesUp) {
  const Group g{3, 2};
  RoundState s;
  s.proposals[1] = bytes_of("p");
  EXPECT_EQ(vote(s, g, 1, false), Vote::kAck);
  adopt(s, 1);
  EXPECT_EQ(s.estimate, bytes_of("p"));
  EXPECT_EQ(vote(s, g, 1, false), Vote::kDuplicate);
  s.proposals[2] = bytes_of("q");
  EXPECT_EQ(vote(s, g, 2, true), Vote::kNack);
  EXPECT_EQ(s.round, 2u);
  EXPECT_EQ(vote(s, g, 2, false), Vote::kIgnore);
}

TEST(CtCore, ValuesCompareByBytesNeverByBuffer) {
  // Values are Payloads that share the buffer they arrived in, so two
  // processes' equal values usually sit in distinct buffers. Every
  // comparison the round core makes must look at the bytes.
  const util::Payload a = bytes_of("batch-1");
  const util::Payload a_copy = bytes_of("batch-1");  // equal bytes, own buffer
  const util::Payload b = bytes_of("batch-2");       // same length, larger
  const util::Payload framed = util::Payload(bytes_of("hdr|batch-2|tail"))
                                   .slice(4, 7);  // "batch-2" inside a frame
  ASSERT_FALSE(a.shares_buffer(a_copy));
  EXPECT_EQ(a, a_copy);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_EQ(framed, b);

  // Locking tie-break: identical values in distinct buffers tie, so the
  // lowest sender wins; among same-length values the bytewise larger one
  // wins, wherever its buffer lives.
  std::map<util::ProcessId, Estimate> ests;
  ests[3] = {1, a};
  ests[1] = {1, a_copy};
  EXPECT_EQ(locking_rule(ests), &ests.at(1));
  ests[4] = {1, framed};
  EXPECT_EQ(locking_rule(ests), &ests.at(4));
  ests[0] = {1, b};
  EXPECT_EQ(locking_rule(ests), &ests.at(0));

  // The monolithic participant's estimate refresh: a rebuilt estimate with
  // equal bytes in a fresh buffer is no change (nothing is re-sent); a
  // same-length estimate with different bytes replaces it.
  RoundState s = with_estimate("batch-1");
  s.round = 2;
  s.estimate_sent.insert(2);
  EXPECT_FALSE(replace_estimate(s, a_copy));
  EXPECT_FALSE(s.estimate.shares_buffer(a_copy));
  EXPECT_EQ(s.estimate_sent.count(2), 1u);
  EXPECT_TRUE(replace_estimate(s, b));
  EXPECT_TRUE(s.estimate.shares_buffer(b));
  EXPECT_EQ(s.estimate_sent.count(2), 0u);

  // State equality (used by tests and state hashing) is by bytes too.
  RoundState t = s;
  t.estimate = util::Payload(bytes_of("batch-2"));
  EXPECT_FALSE(t.estimate.shares_buffer(s.estimate));
  EXPECT_EQ(t, s);
}

TEST(CtCore, ProposalEstimateAndDecisionShareOneBuffer) {
  // A coordinator's proposal is its adopted estimate; a participant's
  // adopted estimate is the proposal it received. Neither copies.
  RoundState c;
  const util::Payload v = bytes_of("value");
  propose(c, 1, v);
  EXPECT_TRUE(c.proposals[1].shares_buffer(v));
  EXPECT_TRUE(c.estimate.shares_buffer(v));

  RoundState p;
  p.proposals[1] = v;
  adopt(p, 1);
  EXPECT_TRUE(p.estimate.shares_buffer(v));

  Instances<RoundState> table;
  table.at(0);
  table.decide(0, p.proposals[1]);
  EXPECT_TRUE(table.decision(0)->shares_buffer(v));
}

struct Inst : RoundState {
  int timer = 0;
};

TEST(CtCore, InstancesPruneOldestDecidedAndBornDecided) {
  Instances<Inst> table;
  for (std::uint64_t k = 0; k < 4; ++k) {
    table.at(k);
    EXPECT_NE(table.decide(k, bytes_of("d")), nullptr);
  }
  table.at(4);  // still open
  table.prune(2, 3);
  EXPECT_FALSE(table.decided(0));
  EXPECT_FALSE(table.decided(1));
  EXPECT_TRUE(table.decided(2));
  EXPECT_EQ(table.find(1), nullptr);
  ASSERT_NE(table.find(4), nullptr);
  EXPECT_FALSE(table.find(4)->decided);
  // Never drops the instance just decided, even beyond retention.
  table.prune(0, 2);
  EXPECT_TRUE(table.decided(2));
  // A decision that arrives before its instance: touched afterwards, the
  // instance is born decided.
  EXPECT_EQ(table.decide(9, bytes_of("d")), nullptr);
  EXPECT_TRUE(table.at(9).decided);
}

TEST(CtCore, InstancesReleaseTheRoundStateOfThePreviousDecision) {
  Instances<Inst> table;
  table.at(0).timer = 1;
  table.at(1);
  table.decide(0, bytes_of("a"));
  table.prune(512, 0);
  ASSERT_NE(table.find(0), nullptr);  // callers up the stack may hold it
  table.decide(1, bytes_of("b"));
  table.prune(512, 1);
  // Instance 0's round state is gone; its decision stays, and a late touch
  // finds it born decided with fresh state.
  EXPECT_EQ(table.find(0), nullptr);
  ASSERT_NE(table.decision(0), nullptr);
  EXPECT_TRUE(table.decided(0));
  EXPECT_TRUE(table.at(0).decided);
  EXPECT_EQ(table.at(0).timer, 0);
  ASSERT_NE(table.find(1), nullptr);
  // An undecided instance is never released.
  table.at(2);
  table.decide(3, bytes_of("c"));
  table.prune(512, 3);
  ASSERT_NE(table.find(2), nullptr);
  EXPECT_FALSE(table.find(2)->decided);
  EXPECT_EQ(table.find(1), nullptr);
}

/// Reference: the resender loop each stack carried before the shared core.
bool resends_by_loop(std::uint32_t n, util::ProcessId origin,
                     util::ProcessId q) {
  const std::uint32_t count = (n - 1) / 2;
  for (std::uint32_t i = 1; i <= count; ++i) {
    if ((origin + i) % n == q) return true;
  }
  return false;
}

TEST(CtDissemination, ResendsMatchesTheRingLoop) {
  for (std::uint32_t n = 1; n <= 9; ++n) {
    const Group g{n, 0};
    for (util::ProcessId origin = 0; origin < n; ++origin) {
      for (util::ProcessId q = 0; q < n; ++q) {
        EXPECT_EQ(resends(g, origin, q), resends_by_loop(n, origin, q))
            << "n=" << n << " origin=" << origin << " q=" << q;
      }
    }
  }
}

TEST(RbcastResenders, RingAfterOrigin) {
  const Group g{5, 0};
  // n=5: ⌊(n−1)/2⌋ = 2 resenders following the origin in ring order.
  EXPECT_TRUE(resends(g, 0, 1));
  EXPECT_TRUE(resends(g, 0, 2));
  EXPECT_FALSE(resends(g, 0, 3));
  EXPECT_FALSE(resends(g, 0, 4));
  // Wraps around.
  EXPECT_TRUE(resends(g, 3, 4));
  EXPECT_TRUE(resends(g, 3, 0));
  EXPECT_FALSE(resends(g, 3, 1));
  // The origin is never its own resender.
  EXPECT_FALSE(resends(g, 0, 0));
}

TEST(CtDissemination, TagResolvesFromTheHeldProposal) {
  RoundState s;
  EXPECT_FALSE(hold_proposal(s, 1, bytes_of("v")));
  const util::Payload* value = resolve_tag(s, 1);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, bytes_of("v"));
  EXPECT_FALSE(s.pending_tag_round.has_value());
}

TEST(CtDissemination, TagWithoutProposalPendsUntilItArrives) {
  RoundState s;
  EXPECT_EQ(resolve_tag(s, 1), nullptr);
  EXPECT_EQ(s.pending_tag_round, 1u);
  EXPECT_TRUE(hold_proposal(s, 1, bytes_of("late")));
  EXPECT_EQ(s.proposals[1], bytes_of("late"));
  // Once decided, a retransmitted proposal resolves nothing.
  s.decided = true;
  EXPECT_FALSE(hold_proposal(s, 1, bytes_of("late")));
}

TEST(CtDissemination, TagForAnotherRoundIgnoresTheHeldProposal) {
  RoundState s;
  EXPECT_FALSE(hold_proposal(s, 1, bytes_of("r1")));
  EXPECT_EQ(resolve_tag(s, 2), nullptr);
  EXPECT_EQ(s.pending_tag_round, 2u);
  EXPECT_FALSE(hold_proposal(s, 1, bytes_of("r1 again")));
  EXPECT_TRUE(hold_proposal(s, 2, bytes_of("r2")));
}

}  // namespace
}  // namespace modcast::ct
