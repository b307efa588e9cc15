#include "ct/round_core.hpp"

namespace modcast::ct {

bool enter_round(RoundState& s, const Group& g, std::uint32_t round) {
  if (round < s.round) return false;
  s.round = round;
  if (g.coordinator(round) != g.self || !s.has_estimate) return false;
  return s.estimates[round]
      .try_emplace(g.self, Estimate{s.estimate_ts, s.estimate})
      .second;
}

void record_estimate(RoundState& s, const Group& g, std::uint32_t round,
                     util::ProcessId sender, std::uint32_t ts,
                     util::Payload value) {
  s.estimates[round][sender] = Estimate{ts, std::move(value)};
  enter_round(s, g, round);
}

void refresh_own_estimate(RoundState& s, const Group& g, std::uint32_t round) {
  auto rit = s.estimates.find(round);
  if (rit == s.estimates.end()) return;
  auto it = rit->second.find(g.self);
  if (it == rit->second.end() || it->second.ts != 0) return;
  it->second = Estimate{s.estimate_ts, s.estimate};
}

bool replace_estimate(RoundState& s, util::Payload fresh) {
  if (fresh == s.estimate) return false;
  s.estimate = std::move(fresh);
  s.has_estimate = true;
  s.estimate_sent.erase(s.round);
  return true;
}

bool suspect(RoundState& s, const Group& g, util::ProcessId q) {
  if (s.decided || q == g.self || g.coordinator(s.round) != q) return false;
  s.nacked_rounds.insert(s.round);
  return true;
}

bool leaves_on_nack(const RoundState& s, const Group& g, std::uint32_t round) {
  return !s.decided && g.coordinator(round) == g.self && s.round == round;
}

Vote vote(RoundState& s, const Group& g, std::uint32_t round,
          bool coordinator_suspected) {
  if (s.decided) return Vote::kIgnore;
  if (round < s.round) {
    // A round we left (e.g. on a wrong suspicion) before its proposal came.
    const bool nack = s.acked_rounds.count(round) == 0 &&
                      s.nacked_rounds.insert(round).second;
    return nack ? Vote::kStaleNack : Vote::kIgnore;
  }
  enter_round(s, g, round);
  if (s.acked_rounds.count(round) != 0) return Vote::kDuplicate;
  if (s.nacked_rounds.count(round) != 0) return Vote::kIgnore;
  if (coordinator_suspected) {
    s.nacked_rounds.insert(round);
    return Vote::kNack;
  }
  return Vote::kAck;
}

void adopt(RoundState& s, std::uint32_t round) {
  s.estimate = s.proposals[round];
  s.estimate_ts = round;
  s.has_estimate = true;
  s.acked_rounds.insert(round);
}

bool may_propose(const RoundState& s, const Group& g, std::uint32_t round) {
  return !s.decided && g.coordinator(round) == g.self && round == s.round &&
         s.proposed_rounds.count(round) == 0;
}

const Estimate* locking_rule(
    const std::map<util::ProcessId, Estimate>& ests) {
  // Values order by encoded length, then bytes. Senders iterate in
  // ascending id order and only a strictly better estimate displaces the
  // best so far, so the lowest sender wins among identical values.
  auto better = [](const Estimate& a, const Estimate& b) {
    if (a.ts != b.ts) return a.ts > b.ts;
    if (a.value.size() != b.value.size()) return a.value.size() > b.value.size();
    return b.value < a.value;
  };
  const Estimate* best = nullptr;
  for (const auto& [sender, est] : ests) {
    if (best == nullptr || better(est, *best)) best = &est;
  }
  return best;
}

const Estimate* locked_estimate(const RoundState& s, const Group& g,
                                std::uint32_t round) {
  auto it = s.estimates.find(round);
  if (it == s.estimates.end()) return nullptr;
  const auto& ests = it->second;
  if (ests.size() < g.majority()) return nullptr;
  return locking_rule(ests);
}

void propose(RoundState& s, std::uint32_t round, util::Payload value) {
  s.proposed_rounds.insert(round);
  s.estimate = value;
  s.estimate_ts = round;
  s.has_estimate = true;
  s.ack_senders[round];  // present from the start; the self-ack is implicit
  s.proposals[round] = std::move(value);
}

bool maybe_decide_as_coordinator(const RoundState& s, const Group& g,
                                 std::uint32_t round) {
  if (s.decided || s.proposed_rounds.count(round) == 0) return false;
  auto it = s.ack_senders.find(round);
  // +1: the coordinator implicitly acks its own proposal.
  const std::size_t acks = (it == s.ack_senders.end() ? 0 : it->second.size()) + 1;
  return acks >= g.majority();
}

bool count_ack(RoundState& s, const Group& g, std::uint32_t round,
               util::ProcessId from) {
  if (s.decided || s.proposed_rounds.count(round) == 0) return false;
  s.ack_senders[round].insert(from);
  return maybe_decide_as_coordinator(s, g, round);
}

}  // namespace modcast::ct
