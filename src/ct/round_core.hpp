// Chandra–Toueg round core: the per-instance round state of ◇S consensus
// and its pure transitions, shared by both stacks.
//
// Sans-IO: nothing here sends, arms a timer or asks a failure detector. Two
// thin shells drive it — consensus::ChandraTouegConsensus (modular stack)
// and monolithic::MonolithicAbcast (§4). A shell owns its wire tags,
// encoders, timers and stats, passes failure-detector answers in, and turns
// each transition's result into messages. Three rules:
//
//  1. Estimates are keyed by sender: a refreshed estimate replaces the old
//     one, so the state never depends on arrival order.
//  2. Locking: the highest adoption ts wins; among equal ts the larger
//     encoded value — longer, then bytewise larger, so an empty batch never
//     shadows a non-empty one; among identical values the lowest sender.
//  3. The coordinator of round r records its own estimate when it enters r,
//     whichever path brings it there (advancing, an estimate or a solicit
//     for r). Once in r, a process nacks every proposal for a lower round
//     and never proposes in one, so every estimate it reports for r
//     reflects all its acks of earlier rounds.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace modcast::ct {

struct Group {
  std::size_t n = 1;
  util::ProcessId self = 0;
  /// Coordinator of round r (1-based): p_{(r−1) mod n}.
  util::ProcessId coordinator(std::uint32_t round) const {
    return static_cast<util::ProcessId>((round - 1) % n);
  }
  std::size_t majority() const { return n / 2 + 1; }
};

/// Values are Payloads: a proposal, the estimate adopted from it and the
/// decision all share the buffer the value arrived in. Comparisons (rule 2,
/// state equality) look at the bytes, never at buffer identity.
struct Estimate {
  std::uint32_t ts = 0;  ///< round of adoption; 0 = initial value
  util::Payload value;
  bool operator==(const Estimate&) const = default;
};

/// Round state of one consensus instance at one process.
struct RoundState {
  std::uint64_t k = 0;
  std::uint32_t round = 1;
  bool decided = false;
  bool has_estimate = false;
  util::Payload estimate;
  std::uint32_t estimate_ts = 0;  ///< round of adoption; 0 = initial
  std::map<std::uint32_t, util::Payload> proposals;  ///< per-round proposals seen
  std::set<std::uint32_t> acked_rounds;
  std::set<std::uint32_t> nacked_rounds;
  std::set<std::uint32_t> proposed_rounds;  ///< rounds proposed as coordinator
  std::map<std::uint32_t, std::set<util::ProcessId>> ack_senders;
  /// Per round, as its coordinator: the estimates received, by sender.
  std::map<std::uint32_t, std::map<util::ProcessId, Estimate>> estimates;
  std::set<std::uint32_t> estimate_sent;
  std::set<std::uint32_t> solicited_rounds;
  /// Round named by a decision tag whose proposal has not arrived yet.
  std::optional<std::uint32_t> pending_tag_round;
  bool operator==(const RoundState&) const = default;
};

/// Moves s into `round` if it is ahead (rounds never go back); as that
/// round's coordinator, records its own estimate once if it holds one
/// (rule 3). True when that record happened now.
bool enter_round(RoundState& s, const Group& g, std::uint32_t round);

/// At the coordinator of `round`: records `sender`'s estimate, replacing an
/// earlier one (rule 1), and enters the round (rule 3).
void record_estimate(RoundState& s, const Group& g, std::uint32_t round,
                     util::ProcessId sender, std::uint32_t ts,
                     util::Payload value);

/// Overwrites our own recorded estimate for `round` with the current one,
/// only while the recorded entry is unlocked (ts 0).
void refresh_own_estimate(RoundState& s, const Group& g, std::uint32_t round);

/// A participant rebuilt its unlocked estimate as `fresh`: adopts it when
/// its bytes differ (equal bytes in another buffer are no change) and
/// forgets that the estimate for s.round was sent. True when the shell
/// should send the new estimate.
bool replace_estimate(RoundState& s, util::Payload fresh);

/// Moves to the next round whose coordinator is self or not suspected
/// (`suspects(q)` is the failure detector's answer for q), marking the
/// skipped rounds nacked; returns the first round moved into (rounds
/// [returned, s.round) were skipped). Ends within n rounds.
template <typename Suspects>
std::uint32_t advance_round(RoundState& s, const Group& g,
                            const Suspects& suspects) {
  const std::uint32_t first = s.round + 1;
  while (true) {
    ++s.round;
    const util::ProcessId c = g.coordinator(s.round);
    if (c == g.self) {
      enter_round(s, g, s.round);
      break;
    }
    if (!suspects(c)) break;
    s.nacked_rounds.insert(s.round);
  }
  return first;
}

/// Leaves the current round (advance_round) and tells the group through the
/// shell's per-round reactions: for each skipped round r, send_estimate(r)
/// then send_nack(r) — its coordinator is suspected and must learn we moved
/// on; then coordinate(s.round) when self coordinates the round moved into,
/// send_estimate(s.round) otherwise.
template <typename Suspects, typename SendEstimate, typename SendNack,
          typename Coordinate>
void move_on(RoundState& s, const Group& g, const Suspects& suspects,
             const SendEstimate& send_estimate, const SendNack& send_nack,
             const Coordinate& coordinate) {
  const std::uint32_t first = advance_round(s, g, suspects);
  for (std::uint32_t r = first; r < s.round; ++r) {
    send_estimate(r);
    send_nack(r);
  }
  if (g.coordinator(s.round) == g.self) {
    coordinate(s.round);
  } else {
    send_estimate(s.round);
  }
}

/// True when suspecting q moves s on: s is undecided and q coordinates its
/// current round. Marks that round nacked; the caller nacks q and advances.
bool suspect(RoundState& s, const Group& g, util::ProcessId q);

/// True when a nack for `round` makes its (undecided) coordinator leave it.
bool leaves_on_nack(const RoundState& s, const Group& g, std::uint32_t round);

/// A participant's answer to the proposal for `round` (already stored in
/// s.proposals); catches s up to a later round. kAck: adopt() and ack,
/// unless the shell defers. kNack: the round's coordinator is suspected —
/// nack and advance. kStaleNack: a round s left — nack so its coordinator
/// moves on. kDuplicate: already acked. kIgnore: decided or already nacked.
enum class Vote { kIgnore, kAck, kNack, kStaleNack, kDuplicate };
Vote vote(RoundState& s, const Group& g, std::uint32_t round,
          bool coordinator_suspected);

/// CT adoption: estimate := proposal of `round`, ts := round; round acked.
void adopt(RoundState& s, std::uint32_t round);

/// True when s coordinates `round`, is in it, is undecided and has not
/// proposed there yet.
bool may_propose(const RoundState& s, const Group& g, std::uint32_t round);

/// Rule 2 over one round's estimates; nullptr if empty.
const Estimate* locking_rule(
    const std::map<util::ProcessId, Estimate>& ests);

/// The estimate the coordinator must propose in `round`: the locking rule
/// over a majority of estimates, or nullptr while fewer have arrived.
const Estimate* locked_estimate(const RoundState& s, const Group& g,
                                std::uint32_t round);

/// The coordinator proposes `value` in `round`, adopting it itself (its
/// implicit ack).
void propose(RoundState& s, std::uint32_t round, util::Payload value);

/// True when the proposal for `round` holds a majority of acks (the
/// coordinator's own included) and s is undecided: broadcast the decision.
bool maybe_decide_as_coordinator(const RoundState& s, const Group& g,
                                 std::uint32_t round);

/// Counts `from`'s ack for s's proposal in `round`; then as above.
bool count_ack(RoundState& s, const Group& g, std::uint32_t round,
               util::ProcessId from);

/// One stack's consensus instances plus the decisions retained for answering
/// pulls. `Instance` extends RoundState with the shell's timers.
template <typename Instance, typename Value = util::Payload>
class Instances {
 public:
  /// Instance k, created on first touch. One touched after its decision
  /// arrived is born decided, so no stale round machinery runs for it.
  Instance& at(std::uint64_t k, bool* created = nullptr) {
    auto [it, inserted] = instances_.try_emplace(k);
    if (inserted) {
      it->second.k = k;
      it->second.decided = decisions_.count(k) != 0;
    }
    if (created != nullptr) *created = inserted;
    return it->second;
  }
  Instance* find(std::uint64_t k) {
    auto it = instances_.find(k);
    return it == instances_.end() ? nullptr : &it->second;
  }

  bool decided(std::uint64_t k) const { return decisions_.count(k) != 0; }
  const Value* decision(std::uint64_t k) const {
    auto it = decisions_.find(k);
    return it == decisions_.end() ? nullptr : &it->second;
  }
  /// Retains k's decision and marks its open instance decided; returns the
  /// instance (nullptr if none is open). The caller checks decided(k).
  Instance* decide(std::uint64_t k, Value value) {
    decisions_.emplace(k, std::move(value));
    Instance* inst = find(k);
    if (inst != nullptr) inst->decided = true;
    return inst;
  }

  /// Called once per decision, for the instance k just decided. Keeps at
  /// most `retention` decisions, dropping the oldest with their instances —
  /// never `except_k`: callers up the stack may hold it. The instance
  /// decided before k has no round work left, so its round state goes now;
  /// its decision stays, and a later touch finds it born decided.
  void prune(std::uint64_t retention, std::uint64_t except_k) {
    if (previous_ != except_k) {
      auto it = instances_.find(previous_);
      if (it != instances_.end() && it->second.decided) instances_.erase(it);
      previous_ = except_k;
    }
    while (decisions_.size() > retention) {
      const std::uint64_t oldest = decisions_.begin()->first;
      if (oldest == except_k) break;
      decisions_.erase(decisions_.begin());
      auto it = instances_.find(oldest);
      if (it != instances_.end() && it->second.decided) instances_.erase(it);
    }
  }

  /// Calls fn(instance) for every undecided instance. fn may decide and
  /// prune, so it walks a snapshot of keys and re-looks each one up.
  template <typename Fn>
  void for_each_undecided(Fn fn) {
    std::vector<std::uint64_t> keys;
    keys.reserve(instances_.size());
    for (const auto& [k, inst] : instances_) keys.push_back(k);
    for (std::uint64_t k : keys) {
      Instance* inst = find(k);
      if (inst != nullptr && !inst->decided) fn(*inst);
    }
  }

 private:
  std::map<std::uint64_t, Instance> instances_;
  std::map<std::uint64_t, Value> decisions_;
  std::uint64_t previous_ = ~std::uint64_t{0};  ///< last prune()'s except_k
};

}  // namespace modcast::ct
