// Dissemination core: majority-resend reliable broadcast (§3.1) and
// DECISION tags with a pull fallback (§3.2), written once for rbcast, the
// consensus module and the monolithic stack. Sans-IO, like round_core: the
// shells keep their wire kinds, pull sends, timers and stats.
#pragma once

#include <cstdint>

#include "ct/round_core.hpp"
#include "util/time.hpp"

namespace modcast::ct {

/// Period of a shell's decision pull while a tag stays unresolved.
inline constexpr util::Duration kPullRetry = util::milliseconds(100);
/// Decided instances each stack retains for answering pulls.
inline constexpr std::uint64_t kDecisionRetention = 512;

/// True when q resends what `origin` broadcasts: the ⌊(n−1)/2⌋ processes
/// after the origin in ring order, (q − origin) mod n ∈ [1, ⌊(n−1)/2⌋].
/// With the origin they form a majority for odd n. Ids are below g.n.
bool resends(const Group& g, util::ProcessId origin, util::ProcessId q);

/// A DECISION tag names `round`: the proposal held for it, or nullptr after
/// recording the round as pending (the shell then pulls the full value).
const util::Payload* resolve_tag(RoundState& s, std::uint32_t round);

/// Holds the proposal for `round` as it arrives. True when it resolves a
/// pending tag: s is undecided and the tag named this round, so the shell
/// decides s.proposals[round].
bool hold_proposal(RoundState& s, std::uint32_t round, util::Payload value);

}  // namespace modcast::ct
