#include "ct/dissemination.hpp"

namespace modcast::ct {

bool resends(const Group& g, util::ProcessId origin, util::ProcessId q) {
  const auto n = static_cast<std::uint32_t>(g.n);
  const std::uint32_t resenders = (n - 1) / 2;
  const std::uint32_t distance = (q + n - origin) % n;  // ring order
  return distance >= 1 && distance <= resenders;
}

const util::Payload* resolve_tag(RoundState& s, std::uint32_t round) {
  auto it = s.proposals.find(round);
  if (it != s.proposals.end()) return &it->second;
  s.pending_tag_round = round;
  return nullptr;
}

bool hold_proposal(RoundState& s, std::uint32_t round, util::Payload value) {
  s.proposals[round] = std::move(value);
  return !s.decided && s.pending_tag_round == round;
}

}  // namespace modcast::ct
