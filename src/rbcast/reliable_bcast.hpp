// Reliable broadcast (§3.1).
//
// Guarantees: a message rbcast by any process is rdelivered by all correct
// processes or by none, even if the sender crashes mid-broadcast. No order.
//
// Two variants:
//  * Classic — on first receipt, every process re-sends to everyone:
//    ~n² messages per broadcast.
//  * Majority (the paper's optimization) — only the ⌊(n−1)/2⌋ resenders
//    ct::resends names re-send, giving (n−1)·(⌊(n−1)/2⌋+1) messages.
//    Correct under the majority-correct assumption (which consensus needs
//    anyway): sender + resenders form a majority, so at least one correct
//    process relays. As a belt-and-braces fallback for the case where the
//    crashed process *was* a resender, any process that suspects the sender
//    or a resender re-relays its recent messages itself.
//
// Input:  framework event kEvRbcast (RbcastBody{payload}), or rbcast().
// Output: framework event kEvRdeliver (RdeliverBody{origin, payload}).
#pragma once

#include <cstdint>
#include <deque>

#include "ct/dissemination.hpp"
#include "framework/stack.hpp"
#include "util/seq_tracker.hpp"

namespace modcast::rbcast {

enum class Variant {
  kClassic,   ///< everyone re-sends: ~n² messages
  kMajority,  ///< designated majority re-sends: (n−1)(⌊(n−1)/2⌋+1) messages
};

struct RbcastConfig {
  Variant variant = Variant::kMajority;
};

class ReliableBcast final : public framework::Module {
 public:
  explicit ReliableBcast(RbcastConfig config = {}) : config_(config) {}

  std::string_view name() const override { return "reliable-bcast"; }
  void init(framework::Stack& stack) override;

  /// Broadcasts payload reliably; rdelivers locally right away.
  void rbcast(util::Payload payload);

 private:
  struct Recent {
    util::ProcessId origin;
    std::uint64_t seq;
    util::Payload payload;
    bool relayed_by_me;
  };

  ct::Group group() const { return {stack_->group_size(), stack_->self()}; }
  void on_wire(util::ProcessId from, util::Payload msg);
  void on_suspect(util::ProcessId q);
  void deliver_and_maybe_relay(util::ProcessId origin, std::uint64_t seq,
                               util::Payload payload, bool i_am_origin);
  /// Re-broadcasts (origin, seq, payload) in a fresh frame. Good-run relays
  /// carry decision tags, so the re-serialization copies a few bytes.
  void relay(util::ProcessId origin, std::uint64_t seq,
             const util::Payload& payload);
  /// The wire frame of (origin, seq, payload).
  util::Payload encode(util::ProcessId origin, std::uint64_t seq,
                       const util::Payload& payload) const;
  void remember(util::ProcessId origin, std::uint64_t seq,
                util::Payload payload, bool relayed);

  RbcastConfig config_;
  framework::Stack* stack_ = nullptr;
  std::uint64_t next_seq_ = 0;
  util::SeqTracker delivered_;
  std::deque<Recent> recent_;
};

}  // namespace modcast::rbcast
