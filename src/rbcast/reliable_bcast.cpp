#include "rbcast/reliable_bcast.hpp"

#include "util/bytes.hpp"

namespace modcast::rbcast {

/// Recent messages retained for suspicion-triggered re-relay.
constexpr std::size_t kRelayBuffer = 256;

void ReliableBcast::init(framework::Stack& stack) {
  stack_ = &stack;
  stack.bind_wire(framework::kModRbcast,
                  [this](util::ProcessId from, util::Payload msg) {
                    on_wire(from, std::move(msg));
                  });
  stack.bind(framework::kEvRbcast, [this](const framework::Event& ev) {
    rbcast(ev.as<framework::RbcastBody>().payload);
  });
  stack.bind(framework::kEvSuspect, [this](const framework::Event& ev) {
    on_suspect(ev.as<framework::SuspicionBody>().process);
  });
}

util::Payload ReliableBcast::encode(util::ProcessId origin, std::uint64_t seq,
                                    const util::Payload& payload) const {
  util::ByteWriter w =
      framework::Stack::writer(framework::kModRbcast, payload.size() + 16);
  w.u32(origin);
  w.u64(seq);
  w.blob(payload);
  return w.take();
}

void ReliableBcast::rbcast(util::Payload payload) {
  const util::ProcessId self = stack_->self();
  const std::uint64_t seq = next_seq_++;
  stack_->send_wire_to_others(framework::kModRbcast,
                              encode(self, seq, payload));
  // Local rdelivery: the broadcaster delivers without a network hop.
  deliver_and_maybe_relay(self, seq, std::move(payload),
                          /*i_am_origin=*/true);
}

void ReliableBcast::on_wire(util::ProcessId from, util::Payload msg) {
  (void)from;
  util::ByteReader r(msg);
  const util::ProcessId origin = r.u32();
  // The origin indexes the dense per-origin delivery tracker.
  if (origin >= stack_->group_size()) {
    throw util::DecodeError("rbcast: origin " + std::to_string(origin) +
                            " outside the group");
  }
  const std::uint64_t seq = r.u64();
  // Zero-copy: the delivered payload is a slice of the received message.
  util::Payload payload = r.blob_payload();
  deliver_and_maybe_relay(origin, seq, std::move(payload),
                          /*i_am_origin=*/false);
}

void ReliableBcast::deliver_and_maybe_relay(util::ProcessId origin,
                                            std::uint64_t seq,
                                            util::Payload payload,
                                            bool i_am_origin) {
  if (!delivered_.mark(origin, seq)) return;  // duplicate

  bool relayed = i_am_origin;  // the origin's initial send counts as a relay
  if (!i_am_origin) {
    const bool should_relay =
        config_.variant == Variant::kClassic ||
        ct::resends(group(), origin, stack_->self());
    if (should_relay) {
      relay(origin, seq, payload);
      relayed = true;
    }
  }
  remember(origin, seq, payload, relayed);

  stack_->raise(framework::Event::local(
      framework::kEvRdeliver,
      framework::RdeliverBody{origin, std::move(payload)}));
}

void ReliableBcast::relay(util::ProcessId origin, std::uint64_t seq,
                          const util::Payload& payload) {
  // Relays happen before the rdeliver raise, outside any instance scope the
  // original broadcaster had; mark them so metrics can separate the
  // ⌊(n−1)/2⌋·(n−1) relay copies from initial fan-outs.
  framework::TraceScope scope(*stack_, framework::kNoInstance, 0,
                              framework::kTraceFlagRelay);
  stack_->send_wire_to_others(framework::kModRbcast,
                              encode(origin, seq, payload));
}

void ReliableBcast::remember(util::ProcessId origin, std::uint64_t seq,
                             util::Payload payload, bool relayed) {
  recent_.push_back(Recent{origin, seq, std::move(payload), relayed});
  while (recent_.size() > kRelayBuffer) recent_.pop_front();
}

void ReliableBcast::on_suspect(util::ProcessId q) {
  if (config_.variant == Variant::kClassic) return;  // everyone relays anyway
  // Fallback: if a process responsible for relaying (origin or resender)
  // is suspected, relay recent messages ourselves so the all-or-none
  // guarantee survives resender crashes.
  const ct::Group g = group();
  for (auto& rec : recent_) {
    const bool q_responsible = q == rec.origin || ct::resends(g, rec.origin, q);
    if (q_responsible && !rec.relayed_by_me) {
      relay(rec.origin, rec.seq, rec.payload);
      rec.relayed_by_me = true;
    }
  }
}

}  // namespace modcast::rbcast
