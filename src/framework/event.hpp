// Events exchanged between microprotocol modules.
//
// Mirrors the Cactus/Fortika composition model (§5.3.1 of the paper): modules
// never call each other directly; they raise named events that the stack
// dispatches to whatever modules registered interest. The body of a local
// event is a type-erased payload — a receiving module knows the agreed body
// type of an event it binds to, but can never reach into the *raising*
// module's state. This is exactly the black-box boundary whose cost the
// paper measures.
#pragma once

#include <cstdint>
#include <memory>

#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace modcast::framework {

/// Identifier of an inter-module event channel. Values are assigned in
/// event_types.hpp; modules agree on the id and the body type only.
using EventType = std::uint16_t;

/// Identifier of a module for network demultiplexing: every wire message of
/// a composed stack is prefixed with the destination module's id.
using ModuleId = std::uint8_t;

struct Event {
  EventType type = 0;
  /// Network events: the remote peer (sender on deliver). Unused otherwise.
  util::ProcessId peer = util::kInvalidProcess;
  /// Serialized payload for events that came from / go to the wire.
  util::Bytes payload;
  /// Typed body for local inter-module events (black-box to other modules).
  std::shared_ptr<void> body;

  template <typename T>
  static Event local(EventType type, T body_value) {
    Event ev;
    ev.type = type;
    // wirecheck:allow(hot.alloc): Type-erased body storage is the Event contract; local events are per-decision, not per wire message.
    ev.body = std::make_shared<T>(std::move(body_value));
    return ev;
  }

  /// Returns the body as T. The binding contract of each event type fixes T;
  /// a mismatch is a wiring bug, so no runtime type check is performed.
  template <typename T>
  T& as() const {
    return *static_cast<T*>(body.get());
  }
};

// ---------------------------------------------------------------------------
// Event-type and module-id registry for the atomic broadcast stacks.
// ---------------------------------------------------------------------------

// Inter-module local events (modular stack).
inline constexpr EventType kEvPropose = 10;   ///< ABcast -> Consensus
inline constexpr EventType kEvDecide = 11;    ///< Consensus -> ABcast
/// Consensus -> ABcast: an instance needs this process's initial value (a
/// recovery-round coordinator solicited participation) — please propose,
/// even an empty batch.
inline constexpr EventType kEvProposeRequest = 12;
/// ABcast -> Consensus: a previously-invalid proposal for this instance may
/// validate now (the extended consensus specification of indirect
/// consensus, Ekwall & Schiper DSN'06 — the paper's reference [12]).
inline constexpr EventType kEvRevalidate = 13;
inline constexpr EventType kEvRbcast = 20;    ///< Consensus -> RBcast
inline constexpr EventType kEvRdeliver = 21;  ///< RBcast -> Consensus
inline constexpr EventType kEvSuspect = 30;   ///< FD -> anyone
inline constexpr EventType kEvRestore = 31;   ///< FD -> anyone

// Module ids used as the wire-demux prefix.
inline constexpr ModuleId kModAbcast = 1;
inline constexpr ModuleId kModConsensus = 2;
inline constexpr ModuleId kModRbcast = 3;
inline constexpr ModuleId kModFd = 4;
inline constexpr ModuleId kModMonolithic = 5;

/// Body of kEvPropose / kEvDecide: a consensus instance number and an opaque
/// serialized value (the consensus module must not interpret it). Payload,
/// not Bytes: a decided value is a view of the proposal frame it arrived
/// in, shared by consensus, the retained decision and the abcast layer.
struct ConsensusValueBody {
  std::uint64_t instance = 0;
  util::Payload value;
};

/// Body of kEvProposeRequest.
struct ProposeRequestBody {
  std::uint64_t instance = 0;
};

/// Body of kEvRbcast: opaque payload to broadcast reliably. Payload, not
/// Bytes: the broadcast fans out to n-1 peers and the delivered view is a
/// zero-copy slice of the received wire message.
struct RbcastBody {
  util::Payload payload;
};

/// Body of kEvRdeliver: origin plus the opaque payload.
struct RdeliverBody {
  util::ProcessId origin = util::kInvalidProcess;
  util::Payload payload;
};

/// Body of kEvSuspect / kEvRestore.
struct SuspicionBody {
  util::ProcessId process = util::kInvalidProcess;
};

}  // namespace modcast::framework
