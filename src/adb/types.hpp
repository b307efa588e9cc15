// ADB service layer: message identity and batch wire format shared by both
// atomic broadcast implementations (the data format is not protocol logic,
// so sharing it keeps the modular/monolithic comparison apples-to-apples).
// Lives outside src/abcast so the monolithic stack never includes modular
// stack headers — modcheck enforces that boundary.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace modcast::adb {

/// Globally unique id of an abcast message: (origin process, per-origin seq).
struct MsgId {
  util::ProcessId origin = util::kInvalidProcess;
  std::uint64_t seq = 0;

  friend auto operator<=>(const MsgId&, const MsgId&) = default;
};

/// An application message travelling through atomic broadcast. The payload
/// is a view of the frame it arrived in (or of the buffer abcast() took):
/// every layer above the wire shares those bytes instead of copying them.
struct AppMessage {
  MsgId id;
  util::Payload payload;
};

/// adeliver upcall of either stack: origin, seq, payload (same order at
/// every process). Installed once; the public Bytes boundary is
/// core::AbcastProcess.
// wirecheck:allow(hot.function): Set once per process by set_deliver_handler, never constructed per message.
using DeliverFn = std::function<void(util::ProcessId, std::uint64_t,
                                     const util::Payload&)>;
/// seq — own message admitted by flow control (the paper's t0 for early
/// latency: the instant abcast(m) completes).
// wirecheck:allow(hot.function): Set once per process by set_admit_handler, never constructed per message.
using AdmitFn = std::function<void(std::uint64_t)>;

/// Serializes one message (id + length-prefixed payload).
void encode_message(util::ByteWriter& w, const AppMessage& m);
/// Decodes one message; its payload is a slice of r's Payload. Every
/// decoder below throws util::DecodeError for an origin >= group_size.
AppMessage decode_message(util::ByteReader& r, std::size_t group_size);

/// Serializes a batch: count followed by messages. Batches are the values
/// consensus agrees on; they carry full payloads so a process that missed
/// the original diffusion still obtains the message content. Writing into
/// the caller's writer puts the batch straight into an outgoing frame.
void encode_batch(util::ByteWriter& w, const std::vector<AppMessage>& batch);
/// Decodes a batch at r's position; payloads are slices of r's Payload.
std::vector<AppMessage> decode_batch(util::ByteReader& r,
                                     std::size_t group_size);
/// A batch as a standalone value (a consensus proposal or estimate).
util::Bytes encode_batch(const std::vector<AppMessage>& batch);
/// Decodes a whole value; the messages share its buffer.
std::vector<AppMessage> decode_batch(const util::Payload& value,
                                     std::size_t group_size);

/// Size in bytes encode_message will produce (for size accounting).
std::size_t encoded_size(const AppMessage& m);
/// Size in bytes encode_batch will produce (writers reserve it up front, so
/// a batch is copied into its frame exactly once).
std::size_t encoded_size(const std::vector<AppMessage>& batch);
/// Application payload bytes a batch carries (trace accounting).
std::size_t payload_bytes(const std::vector<AppMessage>& batch);

/// Id-only batch codec, used by the indirect-consensus variant ([12],
/// Ekwall & Schiper DSN'06): consensus agrees on 12-byte message ids while
/// payloads travel only via diffusion.
void encode_id_batch(util::ByteWriter& w, const std::vector<MsgId>& ids);
std::vector<MsgId> decode_id_batch(util::ByteReader& r,
                                   std::size_t group_size);
util::Bytes encode_id_batch(const std::vector<MsgId>& ids);
std::vector<MsgId> decode_id_batch(const util::Payload& value,
                                   std::size_t group_size);

}  // namespace modcast::adb
