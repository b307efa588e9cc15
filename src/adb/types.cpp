#include "adb/types.hpp"

namespace modcast::adb {

namespace {

/// Origins index dense per-origin tables (the pool index, delivery
/// trackers): one outside the group is malformed, never a size.
void check_origin(util::ProcessId origin, std::size_t group_size) {
  if (origin >= group_size) {
    throw util::DecodeError("adb: origin " + std::to_string(origin) +
                            " outside a group of " +
                            std::to_string(group_size));
  }
}

}  // namespace

// Each writer/reader codec is the wire format and comes before its value
// form, which wraps it: wirecheck pairs the first definition of a name.

void encode_message(util::ByteWriter& w, const AppMessage& m) {
  w.u32(m.id.origin);
  w.u64(m.id.seq);
  w.blob(m.payload);
}

AppMessage decode_message(util::ByteReader& r, std::size_t group_size) {
  AppMessage m;
  m.id.origin = r.u32();
  check_origin(m.id.origin, group_size);
  m.id.seq = r.u64();
  m.payload = r.blob_payload();
  return m;
}

void encode_batch(util::ByteWriter& w, const std::vector<AppMessage>& batch) {
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const auto& m : batch) encode_message(w, m);
}

std::vector<AppMessage> decode_batch(util::ByteReader& r,
                                     std::size_t group_size) {
  const std::uint32_t count = r.u32();
  // Each message needs at least 16 bytes (id + empty payload's length
  // prefix): reject counts a corrupt buffer cannot possibly hold before
  // reserving memory for them.
  if (count > r.remaining() / 16) {
    throw util::DecodeError("decode_batch: implausible batch count " +
                            std::to_string(count));
  }
  std::vector<AppMessage> batch;
  batch.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    batch.push_back(decode_message(r, group_size));
  }
  return batch;
}

util::Bytes encode_batch(const std::vector<AppMessage>& batch) {
  util::ByteWriter w(encoded_size(batch));
  encode_batch(w, batch);
  return w.take();
}

std::vector<AppMessage> decode_batch(const util::Payload& value,
                                     std::size_t group_size) {
  util::ByteReader r(value);
  return decode_batch(r, group_size);
}

std::size_t encoded_size(const AppMessage& m) {
  return 4 + 8 + 4 + m.payload.size();
}

std::size_t encoded_size(const std::vector<AppMessage>& batch) {
  std::size_t total = 4;
  for (const AppMessage& m : batch) total += encoded_size(m);
  return total;
}

std::size_t payload_bytes(const std::vector<AppMessage>& batch) {
  std::size_t bytes = 0;
  for (const AppMessage& m : batch) bytes += m.payload.size();
  return bytes;
}

void encode_id_batch(util::ByteWriter& w, const std::vector<MsgId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const MsgId& id : ids) {
    w.u32(id.origin);
    w.u64(id.seq);
  }
}

std::vector<MsgId> decode_id_batch(util::ByteReader& r,
                                   std::size_t group_size) {
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 12) {
    throw util::DecodeError("decode_id_batch: implausible count " +
                            std::to_string(count));
  }
  std::vector<MsgId> ids;
  ids.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    MsgId id;
    id.origin = r.u32();
    check_origin(id.origin, group_size);
    id.seq = r.u64();
    ids.push_back(id);
  }
  return ids;
}

util::Bytes encode_id_batch(const std::vector<MsgId>& ids) {
  util::ByteWriter w(4 + ids.size() * 12);
  encode_id_batch(w, ids);
  return w.take();
}

std::vector<MsgId> decode_id_batch(const util::Payload& value,
                                   std::size_t group_size) {
  util::ByteReader r(value);
  return decode_id_batch(r, group_size);
}

}  // namespace modcast::adb
