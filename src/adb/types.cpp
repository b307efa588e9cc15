#include "adb/types.hpp"

namespace modcast::adb {

void encode_message(util::ByteWriter& w, const AppMessage& m) {
  w.u32(m.id.origin);
  w.u64(m.id.seq);
  w.blob(m.payload);
}

AppMessage decode_message(util::ByteReader& r) {
  AppMessage m;
  m.id.origin = r.u32();
  m.id.seq = r.u64();
  m.payload = r.blob();
  return m;
}

util::Bytes encode_batch(const std::vector<AppMessage>& batch) {
  std::size_t total = 4;
  for (const auto& m : batch) total += encoded_size(m);
  util::ByteWriter w(total);
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const auto& m : batch) encode_message(w, m);
  return w.take();
}

std::vector<AppMessage> decode_batch(const util::Bytes& data) {
  util::ByteReader r(data);
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
    batch.push_back(decode_message(r));
  }
  return batch;
}

std::size_t encoded_size(const AppMessage& m) {
  return 4 + 8 + 4 + m.payload.size();
}

std::size_t payload_bytes(const std::vector<AppMessage>& batch) {
  std::size_t bytes = 0;
  for (const AppMessage& m : batch) bytes += m.payload.size();
  return bytes;
}

util::Bytes encode_id_batch(const std::vector<MsgId>& ids) {
  util::ByteWriter w(4 + ids.size() * 12);
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const MsgId& id : ids) {
    w.u32(id.origin);
    w.u64(id.seq);
  }
  return w.take();
}

std::vector<MsgId> decode_id_batch(const util::Bytes& data) {
  util::ByteReader r(data);
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
    id.seq = r.u64();
    ids.push_back(id);
  }
  return ids;
}

}  // namespace modcast::adb
