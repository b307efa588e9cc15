#include "util/bytes.hpp"

#include <bit>
#include <cstring>

namespace modcast::util {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::blob(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteReader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw TruncatedReadError(pos_, n, data_.size() - pos_);
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    std::uint8_t b = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (b & 0x7e) != 0)) {
      throw DecodeError("ByteReader: varint overflow");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

Bytes ByteReader::blob() {
  std::uint32_t n = u32();
  return raw(n);
}

std::string ByteReader::str() {
  std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Payload ByteReader::blob_payload() {
  std::uint32_t n = u32();
  return slice(n);
}

Payload ByteReader::rest_payload() { return slice(remaining()); }

Payload ByteReader::slice(std::size_t n) {
  need(n);
  if (backing_ == nullptr) {
    throw std::logic_error("ByteReader: slice reads need a Payload reader");
  }
  Payload out = backing_->slice(pos_, n);
  pos_ += n;
  return out;
}

Bytes ByteReader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace modcast::util
