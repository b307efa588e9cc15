// Binary serialization primitives.
//
// Every message that crosses a (simulated or real) network in this library is
// actually serialized through ByteWriter/ByteReader, so wire sizes reported by
// the simulator are honest byte counts, not estimates. Encoding is
// little-endian fixed-width for integers plus length-prefixed blobs; varints
// are available where the paper's header-size arguments matter.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace modcast::util {

/// Owned byte string. Cheap to move; copied only when a message fans out.
using Bytes = std::vector<std::uint8_t>;

/// Thrown by ByteReader when a decode runs past the end of the buffer or a
/// length prefix is inconsistent. Decoding errors are protocol bugs or
/// corruption, never expected control flow, so an exception is appropriate.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// DecodeError thrown by ByteReader bounds checks. Carries the exact read
/// position, the width the caller asked for, and what was left, so a wire
/// regression failure names the offending field instead of just "truncated".
class TruncatedReadError : public DecodeError {
 public:
  TruncatedReadError(std::size_t offset, std::size_t requested,
                     std::size_t available)
      : DecodeError("ByteReader: truncated read at offset " +
                    std::to_string(offset) + ": requested " +
                    std::to_string(requested) + " byte(s), " +
                    std::to_string(available) + " available"),
        offset_(offset),
        requested_(requested),
        available_(available) {}

  std::size_t offset() const { return offset_; }
  std::size_t requested() const { return requested_; }
  std::size_t available() const { return available_; }

 private:
  std::size_t offset_;
  std::size_t requested_;
  std::size_t available_;
};

/// Immutable ref-counted byte buffer with an (offset, length) view.
///
/// An n-way broadcast serializes its message once into a Payload and hands
/// the same buffer to every destination — copying a Payload copies a
/// shared_ptr and two integers, never the bytes. Consumers that need to
/// strip a header take a slice() (same buffer, narrower view) or narrow
/// their own view in place with remove_prefix(); consumers
/// that need mutable bytes call to_bytes(), which is the copy-on-write
/// escape hatch. The refcount is atomic, so Payloads may cross threads
/// (ThreadWorld hands them between process threads).
class Payload {
 public:
  Payload() = default;

  /// Implicit by design: `send(to, writer.take())` keeps working at every
  /// call site that used to pass Bytes.
  Payload(Bytes bytes)
      : buf_(std::make_shared<Bytes>(std::move(bytes))),
        offset_(0),
        length_(buf_->size()) {}

  std::size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }

  const std::uint8_t* data() const {
    return buf_ ? buf_->data() + offset_ : nullptr;
  }

  std::span<const std::uint8_t> span() const {
    return buf_ ? std::span<const std::uint8_t>(buf_->data() + offset_,
                                                length_)
                : std::span<const std::uint8_t>();
  }

  std::uint8_t operator[](std::size_t i) const { return (*buf_)[offset_ + i]; }

  /// Narrower view of the same buffer; no bytes are copied.
  Payload slice(std::size_t off) const { return slice(off, length_ - off); }
  Payload slice(std::size_t off, std::size_t len) const {
    Payload p;
    if (off > length_ || len > length_ - off) {
      throw DecodeError("Payload::slice out of range");
    }
    p.buf_ = buf_;
    p.offset_ = offset_ + off;
    p.length_ = len;
    return p;
  }

  /// Narrows this view by its first n bytes, in place: no refcount traffic.
  void remove_prefix(std::size_t n) {
    if (n > length_) throw DecodeError("Payload::remove_prefix out of range");
    offset_ += n;
    length_ -= n;
  }

  /// Materializes an owned copy of the viewed bytes (copy-on-write: the
  /// shared buffer itself is never mutated).
  Bytes to_bytes() const {
    return buf_ ? Bytes(buf_->begin() + static_cast<std::ptrdiff_t>(offset_),
                        buf_->begin() +
                            static_cast<std::ptrdiff_t>(offset_ + length_))
                : Bytes{};
  }

  /// Like to_bytes(), but steals the buffer without copying when this view
  /// is the sole owner of the whole buffer.
  Bytes detach() {
    if (buf_ && buf_.use_count() == 1 && offset_ == 0 &&
        length_ == buf_->size()) {
      Bytes out = std::move(*buf_);
      buf_.reset();
      offset_ = length_ = 0;
      return out;
    }
    Bytes out = to_bytes();
    buf_.reset();
    offset_ = length_ = 0;
    return out;
  }

  /// Content equality and order: bytes, never buffer identity. Two views of
  /// distinct buffers holding equal bytes compare equal. The order is
  /// lexicographic, the same as Bytes'.
  friend bool operator==(const Payload& a, const Payload& b) {
    return a.size() == b.size() &&
           std::equal(a.span().begin(), a.span().end(), b.span().begin());
  }
  friend std::strong_ordering operator<=>(const Payload& a,
                                          const Payload& b) {
    const auto x = a.span();
    const auto y = b.span();
    return std::lexicographical_compare_three_way(x.begin(), x.end(),
                                                  y.begin(), y.end());
  }

  // --- introspection (tests assert the zero-copy properties) ---------------
  bool shares_buffer(const Payload& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }
  long use_count() const { return buf_ ? buf_.use_count() : 0; }

 private:
  std::shared_ptr<Bytes> buf_;
  std::size_t offset_ = 0;
  std::size_t length_ = 0;
};

/// Appends primitive values to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);

  /// LEB128 unsigned varint (1 byte for values < 128).
  void varint(std::uint64_t v);

  /// Length-prefixed (u32) raw bytes.
  void blob(std::span<const std::uint8_t> data);
  void blob(const Bytes& data) {
    blob(std::span<const std::uint8_t>(data.data(), data.size()));
  }

  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);

  /// Appends raw bytes with no length prefix (caller knows the framing).
  void raw(std::span<const std::uint8_t> data);
  void raw(const Bytes& data) {
    raw(std::span<const std::uint8_t>(data.data(), data.size()));
  }
  void raw(const Payload& data) { raw(data.span()); }

  void blob(const Payload& data) { blob(data.span()); }

  std::size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }

  /// Takes the accumulated buffer, leaving the writer empty.
  Bytes take() { return std::move(buf_); }
  const Bytes& bytes() const { return buf_; }

 private:
  Bytes buf_;
};

/// Reads primitive values from a byte span. A reader built from a Payload
/// also hands out slices of it: blob_payload() and rest_payload() return
/// views of the same buffer, so decoding never copies a payload.
///
/// A reader borrows the Payload it reads (no refcount traffic), so that
/// Payload must outlive it and stay unchanged while it reads; a reader of a
/// temporary Payload does not compile.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const Bytes& data)
      : data_(std::span<const std::uint8_t>(data.data(), data.size())) {}
  explicit ByteReader(const Payload& data)
      : data_(data.span()), backing_(&data) {}
  ByteReader(Payload&&) = delete;

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::uint64_t varint();
  /// Length-prefixed bytes as an owned copy.
  Bytes blob();
  std::string str();

  /// Reads exactly n raw bytes as an owned copy.
  Bytes raw(std::size_t n);

  /// Length-prefixed bytes as a slice of the backing Payload (no copy).
  /// Throws std::logic_error on a reader not built from a Payload.
  Payload blob_payload();
  /// Consumes the remaining unread bytes as a slice of the backing Payload.
  Payload rest_payload();

  /// Returns the remaining unread bytes without consuming them.
  std::span<const std::uint8_t> rest() const { return data_.subspan(pos_); }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) const;
  /// The next n bytes as a slice of backing_.
  Payload slice(std::size_t n);

  std::span<const std::uint8_t> data_;
  const Payload* backing_ = nullptr;  ///< set when built from a Payload
  std::size_t pos_ = 0;
};

/// Number of bytes varint(v) will occupy.
std::size_t varint_size(std::uint64_t v);

}  // namespace modcast::util
