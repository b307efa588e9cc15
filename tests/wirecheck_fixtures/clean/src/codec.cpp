// Symmetric tagged codec: kPing is fixed-width, kPong exercises the
// u32-length + position-slice ≡ blob normalization, kBatch the slice reads
// (blob_payload ≡ blob) and a trailing helper-encoded batch kept by the
// decoder as an undecoded value (call:batch ≡ rest at the end).
#include <cstdint>

namespace fix {

constexpr std::uint8_t kPing = 1;
constexpr std::uint8_t kPong = 2;
constexpr std::uint8_t kBatch = 3;

struct Codec {
  void encode_ping(ByteWriter& w) const {
    w.u8(kPing);
    w.u32(seq_);
    w.u64(stamp_);
  }

  void encode_pong(ByteWriter& w) const {
    w.u8(kPong);
    w.u64(origin_);
    w.blob(body_);
  }

  void encode_proposal(ByteWriter& w) const {
    w.u8(kBatch);
    w.blob(body_);
    encode_batch(w, batch_);
  }

  void on_wire(Payload msg) {
    ByteReader r(msg);
    switch (r.u8()) {
      case kPing: {
        seq_ = r.u32();
        stamp_ = r.u64();
        break;
      }
      case kPong: {
        origin_ = r.u64();
        const std::uint32_t len = r.u32();
        body_ = msg.slice(r.position(), len);
        break;
      }
      case kBatch: {
        body_ = r.blob_payload();
        value_ = r.rest_payload();
        break;
      }
      default:
        break;
    }
  }

  std::uint32_t seq_ = 0;
  std::uint64_t stamp_ = 0;
  std::uint64_t origin_ = 0;
  Payload body_;
  Payload value_;
  Batch batch_;
};

}  // namespace fix
