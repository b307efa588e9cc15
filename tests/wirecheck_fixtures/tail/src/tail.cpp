// Hot file: a trailing helper call vs trailing bytes pairs up only when
// everything before it matches; here the field before the batch differs.
#include <cstdint>

namespace fix {

constexpr std::uint8_t kTail = 2;

struct Tail {
  void encode_tail(ByteWriter& w) const {
    w.u8(kTail);
    w.u32(k_);
    encode_batch(w, batch_);
  }

  void on_wire(ByteReader& r) {
    switch (r.u8()) {
      case kTail:
        k_ = r.u64();  // wrong width: encoder wrote u32
        value_ = r.rest_payload();
        break;
      default:
        break;
    }
  }

  std::uint64_t k_ = 0;
  Batch batch_;
  Payload value_;
};

}  // namespace fix
