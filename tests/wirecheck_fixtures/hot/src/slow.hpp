// Identical content to fast.hpp but not in the [hot] list: nothing fires.
#pragma once
#include <functional>
#include <memory>

namespace fix {

struct SlowDispatcher {
  std::function<void(int)> fn_;
  void spawn() { buf_ = new char[64]; }
  auto share() { return std::make_shared<int>(7); }
  void clone(Payload p) { copy_ = p.to_bytes(); }
  void decode(Payload msg) {
    ByteReader r(msg);
    copy_ = r.blob();
    copy_ = r.raw(4);
    Bytes rest(r.rest().begin(), r.rest().end());
  }
  void decode_slices(Payload msg, ByteWriter& w) {
    ByteReader r(msg);
    view_ = r.blob_payload();
    view_ = r.rest_payload();
    w.raw(view_);
  }
  char* buf_ = nullptr;
  Bytes copy_;
  Payload view_;
};

}  // namespace fix
