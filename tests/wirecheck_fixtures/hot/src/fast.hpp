// Hot file: every construct below is a hot-path violation.
#pragma once
#include <functional>
#include <memory>

namespace fix {

struct Dispatcher {
  std::function<void(int)> fn_;                       // hot.function
  void spawn() { buf_ = new char[64]; }               // hot.alloc
  auto share() { return std::make_shared<int>(7); }   // hot.alloc
  void clone(Payload p) { copy_ = p.to_bytes(); }     // hot.copy
  void decode(Payload msg) {
    ByteReader r(msg);
    copy_ = r.blob();                                 // hot.copy
    copy_ = r.raw(4);                                 // hot.copy
    Bytes rest(r.rest().begin(), r.rest().end());     // hot.copy
  }
  void decode_slices(Payload msg, ByteWriter& w) {
    ByteReader r(msg);
    view_ = r.blob_payload();  // slices of msg: allowed
    view_ = r.rest_payload();
    w.raw(view_);              // serializing into a frame: allowed
  }
  char* buf_ = nullptr;
  Bytes copy_;
  Payload view_;
};

}  // namespace fix
