// Heartbeat failure detector (◇S-style, §2.1).
//
// Every process periodically sends a heartbeat to every other process and
// suspects any process from which no heartbeat arrived within the timeout.
// The output can be wrong (a slow process is suspected, then restored when
// its heartbeat arrives) — exactly the unreliable-failure-detector model the
// consensus algorithm tolerates. Suspicion changes are raised as kEvSuspect
// and kEvRestore framework events; the current suspicion set can also be
// queried directly (the FD "output list" of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "framework/stack.hpp"
#include "util/time.hpp"

namespace modcast::fd {

struct FdConfig {
  util::Duration heartbeat_interval = util::milliseconds(50);
  util::Duration timeout = util::milliseconds(250);
};

class HeartbeatFd final : public framework::Module {
 public:
  explicit HeartbeatFd(FdConfig config = {}) : config_(config) {}

  std::string_view name() const override { return "heartbeat-fd"; }
  void init(framework::Stack& stack) override;
  void start() override;

  /// Current FD output list.
  bool suspects(util::ProcessId q) const {
    return q < suspected_.size() && suspected_[q] != 0;
  }
  /// Number of processes currently suspected.
  std::size_t suspected_count() const { return suspected_count_; }

  // --- Test hooks ----------------------------------------------------------

  /// Injects a (possibly wrong) suspicion now. The suspicion clears when the
  /// next heartbeat from q arrives, as for a genuine timeout.
  void force_suspect(util::ProcessId q);

  std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }

 private:
  void on_wire(util::ProcessId from, util::Payload payload);
  void tick();
  void mark_suspected(util::ProcessId q);
  void mark_restored(util::ProcessId q);

  FdConfig config_;
  framework::Stack* stack_ = nullptr;
  std::vector<util::TimePoint> last_heard_;
  /// Per-process suspicion flags (plain bytes, like Network::crashed_).
  std::vector<std::uint8_t> suspected_;
  std::size_t suspected_count_ = 0;
  /// The heartbeat frame: immutable, built once and resent every tick.
  util::Payload heartbeat_;
  std::uint64_t heartbeats_sent_ = 0;
};

}  // namespace modcast::fd
