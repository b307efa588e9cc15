#include "fd/heartbeat_fd.hpp"

#include "util/bytes.hpp"

namespace modcast::fd {

namespace {
constexpr std::uint8_t kHeartbeat = 1;
}

void HeartbeatFd::init(framework::Stack& stack) {
  stack_ = &stack;
  stack.bind_wire(framework::kModFd,
                  [this](util::ProcessId from, util::Payload payload) {
                    on_wire(from, std::move(payload));
                  });
}

void HeartbeatFd::start() {
  const auto n = stack_->group_size();
  last_heard_.assign(n, stack_->rt().now());
  suspected_.assign(n, 0);
  util::ByteWriter w = framework::Stack::writer(framework::kModFd, 1);
  w.u8(kHeartbeat);
  heartbeat_ = w.take();
  tick();
}

void HeartbeatFd::tick() {
  // Send heartbeats.
  stack_->send_wire_to_others(framework::kModFd, heartbeat_);
  heartbeats_sent_ += stack_->group_size() - 1;

  // Check timeouts.
  const util::TimePoint now = stack_->rt().now();
  const auto n = static_cast<util::ProcessId>(stack_->group_size());
  for (util::ProcessId q = 0; q < n; ++q) {
    if (q == stack_->self()) continue;
    if (now - last_heard_[q] > config_.timeout && suspected_[q] == 0) {
      mark_suspected(q);
    }
  }

  stack_->rt().set_timer(config_.heartbeat_interval, [this] { tick(); });
}

void HeartbeatFd::on_wire(util::ProcessId from, util::Payload payload) {
  util::ByteReader r(payload);
  if (r.u8() != kHeartbeat) return;
  last_heard_[from] = stack_->rt().now();
  if (suspected_[from] != 0) mark_restored(from);
}

void HeartbeatFd::force_suspect(util::ProcessId q) {
  if (q == stack_->self() || suspects(q)) return;
  // Backdate last_heard so the suspicion persists until a real heartbeat.
  last_heard_[q] = stack_->rt().now() - config_.timeout - 1;
  mark_suspected(q);
}

void HeartbeatFd::mark_suspected(util::ProcessId q) {
  suspected_[q] = 1;
  ++suspected_count_;
  stack_->raise(framework::Event::local(
      framework::kEvSuspect, framework::SuspicionBody{q}));
}

void HeartbeatFd::mark_restored(util::ProcessId q) {
  suspected_[q] = 0;
  --suspected_count_;
  stack_->raise(framework::Event::local(
      framework::kEvRestore, framework::SuspicionBody{q}));
}

}  // namespace modcast::fd
