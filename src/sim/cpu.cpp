#include "sim/cpu.hpp"

#include <algorithm>

namespace modcast::sim {

void Cpu::execute(util::Duration cost, WorkFn fn) {
  if (halted_) return;
  if (queued_ == ring_.size()) {
    std::vector<Work> grown(ring_.empty() ? 16 : 2 * ring_.size());
    for (std::size_t i = 0; i < queued_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(grown);
    head_ = 0;
  }
  Work& slot = ring_[(head_ + queued_) & (ring_.size() - 1)];
  slot.cost = std::max<util::Duration>(cost, 0);
  slot.fn = std::move(fn);
  ++queued_;
  if (!running_) start_next();
}

void Cpu::start_next() {
  if (halted_ || queued_ == 0) {
    running_ = false;
    return;
  }
  running_ = true;

  const util::TimePoint start = std::max(free_at_, sim_->now());
  free_at_ = start + front().cost;
  busy_time_ += front().cost;
  // The work item stays queued until it fires so the scheduled closure only
  // captures `this` (stays within the event queue's inline storage). A CPU
  // has at most one completion pending, so it needs no lane of its own: at
  // most one heap entry per CPU.
  sim_->at(free_at_, [this] {
    if (halted_) return;  // halt() cleared the queue
    WorkFn fn = std::move(front().fn);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --queued_;
    fn();  // fn may call charge(), extending free_at_
    start_next();
  });
}

void Cpu::charge(util::Duration cost) {
  if (halted_) return;
  cost = std::max<util::Duration>(cost, 0);
  free_at_ = std::max(free_at_, sim_->now()) + cost;
  busy_time_ += cost;
}

void Cpu::halt() {
  halted_ = true;
  for (; queued_ > 0; --queued_) {
    front().fn.reset();
    head_ = (head_ + 1) & (ring_.size() - 1);
  }
  running_ = false;
}

void Cpu::mark_window() {
  window_start_ = sim_->now();
  window_busy_base_ = busy_time_;
}

double Cpu::window_utilization() const {
  const util::Duration elapsed = sim_->now() - window_start_;
  if (elapsed <= 0) return 0.0;
  const util::Duration busy = busy_time_ - window_busy_base_;
  return std::min(1.0, static_cast<double>(busy) /
                           static_cast<double>(elapsed));
}

}  // namespace modcast::sim
