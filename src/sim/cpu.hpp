// Per-process CPU model.
//
// The paper's experimental bottleneck is processing cost, not only the wire:
// "99% of CPU resources were used with an offered load bigger than 500
// msgs/s" (§5.3.2). Each simulated process therefore has a single-core CPU:
// handlers execute sequentially from a FIFO queue, each occupying the CPU
// for a configurable cost; work queues up while the CPU is busy. This is
// what turns per-message processing cost into latency and a throughput
// ceiling.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "util/inline_fn.hpp"
#include "util/time.hpp"

namespace modcast::sim {

class Cpu {
 public:
  using WorkFn = util::InlineFn<64>;

  explicit Cpu(Simulator& sim) : sim_(&sim) {}

  /// Enqueues work costing `cost` CPU time. `fn` runs at the instant the
  /// work *completes* (it starts when the CPU frees up). FIFO per CPU.
  /// A handler may itself call charge() to extend its own busy window; the
  /// next queued item starts only after all charged work.
  void execute(util::Duration cost, WorkFn fn);

  /// Charges cost to the CPU without running anything new — used by a
  /// handler that is already running to account for extra work it performs
  /// (e.g. a framework layer crossing). Delays subsequently queued work.
  void charge(util::Duration cost);

  /// Stops accepting and running work (crashed process).
  void halt();
  bool halted() const { return halted_; }

  /// Total CPU time consumed so far (for utilization reports).
  util::Duration busy_time() const { return busy_time_; }

  /// Instant at which all currently charged work completes (not counting
  /// queued-but-unstarted items).
  util::TimePoint free_at() const { return free_at_; }

  std::size_t queue_depth() const { return queued_; }

  /// Starts a measurement window at the current instant.
  void mark_window();
  /// Utilization (busy fraction) since mark_window().
  double window_utilization() const;

 private:
  struct Work {
    util::Duration cost = 0;
    WorkFn fn;
  };

  void start_next();
  /// The oldest queued item.
  Work& front() { return ring_[head_]; }

  Simulator* sim_;
  /// FIFO of queued work: a power-of-two ring, items [head_, head_+queued_)
  /// modulo its size. It doubles when full and never shrinks, so a steady
  /// queue depth allocates nothing.
  std::vector<Work> ring_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  bool running_ = false;
  util::TimePoint free_at_ = 0;
  util::Duration busy_time_ = 0;
  bool halted_ = false;
  util::TimePoint window_start_ = 0;
  util::Duration window_busy_base_ = 0;
};

}  // namespace modcast::sim
