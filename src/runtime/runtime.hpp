// Runtime abstraction: what a protocol may assume about its environment.
//
// Protocols in this library are deterministic event-driven state machines.
// They interact with the world only through this interface (clock, timers,
// quasi-reliable sends, RNG) and receive input only through Protocol
// callbacks. The same protocol object code therefore runs unchanged under
// the discrete-event simulator (benchmarks, property tests) and under real
// threads (examples, smoke tests).
#pragma once

#include <cstdint>
#include <functional>

#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace modcast::runtime {

using TimerId = std::uint64_t;
constexpr TimerId kInvalidTimer = 0;
/// A timer's callback. The protocol that arms the timer builds it; a
/// runtime only moves it to where it runs.
using TimerFn = std::function<void()>;

class Runtime {
 public:
  virtual ~Runtime() = default;

  /// This process's index in the static group [0, group_size).
  virtual util::ProcessId self() const = 0;

  /// Number of processes in the static group Π.
  virtual std::size_t group_size() const = 0;

  /// Current time (virtual or wall-clock, ns).
  virtual util::TimePoint now() const = 0;

  /// Sends msg to `to` over the quasi-reliable FIFO channel. Sending to self
  /// is allowed and loops back locally. The Payload is ref-counted, so
  /// sending the same message to many destinations shares one buffer.
  virtual void send(util::ProcessId to, util::Payload msg) = 0;

  /// One-shot timer. The callback runs in the process's execution context
  /// (never concurrently with message handlers).
  virtual TimerId set_timer(util::Duration delay, TimerFn fn) = 0;

  /// Cancels a pending timer; cancelling a fired/unknown timer is a no-op.
  virtual void cancel_timer(TimerId id) = 0;

  /// Per-process deterministic RNG stream.
  virtual util::Rng& rng() = 0;

  /// Accounts extra CPU work performed by the current handler (used by the
  /// composition framework to charge module-boundary crossings). No-op on
  /// runtimes without a CPU model.
  virtual void charge_cpu(util::Duration cost) { (void)cost; }
};

/// A protocol stack entry point: one instance per process, single-threaded
/// with respect to its own callbacks.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called once when the world starts, before any message delivery.
  virtual void start() {}

  /// Called for every message addressed to this process.
  virtual void on_message(util::ProcessId from, util::Payload msg) = 0;
};

}  // namespace modcast::runtime
