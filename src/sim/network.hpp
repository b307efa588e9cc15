// Simulated network: quasi-reliable FIFO channels over a switched LAN.
//
// This substitutes for the paper's testbed (Gigabit Ethernet between
// dedicated machines, TCP connections — §5.3.1). The model:
//   * each process has a full-duplex NIC; outgoing messages serialize at the
//     link bandwidth (a sender cannot push two messages at once) — including
//     frames that are then lost to drops or blocked links: the sender's NIC
//     still transmitted them,
//   * each message pays a fixed framing overhead (Ethernet+IP+TCP headers)
//     and a propagation/switching delay,
//   * channels are quasi-reliable and FIFO per ordered pair (TCP): if sender
//     and receiver stay up, the message arrives, in order.
// Fault injection (crash, probabilistic drop, link blocking, extra delay) is
// for testing the protocols' bad-run paths; good-run experiments leave it
// off.
//
// Scheduling: each sender has its own event-queue lane. Its NIC serializes
// departures and propagation is constant, so a sender's arrivals come in
// non-decreasing time and append to the lane's ring instead of the heap;
// an extra per-message delay that reorders them sends the late one to the
// heap (sim/event_queue.hpp). Loopback sends go to the heap.
//
// Memory model (big-n runs): in-flight deliveries live in a SlabPool, so
// steady state does no per-message heap allocation, and per-pair link state
// is tiered — dense FIFO high-water rows allocated lazily per active
// sender, plus a sparse sorted overlay holding only the fault-injected
// (blocked) pairs — so state scales with active pairs, not n².
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/arena.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace modcast::sim {

struct NetworkConfig {
  /// Link rate per NIC direction. Default: Gigabit Ethernet.
  double bandwidth_bps = 1e9;
  /// Propagation + switching delay applied to every message (LAN switch,
  /// kernel wakeups, TCP stack traversal).
  util::Duration propagation = util::microseconds(150);
  /// Per-message framing bytes (Ethernet 18 + IP 20 + TCP 20 + preamble 8).
  std::uint64_t frame_overhead_bytes = 66;
  /// Fixed per-message cost in the sender's kernel/NIC path, applied in
  /// addition to serialization (models syscall + TCP push).
  util::Duration per_message_delay = util::microseconds(5);
};

/// Byte/message counters. `payload` counts protocol bytes as serialized;
/// `wire` adds framing overhead.
struct NetCounters {
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  /// Frames lost to drop probability or blocked links. Also included in the
  /// totals above (the sender paid for them); tracked so loss volume is
  /// reportable.
  std::uint64_t dropped_messages = 0;
  std::uint64_t dropped_bytes = 0;

  NetCounters& operator+=(const NetCounters& o) {
    messages += o.messages;
    payload_bytes += o.payload_bytes;
    wire_bytes += o.wire_bytes;
    dropped_messages += o.dropped_messages;
    dropped_bytes += o.dropped_bytes;
    return *this;
  }
};

class Network {
 public:
  using DeliverFn =
      // wirecheck:allow(hot.function): Installed once per endpoint at world construction, invoked without reallocation.
      std::function<void(util::ProcessId from, util::Payload msg)>;
  // wirecheck:allow(hot.function): Fault-injection hook installed once per campaign, not per message.
  using DelayInjector = std::function<util::Duration(
      util::ProcessId from, util::ProcessId to, std::size_t size)>;
  // wirecheck:allow(hot.function): Fault-injection hook installed once per campaign, not per message.
  using DropFn = std::function<bool(util::ProcessId from, util::ProcessId to)>;

  /// `seed` feeds the network's own RNG stream (drop decisions); worlds pass
  /// a value derived from their root seed so lossy runs replay exactly.
  Network(Simulator& sim, std::size_t n, NetworkConfig config = {},
          std::uint64_t seed = 0x6e657477726bULL);

  std::size_t size() const { return endpoints_.size(); }

  /// Registers the receive handler for process p. Must be set before any
  /// message destined to p arrives.
  void set_endpoint(util::ProcessId p, DeliverFn fn);

  /// Sends msg from -> to over the quasi-reliable channel. Self-sends are
  /// delivered locally (small loopback delay) and are NOT counted as network
  /// traffic, matching the paper's message counting. Payload is ref-counted:
  /// an n-way fan-out shares one buffer across all in-flight copies.
  /// Throws std::out_of_range on an invalid ProcessId (checked in all build
  /// modes, like set_endpoint).
  void send(util::ProcessId from, util::ProcessId to, util::Payload msg);

  // --- Fault injection -----------------------------------------------------

  /// Crash-stop process p now: it no longer sends, and messages arriving at
  /// it are discarded. Crashing is permanent (§2.1).
  void crash(util::ProcessId p);
  bool crashed(util::ProcessId p) const { return crashed_[p] != 0; }
  std::size_t crashed_count() const;

  /// Per-message drop test (simulates loss; violates quasi-reliability, used
  /// only by stress tests). Return true to drop. Probabilistic predicates
  /// should draw from drop_rng() — not caller-owned state — so lossy runs
  /// replay byte-identically regardless of sweep parallelism.
  void set_drop(DropFn fn) { drop_ = std::move(fn); }

  /// Installs an unconditional uniform drop predicate driven by the
  /// network's seeded RNG stream. p <= 0 clears it.
  void set_drop_probability(double p);

  /// The network's own deterministic RNG stream, consumed only by drop
  /// decisions. Custom DropFns (e.g. windowed loss) should draw from it.
  util::Rng& drop_rng() { return drop_rng_; }

  /// Blocks/unblocks the directed link from -> to (partition injection).
  /// Blocked pairs live in a sparse overlay: a run with no partitions keeps
  /// zero per-pair blocking state however large n is.
  void set_link_blocked(util::ProcessId from, util::ProcessId to,
                        bool blocked);
  bool link_blocked(util::ProcessId from, util::ProcessId to) const;

  /// Adds an arbitrary extra delay per message (e.g. asymmetric slowness).
  void set_extra_delay(DelayInjector fn) { extra_delay_ = std::move(fn); }

  // --- Accounting ----------------------------------------------------------

  const NetCounters& total() const { return total_; }
  const NetCounters& sent_by(util::ProcessId p) const { return per_sender_[p]; }
  void reset_counters();

  /// Transmission time of a message of `payload` bytes on one link.
  util::Duration tx_time(std::size_t payload_bytes) const;

  const NetworkConfig& config() const { return config_; }

  // --- Memory introspection (scaling bench + regression tests) -------------

  /// In-flight deliveries right now / the run's peak.
  std::size_t pending_in_flight() const { return pending_.live(); }
  std::size_t peak_in_flight() const { return pending_.high_water(); }
  /// Senders whose dense FIFO row has been materialized.
  std::size_t fifo_rows_allocated() const;
  /// Directed pairs currently blocked (sparse overlay size).
  std::size_t blocked_pair_count() const { return blocked_pairs_.size(); }
  /// Exact bytes of link/delivery state held. Deterministic: the
  /// scalability bench reports it as the "flat memory" evidence.
  std::size_t state_bytes() const;

 private:
  /// One in-flight frame, pooled. The scheduled delivery event captures
  /// only (network, index); the payload view waits here.
  struct PendingDelivery {
    util::Payload msg;
    util::ProcessId from = 0;
    util::ProcessId to = 0;
  };

  std::uint64_t pair_key(util::ProcessId from, util::ProcessId to) const {
    return static_cast<std::uint64_t>(from) * endpoints_.size() + to;
  }
  /// Dense FIFO high-water row of `from`, materialized on first use.
  util::TimePoint* fifo_row(util::ProcessId from);
  void deliver(std::uint32_t idx);

  Simulator* sim_;
  NetworkConfig config_;
  std::vector<DeliverFn> endpoints_;
  /// Plain bytes, not vector<bool>: the per-message hot path reads this and
  /// a bit-proxy read defeats the wirecheck hot-path intent.
  std::vector<std::uint8_t> crashed_;

  std::vector<util::TimePoint> nic_free_at_;  // per-sender egress
  /// Tier 1: per-sender dense rows of FIFO arrival high-water marks,
  /// allocated lazily on the sender's first carried frame. A null row means
  /// "no frame ever left this sender" — the zeroed state the old flat n×n
  /// table materialized up front for every pair.
  std::vector<std::unique_ptr<util::TimePoint[]>> fifo_rows_;
  /// Tier 2: sparse sorted overlay of blocked directed pairs (fault
  /// injection only; empty in good runs).
  std::vector<std::uint64_t> blocked_pairs_;
  /// Pooled in-flight frames: steady state does no per-message allocation.
  SlabPool<PendingDelivery> pending_;
  /// Event-queue lane of sender 0; sender p uses first_lane_ + p.
  LaneId first_lane_;
  DropFn drop_;
  util::Rng drop_rng_;
  DelayInjector extra_delay_;
  NetCounters total_;
  std::vector<NetCounters> per_sender_;
};

}  // namespace modcast::sim
