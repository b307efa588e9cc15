#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace modcast::sim {

Network::Network(Simulator& sim, std::size_t n, NetworkConfig config,
                 std::uint64_t seed)
    : sim_(&sim),
      config_(config),
      endpoints_(n),
      crashed_(n, 0),
      nic_free_at_(n, 0),
      fifo_rows_(n),
      first_lane_(sim.add_lanes(n)),
      drop_rng_(seed),
      per_sender_(n) {}

void Network::set_drop_probability(double p) {
  if (p <= 0.0) {
    drop_ = nullptr;
    return;
  }
  drop_ = [this, p](util::ProcessId, util::ProcessId) {
    return drop_rng_.chance(p);
  };
}

void Network::set_endpoint(util::ProcessId p, DeliverFn fn) {
  endpoints_.at(p) = std::move(fn);
}

util::Duration Network::tx_time(std::size_t payload_bytes) const {
  const double bits =
      static_cast<double>(payload_bytes + config_.frame_overhead_bytes) * 8.0;
  return static_cast<util::Duration>(bits / config_.bandwidth_bps *
                                     static_cast<double>(util::kSecond));
}

util::TimePoint* Network::fifo_row(util::ProcessId from) {
  auto& row = fifo_rows_[from];
  if (!row) {
    // wirecheck:allow(hot.alloc): One zero-filled row per sender on its first carried frame, never per message.
    row = std::make_unique<util::TimePoint[]>(endpoints_.size());
  }
  return row.get();
}

void Network::deliver(std::uint32_t idx) {
  PendingDelivery& rec = pending_[idx];
  const util::ProcessId from = rec.from;
  const util::ProcessId to = rec.to;
  util::Payload msg = std::move(rec.msg);
  pending_.release(idx);  // before the handler: reentrant sends may reuse it
  if (crashed_[to] == 0 && endpoints_[to]) {
    endpoints_[to](from, std::move(msg));
  }
}

void Network::send(util::ProcessId from, util::ProcessId to,
                   util::Payload msg) {
  if (from >= endpoints_.size() || to >= endpoints_.size()) {
    // Same checked-access contract as set_endpoint: a bad ProcessId is a
    // harness bug and must fail loudly in release builds too.
    throw std::out_of_range("Network::send: process id out of range");
  }
  if (crashed_[from] != 0) return;

  if (from == to) {
    // Loopback: no NIC serialization, not counted as network traffic.
    const std::uint32_t idx = pending_.acquire();
    PendingDelivery& rec = pending_[idx];
    rec.msg = std::move(msg);
    rec.from = from;
    rec.to = to;
    sim_->after(util::microseconds(1), [this, idx] { deliver(idx); });
    return;
  }

  const std::size_t size = msg.size();
  total_.messages += 1;
  total_.payload_bytes += size;
  total_.wire_bytes += size + config_.frame_overhead_bytes;
  per_sender_[from].messages += 1;
  per_sender_[from].payload_bytes += size;
  per_sender_[from].wire_bytes += size + config_.frame_overhead_bytes;

  // Egress serialization: the sender's NIC transmits one frame at a time —
  // dropped and blocked frames included; the loss happens past the NIC.
  const util::TimePoint depart =
      std::max(sim_->now(), nic_free_at_[from]) + config_.per_message_delay;
  const util::TimePoint tx_done = depart + tx_time(size);
  nic_free_at_[from] = tx_done;

  const bool lost = (drop_ && drop_(from, to)) ||
                    (!blocked_pairs_.empty() && link_blocked(from, to));
  if (lost) {
    // The frame consumed the sender's counters and NIC time above; account
    // it separately so experiments can report loss volume.
    total_.dropped_messages += 1;
    total_.dropped_bytes += size;
    per_sender_[from].dropped_messages += 1;
    per_sender_[from].dropped_bytes += size;
    return;
  }

  util::TimePoint arrival = tx_done + config_.propagation;
  if (extra_delay_) arrival += std::max<util::Duration>(
      extra_delay_(from, to, size), 0);

  // FIFO per ordered pair (TCP channel semantics).
  util::TimePoint& last = fifo_row(from)[to];
  arrival = std::max(arrival, last + 1);
  last = arrival;

  const std::uint32_t idx = pending_.acquire();
  PendingDelivery& rec = pending_[idx];
  rec.msg = std::move(msg);
  rec.from = from;
  rec.to = to;
  // The sender's lane: its arrivals come in NIC order (see network.hpp).
  sim_->at_lane(first_lane_ + from, arrival, [this, idx] { deliver(idx); });
}

void Network::crash(util::ProcessId p) { crashed_.at(p) = 1; }

std::size_t Network::crashed_count() const {
  return static_cast<std::size_t>(
      std::count(crashed_.begin(), crashed_.end(), 1));
}

bool Network::link_blocked(util::ProcessId from, util::ProcessId to) const {
  const std::uint64_t key = pair_key(from, to);
  return std::binary_search(blocked_pairs_.begin(), blocked_pairs_.end(), key);
}

void Network::set_link_blocked(util::ProcessId from, util::ProcessId to,
                               bool blocked) {
  if (from >= endpoints_.size() || to >= endpoints_.size()) {
    throw std::out_of_range("Network::set_link_blocked: process id out of range");
  }
  const std::uint64_t key = pair_key(from, to);
  const auto it =
      std::lower_bound(blocked_pairs_.begin(), blocked_pairs_.end(), key);
  const bool present = it != blocked_pairs_.end() && *it == key;
  if (blocked && !present) {
    blocked_pairs_.insert(it, key);
  } else if (!blocked && present) {
    blocked_pairs_.erase(it);
  }
}

std::size_t Network::fifo_rows_allocated() const {
  std::size_t rows = 0;
  for (const auto& row : fifo_rows_) rows += row ? 1 : 0;
  return rows;
}

std::size_t Network::state_bytes() const {
  const std::size_t n = endpoints_.size();
  return fifo_rows_allocated() * n * sizeof(util::TimePoint) +
         fifo_rows_.capacity() * sizeof(fifo_rows_[0]) +
         blocked_pairs_.capacity() * sizeof(std::uint64_t) +
         pending_.state_bytes() +
         nic_free_at_.capacity() * sizeof(util::TimePoint) +
         crashed_.capacity() * sizeof(std::uint8_t) +
         per_sender_.capacity() * sizeof(NetCounters);
}

void Network::reset_counters() {
  total_ = NetCounters{};
  for (auto& c : per_sender_) c = NetCounters{};
}

}  // namespace modcast::sim
