#include "adb/flow.hpp"

#include <algorithm>

namespace modcast::adb {

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

bool Batcher::add(AppMessage m, util::TimePoint now) {
  if (!ids_.insert(m.id).second) return false;
  fifo_.push_back(Entry{std::move(m), now});
  return true;
}

std::size_t Batcher::eligible() const {
  std::size_t live_proposed = 0;
  for (const MsgId& id : proposed_) {
    if (ids_.count(id) != 0) ++live_proposed;
  }
  return ids_.size() - live_proposed;
}

bool Batcher::ready(util::TimePoint now) const {
  std::size_t count = 0;
  std::size_t bytes = 0;
  bool have_oldest = false;
  util::TimePoint oldest = 0;
  for (const Entry& e : fifo_) {
    if (ids_.count(e.msg.id) == 0 || in_flight(e.msg.id)) continue;
    if (!have_oldest) {
      have_oldest = true;
      oldest = e.added_at;
    }
    if (config_.batch_delay == 0) return true;  // eager mode
    ++count;
    bytes += e.msg.payload.size();
    if (count >= config_.max_batch) return true;
    if (config_.batch_bytes > 0 && bytes >= config_.batch_bytes) return true;
  }
  if (!have_oldest) return false;
  return now - oldest >= config_.batch_delay;
}

util::TimePoint Batcher::deadline() const {
  for (const Entry& e : fifo_) {
    if (ids_.count(e.msg.id) == 0 || in_flight(e.msg.id)) continue;
    return e.added_at + config_.batch_delay;
  }
  return 0;
}

std::vector<AppMessage> Batcher::cut(std::uint64_t k) {
  std::vector<AppMessage> batch;
  std::size_t batch_bytes = 0;
  std::deque<Entry> keep;
  while (!fifo_.empty()) {
    Entry& e = fifo_.front();
    if (ids_.count(e.msg.id) != 0) {
      const bool room =
          batch.size() < config_.max_batch &&
          (config_.batch_bytes == 0 || batch_bytes < config_.batch_bytes);
      if (room && !in_flight(e.msg.id)) {
        batch.push_back(e.msg);
        batch_bytes += e.msg.payload.size();
      }
      keep.push_back(std::move(e));
    }
    fifo_.pop_front();
  }
  fifo_ = std::move(keep);
  if (!batch.empty()) {
    auto& marks = in_flight_[k];
    for (const AppMessage& m : batch) {
      proposed_.insert(m.id);
      marks.push_back(m.id);
    }
  }
  return batch;
}

void Batcher::on_decided(std::uint64_t k) {
  auto it = in_flight_.find(k);
  if (it == in_flight_.end()) return;
  for (const MsgId& id : it->second) proposed_.erase(id);
  in_flight_.erase(it);
}

std::vector<AppMessage> Batcher::peek(std::size_t cap) const {
  std::vector<AppMessage> batch;
  for (const Entry& e : fifo_) {
    if (ids_.count(e.msg.id) == 0) continue;
    if (batch.size() >= cap) break;
    batch.push_back(e.msg);
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Flow
// ---------------------------------------------------------------------------

Flow::Flow(FlowConfig config) : config_(config), pool_(config) {
  if (config_.pipeline_depth == 0) config_.pipeline_depth = 1;
}

std::uint64_t Flow::enqueue(util::Payload payload) {
  app_queue_.push_back(std::move(payload));
  return next_seq_ + app_queue_.size() - 1;
}

std::optional<AppMessage> Flow::admit_next() {
  if (in_flight_ >= config_.window || app_queue_.empty()) return std::nullopt;
  AppMessage m{MsgId{self_, next_seq_++}, std::move(app_queue_.front())};
  app_queue_.pop_front();
  ++in_flight_;
  ++stats_.admitted;
  return m;
}

bool Flow::pool_add(AppMessage m, util::TimePoint now) {
  if (delivered(m.id)) return false;
  return pool_.add(std::move(m), now);
}

std::vector<AppMessage> Flow::cut() {
  std::vector<AppMessage> batch = pool_.cut(next_instance_);
  if (batch.empty()) return batch;
  ++next_instance_;
  stats_.max_inflight_instances = std::max<std::uint64_t>(
      stats_.max_inflight_instances, next_instance_ - next_decide_);
  return batch;
}

std::vector<AppMessage> Flow::recovery_batch(std::uint64_t k) {
  next_instance_ = std::max(next_instance_, k + 1);
  return pool_.peek(config_.max_batch);
}

bool Flow::buffer_decision(std::uint64_t k, util::Payload value) {
  if (k < next_decide_) return false;
  decisions_[k] = std::move(value);
  return true;
}

const util::Payload* Flow::next_decision() const {
  auto it = decisions_.find(next_decide_);
  return it == decisions_.end() ? nullptr : &it->second;
}

void Flow::begin_apply(std::vector<AppMessage>& batch) {
  decisions_.erase(next_decide_);
  // Deterministic delivery order within the batch.
  std::sort(batch.begin(), batch.end(),
            [](const AppMessage& a, const AppMessage& b) {
              return a.id < b.id;
            });
}

bool Flow::order(const AppMessage& m) {
  if (!delivered_.mark(m.id.origin, m.id.seq)) return false;  // dup across k
  pool_.mark_ordered(m.id);
  if (m.id.origin == self_ && in_flight_ > 0) --in_flight_;
  ++stats_.delivered;
  ++stats_.messages_in_decisions;
  return true;
}

void Flow::end_apply() {
  ++stats_.instances_completed;
  // Clear the in-flight marks only now that the decision is APPLIED: a
  // decision buffered out of instance order must keep its messages marked,
  // or they would be re-proposed and the exact §5.2 accounting breaks.
  pool_.on_decided(next_decide_);
  ++next_decide_;
  next_instance_ = std::max(next_instance_, next_decide_);
}

}  // namespace modcast::adb
