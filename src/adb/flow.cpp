#include "adb/flow.hpp"

#include <algorithm>

namespace modcast::adb {

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

bool Batcher::add(AppMessage m, util::TimePoint now) {
  const MsgId id = m.id;
  const std::uint64_t prev = index_.find(id.origin, id.seq);
  // An indexed entry is live, or dead but still marked: the id stays in
  // flight until that instance is applied, and so does a re-added copy.
  std::uint64_t k = kNone;
  if (prev != kNone) {
    const Entry& old = at(prev);
    if (old.live) return false;
    k = old.in_flight;
  }
  const std::uint64_t position = base_ + fifo_.size();
  fifo_.push_back(Entry{std::move(m), now, true, kNone, kNone});
  index_.set(id.origin, id.seq, position);
  ++live_;
  if (k != kNone) mark(marks_for(k), position);
  return true;
}

void Batcher::mark_ordered(const MsgId& id) {
  const std::uint64_t position = index_.find(id.origin, id.seq);
  if (position == kNone) return;
  Entry& e = at(position);
  if (!e.live) return;
  e.live = false;
  e.msg.payload = util::Payload();  // a dead entry never pins its frame
  --live_;
  if (e.in_flight != kNone) {
    --live_in_flight_;  // on_decided() unindexes it
  } else {
    index_.erase(id.origin, id.seq);
    drop_dead_front();
  }
}

bool Batcher::ready(util::TimePoint now) const {
  if (eligible() == 0) return false;
  if (config_.batch_delay == 0) return true;  // eager mode
  std::size_t count = 0;
  std::size_t bytes = 0;
  util::TimePoint oldest = 0;
  for (std::size_t i = head_; i < fifo_.size(); ++i) {
    const Entry& e = fifo_[i];
    if (!eligible(e)) continue;
    if (count++ == 0) oldest = e.added_at;
    bytes += e.msg.payload.size();
    if (count >= config_.max_batch) return true;
    if (config_.batch_bytes > 0 && bytes >= config_.batch_bytes) return true;
  }
  return now - oldest >= config_.batch_delay;
}

util::TimePoint Batcher::deadline() const {
  for (std::size_t i = head_; i < fifo_.size(); ++i) {
    if (eligible(fifo_[i])) return fifo_[i].added_at + config_.batch_delay;
  }
  return 0;
}

void Batcher::cut(std::uint64_t k, std::vector<AppMessage>& batch) {
  batch.clear();
  batch.reserve(std::min(config_.max_batch, eligible()));
  std::size_t batch_bytes = 0;
  Marks* marks = nullptr;
  for (std::size_t i = head_; i < fifo_.size(); ++i) {
    const bool room =
        batch.size() < config_.max_batch &&
        (config_.batch_bytes == 0 || batch_bytes < config_.batch_bytes);
    if (!room) break;
    if (!eligible(fifo_[i])) continue;
    batch.push_back(fifo_[i].msg);
    batch_bytes += fifo_[i].msg.payload.size();
    if (marks == nullptr) marks = &marks_for(k);
    mark(*marks, base_ + i);
  }
}

Batcher::Marks& Batcher::marks_for(std::uint64_t k) {
  for (Marks& m : marks_) {
    if (m.k == k) return m;
  }
  return marks_.emplace_back(Marks{k, kNone, kNone});
}

void Batcher::mark(Marks& marks, std::uint64_t position) {
  Entry& e = at(position);
  e.in_flight = marks.k;
  if (e.live) ++live_in_flight_;
  if (marks.first == kNone) {
    marks.first = position;
  } else {
    at(marks.last).next_marked = position;
  }
  marks.last = position;
}

void Batcher::on_decided(std::uint64_t k) {
  auto it = std::find_if(marks_.begin(), marks_.end(),
                         [k](const Marks& m) { return m.k == k; });
  if (it == marks_.end()) return;
  for (std::uint64_t p = it->first; p != kNone;) {
    Entry& e = at(p);
    const std::uint64_t next = e.next_marked;
    e.in_flight = kNone;
    e.next_marked = kNone;
    if (e.live) {
      --live_in_flight_;
    } else if (index_.find(e.msg.id.origin, e.msg.id.seq) == p) {
      index_.erase(e.msg.id.origin, e.msg.id.seq);
    }
    p = next;
  }
  marks_.erase(it);
  drop_dead_front();
}

void Batcher::drop_dead_front() {
  while (head_ < fifo_.size() && !fifo_[head_].live &&
         fifo_[head_].in_flight == kNone) {
    ++head_;
  }
  if (head_ == fifo_.size()) {
    base_ += head_;
    head_ = 0;
    fifo_.clear();
  } else if (head_ >= kCompactAt && 2 * head_ >= fifo_.size()) {
    fifo_.erase(fifo_.begin(),
                fifo_.begin() + static_cast<std::ptrdiff_t>(head_));
    base_ += head_;
    head_ = 0;
  }
}

std::vector<AppMessage> Batcher::peek(std::size_t cap) const {
  std::vector<AppMessage> batch;
  for (std::size_t i = head_; i < fifo_.size() && batch.size() < cap; ++i) {
    if (fifo_[i].live) batch.push_back(fifo_[i].msg);
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
  std::vector<AppMessage> batch;
  pool_.cut(next_instance_, batch);
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
