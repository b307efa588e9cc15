#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace modcast::sim {

LaneId EventQueue::add_lanes(std::size_t count) {
  const auto first = static_cast<LaneId>(lanes_.size());
  lanes_.resize(lanes_.size() + count);
  return first;
}

EventQueue::Entry EventQueue::acquire(util::TimePoint when, Callback&& fn) {
  const std::uint32_t slot = slots_.acquire();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = next_seq_++;
  peak_live_ = std::max(peak_live_, ++live_);
  return Entry{when, s.seq, slot, kNoLane};
}

EventId EventQueue::id_of(const Entry& e) const {
  return (static_cast<EventId>(slots_[e.slot].generation) << 32) |
         static_cast<EventId>(e.slot + 1);
}

EventId EventQueue::schedule(util::TimePoint when, Callback&& fn) {
  const Entry e = acquire(when, std::move(fn));
  push_heap(e);
  return id_of(e);
}

EventId EventQueue::schedule(LaneId lane, util::TimePoint when,
                             Callback&& fn) {
  Entry e = acquire(when, std::move(fn));
  Lane& l = lanes_[lane];
  if (!l.busy) {
    e.lane = lane;
    l.busy = true;
    l.tail = when;
    push_heap(e);
  } else if (when >= l.tail) {
    // Later than (or tied with, and so after) every entry of the lane.
    if (l.count == l.ring.size()) {
      std::vector<Entry> grown(l.ring.empty() ? 8 : 2 * l.ring.size());
      for (std::uint32_t i = 0; i < l.count; ++i) {
        grown[i] = l.ring[(l.head + i) & (l.ring.size() - 1)];
      }
      l.ring.swap(grown);
      l.head = 0;
    }
    l.ring[(l.head + l.count) & (l.ring.size() - 1)] = e;
    ++l.count;
    l.tail = when;
  } else {
    push_heap(e);  // out of lane order: the heap keeps it in place
  }
  return id_of(e);
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t lo = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (lo == 0 || lo > slots_.high_water()) return false;
  const std::uint32_t slot = lo - 1;
  Slot& s = slots_[slot];
  if (s.generation != static_cast<std::uint32_t>(id >> 32)) {
    return false;  // already fired, running or cancelled
  }
  // The entry stays in the heap or its lane; it is stale from here on and
  // dropped when it surfaces.
  s.fn.reset();
  s.seq = kNoSeq;
  ++s.generation;
  slots_.release(slot);
  --live_;
  return true;
}

bool EventQueue::run_next(util::TimePoint deadline, util::TimePoint* now) {
  while (live_ > 0) {
    assert(!heap_.empty());
    const Entry top = heap_.front();
    Slot& s = slots_[top.slot];
    const bool live = s.seq == top.seq;
    if (live && top.when > deadline) return false;
    pop_root(top.lane);
    if (!live) continue;
    *now = top.when;
    // Fired: from here its EventId no longer cancels anything. The slot
    // stays taken while the callback runs in place (slabs never move).
    s.seq = kNoSeq;
    ++s.generation;
    --live_;
    s.fn();
    s.fn.reset();
    slots_.release(top.slot);
    return true;
  }
  return false;
}

void EventQueue::push_heap(const Entry& e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void EventQueue::pop_root(LaneId lane) {
  if (lane != kNoLane) {
    Lane& l = lanes_[lane];
    if (l.count > 0) {
      heap_.front() = l.ring[l.head];
      heap_.front().lane = lane;
      l.head = (l.head + 1) & static_cast<std::uint32_t>(l.ring.size() - 1);
      --l.count;
      sift_down(0);
      return;
    }
    l.busy = false;
  }
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

std::size_t EventQueue::state_bytes() const {
  std::size_t lane_bytes = lanes_.capacity() * sizeof(Lane);
  for (const Lane& l : lanes_) lane_bytes += l.ring.capacity() * sizeof(Entry);
  return slots_.state_bytes() + heap_.capacity() * sizeof(Entry) + lane_bytes;
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace modcast::sim
