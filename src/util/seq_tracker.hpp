// Bookkeeping for (origin, sequence) message ids.
//
// Origins are process ids, dense from 0, so both classes keep their
// per-origin state in a vector indexed by origin; callers bound the origin
// (the wire decoders reject one at or above the group size). Sequence
// numbers are dense per origin too.
//
//   * SeqTracker — "have I seen this id before". Long benchmark runs deliver
//     millions of messages, so it cannot be a growing hash set: per origin,
//     a contiguous watermark plus the sparse set of out-of-order ids above
//     it. An in-order mark only bumps the watermark.
//   * SeqIndex — a value per id currently in use (the adb pool's entry
//     positions): per origin, a flat open-addressing table keyed by seq,
//     sized by the ids in use, never by the span of their seqs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

namespace modcast::util {

class SeqTracker {
 public:
  /// Marks (origin, seq) as seen. Returns true if it was new.
  bool mark(std::uint32_t origin, std::uint64_t seq) {
    if (origin >= streams_.size()) streams_.resize(std::size_t{origin} + 1);
    Stream& s = streams_[origin];
    if (seq < s.watermark) return false;
    if (seq == s.watermark && s.above.empty()) {  // in order: the good path
      ++s.watermark;
      return true;
    }
    if (!s.above.insert(seq).second) return false;
    // Advance the contiguous watermark.
    while (!s.above.empty() && *s.above.begin() == s.watermark) {
      s.above.erase(s.above.begin());
      ++s.watermark;
    }
    return true;
  }

  bool seen(std::uint32_t origin, std::uint64_t seq) const {
    if (origin >= streams_.size()) return false;
    const Stream& s = streams_[origin];
    return seq < s.watermark || s.above.count(seq) != 0;
  }

  /// First sequence not yet contiguously seen for origin.
  std::uint64_t watermark(std::uint32_t origin) const {
    return origin < streams_.size() ? streams_[origin].watermark : 0;
  }

 private:
  struct Stream {
    std::uint64_t watermark = 0;  // all seq < watermark are seen
    std::set<std::uint64_t> above;
  };
  std::vector<Stream> streams_;  ///< indexed by origin
};

class SeqIndex {
 public:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  /// The value at (origin, seq), or kNone.
  std::uint64_t find(std::uint32_t origin, std::uint64_t seq) const {
    if (origin >= tables_.size()) return kNone;
    const Table& t = tables_[origin];
    return t.slots.empty() ? kNone : t.slots[t.probe(seq)].value;
  }

  /// Sets (origin, seq) to `value` (not kNone).
  void set(std::uint32_t origin, std::uint64_t seq, std::uint64_t value) {
    if (origin >= tables_.size()) tables_.resize(std::size_t{origin} + 1);
    Table& t = tables_[origin];
    if (2 * (t.used + 1) > t.slots.size()) t.grow();
    Slot& s = t.slots[t.probe(seq)];
    if (s.value == kNone) ++t.used;
    s = Slot{seq, value};
  }

  /// Clears (origin, seq).
  void erase(std::uint32_t origin, std::uint64_t seq) {
    if (find(origin, seq) == kNone) return;
    tables_[origin].erase(seq);
  }

 private:
  struct Slot {
    std::uint64_t seq = 0;
    std::uint64_t value = kNone;  ///< kNone: empty
  };
  /// One origin's ids: open addressing over a power-of-two table, a seq's
  /// home slot is seq mod size. Seqs in use are nearly contiguous, so they
  /// rarely share a home and a probe is one step; a seq far from the rest
  /// costs one slot, not the gap.
  struct Table {
    std::vector<Slot> slots;
    std::size_t used = 0;

    std::size_t mask() const { return slots.size() - 1; }
    /// seq's slot, or the empty slot where it would go.
    std::size_t probe(std::uint64_t seq) const {
      std::size_t i = seq & mask();
      while (slots[i].value != kNone && slots[i].seq != seq) {
        i = (i + 1) & mask();
      }
      return i;
    }
    void grow() {
      std::vector<Slot> old(slots.empty() ? 8 : 2 * slots.size());
      old.swap(slots);
      for (const Slot& s : old) {
        if (s.value != kNone) slots[probe(s.seq)] = s;
      }
    }
    /// Empties seq's slot, then moves each later slot of its probe run
    /// whose home does not lie in between back into the hole, so every
    /// probe still ends at its seq (no tombstones).
    void erase(std::uint64_t seq) {
      std::size_t hole = probe(seq);
      for (std::size_t i = (hole + 1) & mask(); slots[i].value != kNone;
           i = (i + 1) & mask()) {
        const std::size_t home = slots[i].seq & mask();
        // Distances along the probe order from the hole: the entry may
        // move back only when its home is not after the hole.
        if (((i - home) & mask()) >= ((i - hole) & mask())) {
          slots[hole] = slots[i];
          hole = i;
        }
      }
      slots[hole] = Slot{};
      --used;
    }
  };
  std::vector<Table> tables_;  ///< indexed by origin
};

}  // namespace modcast::util
