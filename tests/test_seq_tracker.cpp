// Unit tests: (origin, seq) bookkeeping (util/seq_tracker): duplicate
// suppression and the per-origin index.
#include "util/seq_tracker.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace modcast::util {
namespace {

TEST(SeqTracker, FirstMarkIsNew) {
  SeqTracker t;
  EXPECT_TRUE(t.mark(1, 0));
  EXPECT_FALSE(t.mark(1, 0));
}

TEST(SeqTracker, IndependentOrigins) {
  SeqTracker t;
  EXPECT_TRUE(t.mark(1, 5));
  EXPECT_TRUE(t.mark(2, 5));
  EXPECT_TRUE(t.seen(1, 5));
  EXPECT_FALSE(t.seen(2, 4));
}

TEST(SeqTracker, WatermarkAdvancesContiguously) {
  SeqTracker t;
  EXPECT_EQ(t.watermark(3), 0u);
  t.mark(3, 0);
  t.mark(3, 1);
  t.mark(3, 2);
  EXPECT_EQ(t.watermark(3), 3u);
}

TEST(SeqTracker, OutOfOrderThenFill) {
  SeqTracker t;
  t.mark(0, 2);
  t.mark(0, 4);
  EXPECT_EQ(t.watermark(0), 0u);
  EXPECT_TRUE(t.seen(0, 2));
  EXPECT_FALSE(t.seen(0, 3));
  t.mark(0, 0);
  EXPECT_EQ(t.watermark(0), 1u);
  t.mark(0, 1);
  EXPECT_EQ(t.watermark(0), 3u);  // 0,1,2 contiguous; 4 still sparse
  t.mark(0, 3);
  EXPECT_EQ(t.watermark(0), 5u);
}

TEST(SeqTracker, BelowWatermarkIsDuplicate) {
  SeqTracker t;
  for (std::uint64_t s = 0; s < 10; ++s) t.mark(7, s);
  EXPECT_EQ(t.watermark(7), 10u);
  EXPECT_FALSE(t.mark(7, 3));
  EXPECT_TRUE(t.seen(7, 3));
}

TEST(SeqTracker, MemoryCompaction) {
  // One million contiguous marks must not retain a million entries; after
  // full contiguity the sparse set is empty and only the watermark remains.
  SeqTracker t;
  for (std::uint64_t s = 0; s < 100000; ++s) {
    ASSERT_TRUE(t.mark(1, s));
  }
  EXPECT_EQ(t.watermark(1), 100000u);
  EXPECT_TRUE(t.seen(1, 99999));
  EXPECT_FALSE(t.seen(1, 100000));
}

TEST(SeqTracker, UnknownOriginNeverSeen) {
  SeqTracker t;
  EXPECT_FALSE(t.seen(42, 0));
  EXPECT_EQ(t.watermark(42), 0u);
}

TEST(SeqTracker, InOrderFastPathStopsAtAGapUntilItFills) {
  SeqTracker t;
  for (std::uint64_t s = 0; s < 5; ++s) EXPECT_TRUE(t.mark(4, s));
  EXPECT_EQ(t.watermark(4), 5u);
  EXPECT_TRUE(t.mark(4, 6));  // gap at 5
  EXPECT_EQ(t.watermark(4), 5u);
  // seq == watermark with an id waiting above: the fill must also absorb 6.
  EXPECT_TRUE(t.mark(4, 5));
  EXPECT_EQ(t.watermark(4), 7u);
  EXPECT_TRUE(t.mark(4, 7));  // back on the fast path
  EXPECT_EQ(t.watermark(4), 8u);
}

TEST(SeqTracker, DuplicatesBelowAndAboveTheWatermark) {
  SeqTracker t;
  t.mark(2, 0);
  t.mark(2, 1);
  EXPECT_TRUE(t.mark(2, 5));
  EXPECT_FALSE(t.mark(2, 0));  // below
  EXPECT_FALSE(t.mark(2, 5));  // above, already waiting
  EXPECT_EQ(t.watermark(2), 2u);
  EXPECT_TRUE(t.seen(2, 5));
  EXPECT_FALSE(t.seen(2, 4));
}

TEST(SeqTracker, FreshOriginStartsEmpty) {
  SeqTracker t;
  for (std::uint64_t s = 0; s < 3; ++s) t.mark(6, s);
  // Origins below 6 exist in the dense table but were never marked.
  EXPECT_FALSE(t.seen(3, 0));
  EXPECT_EQ(t.watermark(3), 0u);
  EXPECT_TRUE(t.mark(3, 0));
  EXPECT_EQ(t.watermark(3), 1u);
  EXPECT_EQ(t.watermark(6), 3u);
  // Past the table: never seen.
  EXPECT_FALSE(t.seen(9, 0));
  EXPECT_EQ(t.watermark(9), 0u);
}

TEST(SeqIndex, FindsWhatWasSetPerOrigin) {
  SeqIndex ix;
  EXPECT_EQ(ix.find(0, 0), SeqIndex::kNone);
  ix.set(1, 10, 100);
  ix.set(1, 12, 120);
  ix.set(0, 10, 7);
  EXPECT_EQ(ix.find(1, 10), 100u);
  EXPECT_EQ(ix.find(1, 11), SeqIndex::kNone);
  EXPECT_EQ(ix.find(1, 12), 120u);
  EXPECT_EQ(ix.find(1, 13), SeqIndex::kNone);
  EXPECT_EQ(ix.find(1, 9), SeqIndex::kNone);
  EXPECT_EQ(ix.find(0, 10), 7u);
  EXPECT_EQ(ix.find(5, 10), SeqIndex::kNone);
}

TEST(SeqIndex, EraseKeepsEverySharedProbeRunFindable) {
  // 0, 8, 16, ... share one home slot while the table is small; erasing
  // from the middle of their probe run must not hide the later ones.
  SeqIndex ix;
  const std::vector<std::uint64_t> seqs = {0, 8, 16, 1, 24, 9, 32};
  for (std::uint64_t s : seqs) ix.set(0, s, s + 100);
  std::set<std::uint64_t> erased;
  for (std::uint64_t gone : {16u, 0u, 9u}) {
    ix.erase(0, gone);
    erased.insert(gone);
    for (std::uint64_t s : seqs) {
      EXPECT_EQ(ix.find(0, s), erased.count(s) ? SeqIndex::kNone : s + 100)
          << s << " after erasing " << gone;
    }
  }
  ix.erase(0, 99);  // never set: no-op
  ix.set(0, 8, 7);  // overwrite in place
  EXPECT_EQ(ix.find(0, 8), 7u);
}

TEST(SeqIndex, FarApartSeqsCostOneSlotEach) {
  // A seq far from the rest (a long-lagging entry, or a corrupt frame
  // whose origin is in range) must not size anything by the gap.
  SeqIndex ix;
  ix.set(2, 3, 30);
  ix.set(2, std::uint64_t{1} << 60, 60);
  ix.set(2, ~std::uint64_t{0} - 1, 61);
  EXPECT_EQ(ix.find(2, 3), 30u);
  EXPECT_EQ(ix.find(2, std::uint64_t{1} << 60), 60u);
  EXPECT_EQ(ix.find(2, ~std::uint64_t{0} - 1), 61u);
  EXPECT_EQ(ix.find(2, 4), SeqIndex::kNone);
}

TEST(SeqIndex, SlidingWindowKeepsEveryLiveId) {
  // Ids enter in seq order and leave a few behind, as a pool's do; the
  // table wraps around many times without losing any.
  SeqIndex ix;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    ix.set(3, s, s + 1);
    if (s >= 8) ix.erase(3, s - 8);
    for (std::uint64_t live = s >= 8 ? s - 7 : 0; live <= s; ++live) {
      ASSERT_EQ(ix.find(3, live), live + 1) << s;
    }
    if (s >= 8) {
      ASSERT_EQ(ix.find(3, s - 8), SeqIndex::kNone);
    }
  }
}

}  // namespace
}  // namespace modcast::util
