// Unit + fault-injection tests: reliable broadcast (rbcast/reliable_bcast).
#include "rbcast/reliable_bcast.hpp"

#include <gtest/gtest.h>

#include "analysis/analytical_model.hpp"
#include "stack_harness.hpp"

namespace modcast::rbcast {
namespace {

using test::bytes_of;
using test::NodeHarness;
using test::string_of;
using util::milliseconds;
using util::seconds;

fd::FdConfig fast_fd() {
  fd::FdConfig c;
  c.heartbeat_interval = milliseconds(20);
  c.timeout = milliseconds(100);
  return c;
}

RbcastConfig variant(Variant v) {
  RbcastConfig c;
  c.variant = v;
  return c;
}

std::uint64_t rbcast_messages(NodeHarness& h) {
  std::uint64_t total = 0;
  for (util::ProcessId p = 0; p < h.size(); ++p) {
    total += h.node(p).stack.wire_counters(framework::kModRbcast)
                 .messages_sent;
  }
  return total;
}

class RbcastDelivery : public ::testing::TestWithParam<Variant> {};

TEST_P(RbcastDelivery, EveryProcessDeliversOnce) {
  NodeHarness h(5, 1, fast_fd(), variant(GetParam()));
  h.start();
  h.rbcast_at(milliseconds(10), 2, "hello");
  h.run_until(seconds(1));
  for (util::ProcessId p = 0; p < 5; ++p) {
    ASSERT_EQ(h.node(p).rdelivered.size(), 1u) << "process " << p;
    EXPECT_EQ(h.node(p).rdelivered[0].first, 2u);
    EXPECT_EQ(string_of(h.node(p).rdelivered[0].second), "hello");
  }
}

TEST_P(RbcastDelivery, ManyConcurrentBroadcastsAllDeliveredOnce) {
  NodeHarness h(4, 1, fast_fd(), variant(GetParam()));
  h.start();
  constexpr int kPerProcess = 10;
  for (util::ProcessId p = 0; p < 4; ++p) {
    for (int i = 0; i < kPerProcess; ++i) {
      h.rbcast_at(milliseconds(1 + i), p,
                  "m" + std::to_string(p) + "-" + std::to_string(i));
    }
  }
  h.run_until(seconds(2));
  for (util::ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(h.node(p).rdelivered.size(), 4u * kPerProcess)
        << "process " << p;
    // No duplicates.
    std::set<std::string> unique;
    for (auto& [origin, payload] : h.node(p).rdelivered) {
      EXPECT_TRUE(unique.insert(string_of(payload)).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, RbcastDelivery,
                         ::testing::Values(Variant::kClassic,
                                           Variant::kMajority),
                         [](const auto& info) {
                           return info.param == Variant::kClassic
                                      ? "Classic"
                                      : "Majority";
                         });

class RbcastCount : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RbcastCount, MajorityVariantMatchesFormula) {
  const std::size_t n = GetParam();
  NodeHarness h(n, 1, fast_fd(), variant(Variant::kMajority));
  h.start();
  h.rbcast_at(milliseconds(10), 0, "x");
  h.run_until(milliseconds(90));  // before FD heartbeat noise matters
  EXPECT_EQ(rbcast_messages(h), analysis::rbcast_messages_majority(n));
}

TEST_P(RbcastCount, ClassicVariantMatchesFormula) {
  const std::size_t n = GetParam();
  NodeHarness h(n, 1, fast_fd(), variant(Variant::kClassic));
  h.start();
  h.rbcast_at(milliseconds(10), 0, "x");
  h.run_until(milliseconds(90));
  EXPECT_EQ(rbcast_messages(h), analysis::rbcast_messages_classic(n));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, RbcastCount,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 11, 15));

// Sender crashes mid-broadcast and the copy reaches only designated
// resenders: they relay immediately, no failure detection needed.
TEST(RbcastCrash, ResendersCoverPartialBroadcast) {
  NodeHarness h(5, 1, fast_fd(), variant(Variant::kMajority));
  // Copies reach only p1 and p2 (the designated resenders for origin 0).
  h.world().network().set_link_blocked(0, 3, true);
  h.world().network().set_link_blocked(0, 4, true);
  h.start();
  h.rbcast_at(milliseconds(10), 0, "survivor");
  h.world().crash_at(0, milliseconds(11));
  h.run_until(milliseconds(80));  // well before the FD timeout
  for (util::ProcessId p = 1; p < 5; ++p) {
    ASSERT_EQ(h.node(p).rdelivered.size(), 1u) << "process " << p;
    EXPECT_EQ(string_of(h.node(p).rdelivered[0].second), "survivor");
  }
}

// Sender crashes mid-broadcast and the copy reaches only a NON-resender:
// all-or-none then relies on the suspicion fallback.
TEST(RbcastCrash, SuspicionFallbackCoversNonResenderHolder) {
  NodeHarness h(5, 1, fast_fd(), variant(Variant::kMajority));
  // Only p3 (not a designated resender for origin 0) receives the copy.
  h.world().network().set_link_blocked(0, 1, true);
  h.world().network().set_link_blocked(0, 2, true);
  h.world().network().set_link_blocked(0, 4, true);
  h.start();
  h.rbcast_at(milliseconds(10), 0, "rescued");
  h.world().crash_at(0, milliseconds(11));
  h.run_until(seconds(1));  // FD suspects p0; p3 re-relays
  for (util::ProcessId p = 1; p < 5; ++p) {
    ASSERT_EQ(h.node(p).rdelivered.size(), 1u) << "process " << p;
    EXPECT_EQ(string_of(h.node(p).rdelivered[0].second), "rescued");
  }
}

// Sender crashes before any copy leaves: nobody delivers (the "none" side
// of all-or-none).
TEST(RbcastCrash, NoCopyMeansNoDelivery) {
  NodeHarness h(5, 1, fast_fd(), variant(Variant::kMajority));
  for (util::ProcessId p = 1; p < 5; ++p) {
    h.world().network().set_link_blocked(0, p, true);
  }
  h.start();
  h.rbcast_at(milliseconds(10), 0, "ghost");
  h.world().crash_at(0, milliseconds(11));
  h.run_until(seconds(1));
  for (util::ProcessId p = 1; p < 5; ++p) {
    EXPECT_TRUE(h.node(p).rdelivered.empty()) << "process " << p;
  }
}

// A wrong suspicion only causes extra relays, never duplicates or loss.
TEST(RbcastFaults, FalseSuspicionIsHarmless) {
  NodeHarness h(5, 1, fast_fd(), variant(Variant::kMajority));
  h.start();
  h.rbcast_at(milliseconds(10), 0, "steady");
  h.world().simulator().at(milliseconds(30), [&] {
    h.node(3).fd.force_suspect(0);  // p0 is alive
    h.node(3).fd.force_suspect(1);  // p1 (a resender) is alive
  });
  h.run_until(seconds(1));
  for (util::ProcessId p = 0; p < 5; ++p) {
    ASSERT_EQ(h.node(p).rdelivered.size(), 1u) << "process " << p;
  }
}

TEST(RbcastFaults, DroppedRelayRecoveredByOtherResender) {
  // n=7 has 3 designated resenders; losing one relay entirely still leaves
  // two full relays, so everyone delivers.
  NodeHarness h(7, 1, fast_fd(), variant(Variant::kMajority));
  for (util::ProcessId p = 0; p < 7; ++p) {
    if (p != 1) h.world().network().set_link_blocked(1, p, true);
  }
  h.start();
  h.rbcast_at(milliseconds(10), 0, "redundant");
  h.run_until(seconds(1));
  for (util::ProcessId p = 0; p < 7; ++p) {
    ASSERT_EQ(h.node(p).rdelivered.size(), 1u) << "process " << p;
  }
}

}  // namespace
}  // namespace modcast::rbcast
