// Unit tests: heartbeat failure detector (fd/heartbeat_fd).
#include "fd/heartbeat_fd.hpp"

#include <gtest/gtest.h>

#include "stack_harness.hpp"

namespace modcast::fd {
namespace {

using test::NodeHarness;
using util::milliseconds;
using util::seconds;

FdConfig fast_fd() {
  FdConfig c;
  c.heartbeat_interval = milliseconds(20);
  c.timeout = milliseconds(100);
  return c;
}

TEST(HeartbeatFd, NoSuspicionInGoodRun) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  h.run_until(seconds(2));
  for (util::ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(h.node(p).fd.suspected_count(), 0u) << "process " << p;
    EXPECT_TRUE(h.node(p).suspect_events.empty()) << "process " << p;
  }
}

TEST(HeartbeatFd, HeartbeatsFlow) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  h.run_until(seconds(1));
  // ~50 ticks × 2 peers; allow slack for boundary ticks.
  EXPECT_GT(h.node(0).fd.heartbeats_sent(), 80u);
}

TEST(HeartbeatFd, CrashedProcessGetsSuspectedEverywhere) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  h.world().crash_at(2, milliseconds(300));
  h.run_until(seconds(1));
  for (util::ProcessId p = 0; p < 2; ++p) {
    EXPECT_TRUE(h.node(p).fd.suspects(2)) << "process " << p;
    ASSERT_EQ(h.node(p).suspect_events.size(), 1u);
    EXPECT_EQ(h.node(p).suspect_events[0], 2u);
  }
  // The crashed process itself produced no (visible) events after halting.
  EXPECT_FALSE(h.node(0).fd.suspects(1));
}

TEST(HeartbeatFd, SuspicionIsPermanentForCrashedProcess) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  h.world().crash_at(1, milliseconds(200));
  h.run_until(seconds(3));
  EXPECT_TRUE(h.node(0).fd.suspects(1));
  EXPECT_TRUE(h.node(0).restore_events.empty());
}

TEST(HeartbeatFd, ForcedSuspicionRestoresOnNextHeartbeat) {
  NodeHarness h(3, 1, fast_fd());
  h.start();
  h.world().simulator().at(milliseconds(500), [&] {
    h.node(0).fd.force_suspect(1);  // wrong suspicion: p1 is alive
    EXPECT_TRUE(h.node(0).fd.suspects(1));
  });
  h.run_until(seconds(1));  // p1 keeps heartbeating
  ASSERT_FALSE(h.node(0).suspect_events.empty());
  EXPECT_FALSE(h.node(0).fd.suspects(1));
  ASSERT_EQ(h.node(0).restore_events.size(), 1u);
  EXPECT_EQ(h.node(0).restore_events[0], 1u);
}

TEST(HeartbeatFd, SlowLinkCausesFalseSuspicionThenRestore) {
  NodeHarness h(2, 1, fast_fd());
  h.start();
  // Delay everything from p1 to p0 by 300ms for a while: p0 should suspect
  // p1 (completeness of the timeout) and later restore it (eventual
  // accuracy once the link recovers).
  h.world().simulator().at(milliseconds(200), [&] {
    h.world().network().set_extra_delay(
        [](util::ProcessId from, util::ProcessId, std::size_t) {
          return from == 1 ? milliseconds(300) : milliseconds(0);
        });
  });
  h.world().simulator().at(milliseconds(700), [&] {
    h.world().network().set_extra_delay(nullptr);
  });
  // Between ~200ms and ~500ms nothing from p1 reaches p0 (the first delayed
  // heartbeat, sent at ~200ms, lands at ~500ms): p0 must have suspected.
  h.run_until(milliseconds(450));
  EXPECT_TRUE(h.node(0).fd.suspects(1));
  h.run_until(seconds(2));
  EXPECT_FALSE(h.node(0).fd.suspects(1));
  EXPECT_GE(h.node(0).restore_events.size(), 1u);
}

TEST(HeartbeatFd, ForceSuspectSelfIsIgnored) {
  NodeHarness h(2, 1, fast_fd());
  h.start();
  h.world().simulator().at(milliseconds(100), [&] {
    h.node(0).fd.force_suspect(0);
  });
  h.run_until(milliseconds(200));
  EXPECT_FALSE(h.node(0).fd.suspects(0));
}

TEST(HeartbeatFd, ChurnKeepsSuspectAndRestoreEventsSymmetric) {
  // Repeatedly inject wrong suspicions against a live process. Every
  // suspicion must clear on the next heartbeat, and the event streams must
  // stay pairwise symmetric: k suspicions ⇒ k restores, ending unsuspected.
  NodeHarness h(3, 1, fast_fd());
  h.start();
  constexpr std::size_t kBursts = 5;
  for (std::size_t i = 0; i < kBursts; ++i) {
    h.world().simulator().at(milliseconds(200 + 200 * i), [&] {
      h.node(0).fd.force_suspect(1);
    });
  }
  h.run_until(seconds(2));
  EXPECT_FALSE(h.node(0).fd.suspects(1));
  EXPECT_EQ(h.node(0).suspect_events.size(), kBursts);
  EXPECT_EQ(h.node(0).restore_events.size(), kBursts);
  for (util::ProcessId q : h.node(0).restore_events) EXPECT_EQ(q, 1u);
}

TEST(HeartbeatFd, ForceSuspectWhileAlreadySuspectedIsIdempotent) {
  NodeHarness h(2, 1, fast_fd());
  h.start();
  h.world().simulator().at(milliseconds(300), [&] {
    h.node(0).fd.force_suspect(1);
    h.node(0).fd.force_suspect(1);  // duplicate: must not double-raise
  });
  h.run_until(seconds(1));
  EXPECT_EQ(h.node(0).suspect_events.size(), 1u);
  EXPECT_EQ(h.node(0).restore_events.size(), 1u);
}

TEST(HeartbeatFd, ChurnAgainstCrashedProcessNeverRestores) {
  // force_suspect on a genuinely crashed process behaves like a timeout
  // suspicion: it sticks, and no restore event is ever raised.
  NodeHarness h(3, 1, fast_fd());
  h.start();
  h.world().crash_at(2, milliseconds(100));
  h.world().simulator().at(milliseconds(150), [&] {
    h.node(0).fd.force_suspect(2);  // races the timeout; either marks first
  });
  h.run_until(seconds(2));
  EXPECT_TRUE(h.node(0).fd.suspects(2));
  EXPECT_EQ(h.node(0).suspect_events.size(), 1u);
  EXPECT_TRUE(h.node(0).restore_events.empty());
}

TEST(HeartbeatFd, SuspectEventRaisedOncePerTransition) {
  NodeHarness h(2, 1, fast_fd());
  h.start();
  h.world().crash_at(1, milliseconds(100));
  h.run_until(seconds(2));
  EXPECT_EQ(h.node(0).suspect_events.size(), 1u);
}

}  // namespace
}  // namespace modcast::fd
