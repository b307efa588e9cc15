// Unit tests: fault schedules, the online safety checker, and the injector
// (faults/fault_schedule, faults/safety_checker, workload/fault_injector).
#include <gtest/gtest.h>

#include "core/sim_group.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/safety_checker.hpp"
#include "workload/fault_injector.hpp"

namespace modcast::faults {
namespace {

using util::milliseconds;
using util::seconds;
using workload::FaultInjector;

// --- FaultSchedule (pure data helpers) --------------------------------------

TEST(FaultSchedule, CrashCountCountsDistinctProcesses) {
  FaultSchedule s;
  s.crashes.push_back({0, milliseconds(100)});
  s.crashes.push_back({0, milliseconds(200)});  // same process twice
  s.instance_crashes.push_back({1, 5});
  EXPECT_EQ(s.crash_count(), 2u);
}

TEST(FaultSchedule, NeedsReliableChannelsOnlyForLossyFaults) {
  FaultSchedule crashes_only;
  crashes_only.crashes.push_back({0, milliseconds(100)});
  crashes_only.suspicions.push_back({milliseconds(50), kAnyProcess, 0, 2});
  EXPECT_FALSE(crashes_only.needs_reliable_channels());

  FaultSchedule with_partition;
  with_partition.partitions.push_back(
      {{2}, milliseconds(100), milliseconds(300)});
  EXPECT_TRUE(with_partition.needs_reliable_channels());

  FaultSchedule with_drops;
  with_drops.drop_windows.push_back(
      {milliseconds(100), milliseconds(200), 0.1});
  EXPECT_TRUE(with_drops.needs_reliable_channels());
}

TEST(FaultSchedule, FirstFaultAtIsTheEarliestDisturbance) {
  FaultSchedule s;
  s.crashes.push_back({0, milliseconds(700)});
  s.partitions.push_back({{1}, milliseconds(400), milliseconds(900)});
  s.suspicions.push_back({milliseconds(550), kAnyProcess, 0, 1});
  EXPECT_EQ(s.first_fault_at(), milliseconds(400));
  EXPECT_EQ(FaultSchedule{}.first_fault_at(), 0);
}

// --- SafetyChecker (violation detection on synthetic logs) ------------------

TEST(SafetyChecker, CleanRunPassesFinalize) {
  SafetyChecker c(2);
  c.on_admit(0, 0, milliseconds(1));
  c.on_admit(1, 0, milliseconds(2));
  for (util::ProcessId p = 0; p < 2; ++p) {
    c.on_deliver(p, 0, 0, milliseconds(10));
    c.on_deliver(p, 1, 0, milliseconds(11));
  }
  const auto report = c.finalize(milliseconds(20));
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.committed, 2u);
  EXPECT_EQ(report.deliveries_checked, 4u);
}

TEST(SafetyChecker, DetectsTotalOrderViolation) {
  SafetyChecker c(2);
  c.on_admit(0, 0, milliseconds(1));
  c.on_admit(1, 0, milliseconds(1));
  c.on_deliver(0, 0, 0, milliseconds(10));  // p0 defines order[0] = (0,0)
  c.on_deliver(1, 1, 0, milliseconds(11));  // p1 delivers (1,0) first: diverge
  EXPECT_FALSE(c.ok());
}

TEST(SafetyChecker, DetectsDuplicateDelivery) {
  SafetyChecker c(2);
  c.on_admit(0, 0, milliseconds(1));
  c.on_deliver(0, 0, 0, milliseconds(10));
  c.on_deliver(0, 0, 0, milliseconds(12));  // delivered twice at p0
  EXPECT_FALSE(c.ok());
}

TEST(SafetyChecker, DetectsCreation) {
  SafetyChecker c(2);
  c.on_admit(0, 0, milliseconds(1));         // arms the validity check
  c.on_deliver(0, 1, 7, milliseconds(10));   // (1,7) was never admitted
  EXPECT_FALSE(c.ok());
}

TEST(SafetyChecker, DetectsUniformAgreementViolation) {
  SafetyChecker c(3);
  c.on_admit(0, 0, milliseconds(1));
  // p2 delivers then crashes; p0 and p1 never deliver. Uniform agreement
  // requires correct processes to catch up with anything delivered anywhere.
  c.on_deliver(2, 0, 0, milliseconds(5));
  c.on_crash(2, milliseconds(6));
  const auto report = c.finalize(seconds(1));
  EXPECT_FALSE(report.ok);
}

TEST(SafetyChecker, CrashedProcessExemptFromAgreement) {
  SafetyChecker c(3);
  c.on_admit(0, 0, milliseconds(1));
  c.on_deliver(0, 0, 0, milliseconds(5));
  c.on_deliver(1, 0, 0, milliseconds(6));
  c.on_crash(2, milliseconds(2));  // crashed before delivering anything
  const auto report = c.finalize(seconds(1));
  EXPECT_TRUE(report.ok);
}

TEST(SafetyChecker, WatchdogFlagsStallWithoutCountingItAsViolation) {
  SafetyConfig cfg;
  cfg.stall_timeout = milliseconds(100);
  SafetyChecker c(2, cfg);
  c.on_admit(0, 0, milliseconds(1));  // outstanding work, nothing commits
  c.on_watchdog_tick(milliseconds(500));
  const auto report = c.finalize(milliseconds(600));
  EXPECT_TRUE(report.ok);  // a stall is a liveness flag, not a safety bug
  EXPECT_FALSE(report.stalls.empty());
}

// --- FaultInjector (armed onto a live SimGroup) -----------------------------

core::SimGroupConfig small_group(bool reliable) {
  core::SimGroupConfig gc;
  gc.n = 3;
  gc.seed = 7;
  gc.safety_check = true;
  gc.reliable_channels = reliable;
  gc.stack.fd.heartbeat_interval = milliseconds(25);
  gc.stack.fd.timeout = milliseconds(150);
  gc.stack.flow.liveness_timeout = milliseconds(250);
  return gc;
}

TEST(FaultInjector, FiresCrashesAtScheduledTimeAndLogsThem) {
  core::SimGroup group(small_group(false));
  FaultSchedule s;
  s.name = "one-crash";
  s.crashes.push_back({2, milliseconds(300)});
  FaultInjector injector(group, s);
  std::vector<std::pair<util::TimePoint, std::string>> log;
  injector.set_fault_listener([&](util::TimePoint at, const std::string& w) {
    log.emplace_back(at, w);
  });
  injector.arm();
  group.start();
  group.world().simulator().at(milliseconds(10), [&] {
    group.process(0).abcast(util::Bytes(64, 1));
  });
  group.run_until(seconds(2));

  EXPECT_TRUE(group.crashed(2));
  EXPECT_FALSE(group.crashed(0));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, milliseconds(300));
  EXPECT_EQ(log[0].second, "crash p2");
  EXPECT_TRUE(group.safety_report().ok);
}

TEST(FaultInjector, PartitionCutsAndHealsWithSurvivingSafety) {
  core::SimGroup group(small_group(true));
  FaultSchedule s;
  s.name = "heal";
  s.partitions.push_back({{2}, milliseconds(200), milliseconds(700)});
  FaultInjector injector(group, s);
  std::vector<std::string> log;
  injector.set_fault_listener(
      [&](util::TimePoint, const std::string& w) { log.push_back(w); });
  injector.arm();
  group.start();
  for (int i = 0; i < 20; ++i) {
    group.world().simulator().at(milliseconds(50 + 40 * i), [&group] {
      group.process(0).abcast(util::Bytes(64, 1));
    });
  }
  group.run_until(seconds(4));

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "partition cut");
  EXPECT_EQ(log[1], "partition heal");
  const auto report = group.safety_report();
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? "stall"
                                 : report.violations.front());
  EXPECT_EQ(report.committed, 20u);
}

TEST(FaultInjector, SuspicionBurstChurnsTheFailureDetector) {
  core::SimGroup group(small_group(false));
  FaultSchedule s;
  s.name = "churn";
  s.suspicions.push_back({milliseconds(200), kAnyProcess, 0, 3,
                          milliseconds(150)});
  FaultInjector injector(group, s);
  std::vector<std::string> log;
  injector.set_fault_listener(
      [&](util::TimePoint, const std::string& w) { log.push_back(w); });
  injector.arm();
  group.start();
  group.world().simulator().at(milliseconds(10), [&] {
    group.process(1).abcast(util::Bytes(64, 1));
  });
  group.run_until(seconds(2));

  EXPECT_EQ(log.size(), 3u);  // one entry per repeat
  // All suspicions were wrong (p0 is alive): the FD must have restored it.
  for (util::ProcessId p = 1; p < 3; ++p) {
    EXPECT_FALSE(group.process(p).failure_detector().suspects(0));
  }
  EXPECT_TRUE(group.safety_report().ok);
}

}  // namespace
}  // namespace modcast::faults
