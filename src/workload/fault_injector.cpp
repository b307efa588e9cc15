#include "workload/fault_injector.hpp"

#include <cassert>
#include <utility>

namespace modcast::workload {

FaultInjector::FaultInjector(core::SimGroup& group, FaultSchedule schedule)
    : group_(&group), schedule_(std::move(schedule)) {}

void FaultInjector::notify(const std::string& what) {
  if (listener_) listener_(group_->now(), what);
}

void FaultInjector::arm() {
  assert(!armed_ && "arm() must be called exactly once");
  armed_ = true;
  auto& sim = group_->world().simulator();

  for (const auto& c : schedule_.crashes) {
    const auto p = c.p;
    sim.at(c.at, [this, p] {
      if (!group_->crashed(p)) {
        group_->crash(p);
        notify("crash p" + std::to_string(p));
      }
    });
  }
  for (const auto& c : schedule_.instance_crashes) arm_instance_crash(c);
  for (const auto& cut : schedule_.partitions) arm_partition(cut);
  for (const auto& burst : schedule_.suspicions) arm_suspicions(burst);

  if (!schedule_.drop_windows.empty()) {
    auto& net = group_->world().network();
    net.set_drop([&net, sim = &sim, windows = schedule_.drop_windows](
                     util::ProcessId from, util::ProcessId to) {
      const util::TimePoint now = sim->now();
      for (const auto& w : windows) {
        if (now < w.from_t || now >= w.to_t) continue;
        if (w.only_from != kAnyProcess && w.only_from != from) continue;
        if (w.only_to != kAnyProcess && w.only_to != to) continue;
        if (net.drop_rng().chance(w.probability)) return true;
      }
      return false;
    });
  }
}

void FaultInjector::arm_partition(const Partition& cut) {
  auto& sim = group_->world().simulator();
  const std::size_t n = group_->size();
  auto set_cut = [g = group_, island = cut.island, n](bool blocked) {
    std::vector<bool> in_island(n, false);
    for (util::ProcessId p : island) {
      if (p < n) in_island[p] = true;
    }
    auto& net = g->world().network();
    for (util::ProcessId a = 0; a < n; ++a) {
      for (util::ProcessId b = 0; b < n; ++b) {
        if (a != b && in_island[a] != in_island[b]) {
          net.set_link_blocked(a, b, blocked);
        }
      }
    }
  };
  sim.at(cut.at, [this, set_cut] {
    set_cut(true);
    notify("partition cut");
  });
  if (cut.heal > 0) {
    sim.at(cut.heal, [this, set_cut] {
      set_cut(false);
      notify("partition heal");
    });
  }
}

void FaultInjector::arm_instance_crash(const CrashOnInstance& c) {
  // Self-rescheduling read-only poll; stops once the victim crashes (for
  // any reason) or reaches the pinned instance count.
  group_->world().simulator().after(kInstancePoll, [this, c] {
    if (group_->crashed(c.p)) return;
    if (group_->process(c.p).stats().instances_completed >= c.instance) {
      group_->crash(c.p);
      notify("crash p" + std::to_string(c.p) + " on instance " +
             std::to_string(c.instance));
      return;
    }
    arm_instance_crash(c);
  });
}

void FaultInjector::arm_suspicions(const SuspicionBurst& burst) {
  auto& sim = group_->world().simulator();
  const std::size_t n = group_->size();
  for (std::size_t i = 0; i < burst.repeat; ++i) {
    const util::TimePoint at =
        burst.at + static_cast<util::Duration>(i) * burst.gap;
    sim.at(at, [this, n, accuser = burst.accuser, victim = burst.victim] {
      auto accuse = [&](util::ProcessId a) {
        // Never run module code of a crashed process, and self-suspicion is
        // a no-op anyway.
        if (a >= n || victim >= n || group_->crashed(a) || a == victim) {
          return;
        }
        group_->process(a).failure_detector().force_suspect(victim);
      };
      if (accuser == kAnyProcess) {
        for (util::ProcessId a = 0; a < n; ++a) accuse(a);
      } else {
        accuse(accuser);
      }
      notify("suspicion burst on p" + std::to_string(victim));
    });
  }
}

}  // namespace modcast::workload
