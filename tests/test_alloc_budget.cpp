// Heap-allocation budget of the good path.
//
// This binary replaces global operator new/delete with a counting pair, so
// every heap allocation of the library (and of this harness) is seen. The
// simulator is single-threaded and seeded, so a run's count repeats
// exactly: each budget below is the count this tree makes, and any extra
// allocation on the per-message path fails the test. Lower a budget when a
// change removes allocations; raise one only with the reason in CHANGES.md.
//
// Counts depend on the standard library's container growth policy; the
// budgets were taken with GCC 12's libstdc++.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "adb/flow.hpp"
#include "core/sim_group.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "util/seq_tracker.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace modcast {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Whole stacks: n=33, 64-byte payloads, 400 msgs/s (sub-knee)
// ---------------------------------------------------------------------------

struct Budget {
  std::uint64_t allocations;  ///< in the measured window
  std::uint64_t delivered;    ///< adeliver events at p0 in that window
};

/// Runs an n=33 group of `kind`: every process abcasts a 64-byte payload
/// every 82.5 ms (400 msgs/s offered), 1 s warm-up, then a 3 s measured
/// window. Returns the allocations made in the window and the messages p0
/// adelivered in it.
Budget measure_stack(core::StackKind kind) {
  core::SimGroupConfig cfg;
  cfg.n = 33;
  cfg.stack.kind = kind;
  cfg.record_deliveries = false;
  core::SimGroup g(cfg);
  std::uint64_t delivered = 0;
  g.set_deliver_observer([&delivered](util::ProcessId p, util::ProcessId,
                                      std::uint64_t, const util::Bytes&) {
    if (p == 0) ++delivered;
  });
  const util::Duration period = util::microseconds(82500);
  const util::TimePoint warm_up = util::seconds(1);
  const util::TimePoint window_end = util::seconds(4);
  g.start();
  sim::Simulator& sim = g.world().simulator();
  for (util::ProcessId p = 0; p < g.size(); ++p) {
    // Staggered starts; each tick schedules the next.
    struct Tick {
      core::SimGroup* g;
      util::ProcessId p;
      util::Duration period;
      util::TimePoint end;
      void operator()() const {
        g->process(p).abcast(util::Bytes(64, 0x5a));
        const util::TimePoint next = g->now() + period;
        if (next < end) g->world().simulator().at(next, *this, p);
      }
    };
    sim.at(util::microseconds(2500) * p + util::microseconds(100),
           Tick{&g, p, period, window_end}, p);
  }
  g.run_until(warm_up);
  const std::uint64_t before_allocs = allocations();
  const std::uint64_t before_delivered = delivered;
  g.run_until(window_end);
  return Budget{allocations() - before_allocs, delivered - before_delivered};
}

void expect_within(const Budget& got, const Budget& budget) {
  EXPECT_EQ(got.delivered, budget.delivered) << "the workload changed";
  EXPECT_LE(got.allocations, budget.allocations)
      << "allocations per adelivered message: "
      << static_cast<double>(got.allocations) /
             static_cast<double>(got.delivered)
      << " (budget "
      << static_cast<double>(budget.allocations) /
             static_cast<double>(budget.delivered)
      << ")";
  // The exact figure, so a lowered budget is easy to commit.
  std::printf("allocations %llu for %llu messages\n",
              static_cast<unsigned long long>(got.allocations),
              static_cast<unsigned long long>(got.delivered));
}

TEST(AllocBudget, ModularN33) {
  expect_within(measure_stack(core::StackKind::kModular), Budget{55572, 1213});
}

TEST(AllocBudget, MonolithicN33) {
  expect_within(measure_stack(core::StackKind::kMonolithic),
                Budget{54613, 1201});
}

// ---------------------------------------------------------------------------
// Per-message structures: zero allocations once warmed up
// ---------------------------------------------------------------------------

TEST(AllocBudget, BatcherCycleAllocatesNothingAfterWarmUp) {
  adb::FlowConfig cfg;
  cfg.max_batch = 8;
  adb::Batcher b(cfg);
  std::vector<adb::AppMessage> batch;
  const util::Payload payload(util::Bytes(64, 0x5a));
  std::uint64_t seq[4] = {0, 0, 0, 0};
  // Each cycle pools four messages, cuts everything eligible, orders all
  // but the last one cut and applies the instance, so one message carries
  // over into the next cut.
  auto cycle = [&](std::uint64_t k) {
    for (util::ProcessId o = 0; o < 4; ++o) {
      b.add(adb::AppMessage{adb::MsgId{o, seq[o]++}, payload}, 0);
    }
    b.cut(k, batch);
    for (std::size_t i = 0; i + 1 < batch.size(); ++i) {
      b.mark_ordered(batch[i].id);
    }
    b.on_decided(k);
  };
  std::uint64_t k = 0;
  for (; k < 64; ++k) cycle(k);
  const std::uint64_t before = allocations();
  for (; k < 4096; ++k) cycle(k);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(b.eligible(), 1u);
}

TEST(AllocBudget, InOrderSeqTrackerMarkAllocatesNothing) {
  util::SeqTracker t;
  for (util::ProcessId o = 0; o < 33; ++o) t.mark(o, 0);
  const std::uint64_t before = allocations();
  for (std::uint64_t s = 1; s < 10000; ++s) {
    for (util::ProcessId o = 0; o < 33; ++o) ASSERT_TRUE(t.mark(o, s));
  }
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(AllocBudget, CpuExecuteAtSteadyDepthAllocatesNothing) {
  sim::Simulator sim;
  sim::Cpu cpu(sim);
  int ran = 0;
  // Keeps eight items queued: each completion enqueues one more.
  auto enqueue = [&](auto& self) -> void {
    cpu.execute(util::microseconds(10), [&ran, &self] {
      ++ran;
      self(self);
    });
  };
  for (int i = 0; i < 8; ++i) enqueue(enqueue);
  sim.run_until(util::milliseconds(1));
  const std::uint64_t before = allocations();
  sim.run_until(util::milliseconds(100));
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(cpu.queue_depth(), 8u);
  EXPECT_EQ(ran, 10000);
}

}  // namespace
}  // namespace modcast
