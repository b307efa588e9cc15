// Smoke tests: real-thread runtime (runtime/thread_world).
//
// These run the identical protocol objects on OS threads with wall-clock
// timers. They are deliberately small and generously timed: the goal is to
// prove the protocols are runtime-agnostic, not to benchmark threads.
#include "runtime/thread_world.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "core/abcast_process.hpp"

namespace modcast::runtime {
namespace {

using util::Bytes;
using util::milliseconds;
using util::ProcessId;

/// Spin-waits (with sleeping) until pred() or the deadline.
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

class PingPong : public Protocol {
 public:
  explicit PingPong(Runtime& rt) : rt_(&rt) {}
  void start() override {
    if (rt_->self() == 0) rt_->send(1, Bytes{1});
  }
  void on_message(ProcessId from, util::Payload msg) override {
    count_.fetch_add(1);
    if (msg[0] < 10) {
      Bytes next = {static_cast<std::uint8_t>(msg[0] + 1)};
      rt_->send(from, std::move(next));
    }
  }
  Runtime* rt_;
  std::atomic<int> count_{0};
};

TEST(ThreadWorld, PingPongExchange) {
  ThreadWorld world(2);
  PingPong a(world.runtime(0)), b(world.runtime(1));
  world.attach(0, &a);
  world.attach(1, &b);
  world.start();
  EXPECT_TRUE(eventually([&] { return a.count_ + b.count_ >= 10; }));
  world.stop();
}

TEST(ThreadWorld, TimersFire) {
  class TimerProto : public Protocol {
   public:
    explicit TimerProto(Runtime& rt) : rt_(&rt) {}
    void start() override {
      rt_->set_timer(milliseconds(10), [this] { fired_.fetch_add(1); });
      cancelled_id_ =
          rt_->set_timer(milliseconds(30), [this] { fired_.fetch_add(100); });
      rt_->set_timer(milliseconds(1), [this] {
        rt_->cancel_timer(cancelled_id_);
      });
    }
    void on_message(ProcessId, util::Payload) override {}
    Runtime* rt_;
    TimerId cancelled_id_ = 0;
    std::atomic<int> fired_{0};
  };
  ThreadWorld world(1);
  TimerProto proto(world.runtime(0));
  world.attach(0, &proto);
  world.start();
  EXPECT_TRUE(eventually([&] { return proto.fired_.load() == 1; }, 2000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(proto.fired_.load(), 1);  // cancelled timer never fired
  world.stop();
}

struct DeliveryLog {
  std::mutex mu;
  std::vector<std::pair<ProcessId, std::uint64_t>> log;
  std::size_t size() {
    std::lock_guard lock(mu);
    return log.size();
  }
};

class ThreadStacks : public ::testing::TestWithParam<core::StackKind> {};

TEST_P(ThreadStacks, AtomicBroadcastTotalOrderOnThreads) {
  constexpr std::size_t kN = 3;
  constexpr int kPerProcess = 5;

  ThreadWorld world(kN);
  std::vector<std::unique_ptr<core::AbcastProcess>> procs;
  std::vector<DeliveryLog> logs(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    core::StackOptions opts;
    opts.kind = GetParam();
    opts.fd.heartbeat_interval = milliseconds(20);
    opts.fd.timeout = milliseconds(200);
    opts.flow.liveness_timeout = milliseconds(100);
    procs.push_back(std::make_unique<core::AbcastProcess>(world.runtime(p),
                                                          opts));
    procs[p]->set_deliver_handler(
        [&logs, p](ProcessId origin, std::uint64_t seq, const Bytes&) {
          std::lock_guard lock(logs[p].mu);
          logs[p].log.emplace_back(origin, seq);
        });
    world.attach(p, &procs[p]->protocol());
  }
  world.start();

  // abcast() must run on the owning process thread — calling it from the
  // test thread would race with the protocol's message/timer callbacks
  // (this was the source of this test's historical flakiness).
  for (int i = 0; i < kPerProcess; ++i) {
    for (ProcessId p = 0; p < kN; ++p) {
      world.post(p, [&procs, p] {
        procs[p]->abcast(Bytes(64, static_cast<std::uint8_t>(p)));
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  ASSERT_TRUE(eventually([&] {
    for (auto& l : logs) {
      if (l.size() != kN * kPerProcess) return false;
    }
    return true;
  })) << "not all messages delivered in time";

  world.stop();
  // Identical logs at every process (uniform agreement + total order).
  for (ProcessId p = 1; p < kN; ++p) {
    EXPECT_EQ(logs[p].log, logs[0].log) << "process " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Stacks, ThreadStacks,
                         ::testing::Values(core::StackKind::kModular,
                                           core::StackKind::kMonolithic),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

TEST(ThreadWorld, CrashStopsProcess) {
  ThreadWorld world(2);
  PingPong a(world.runtime(0)), b(world.runtime(1));
  world.attach(0, &a);
  world.attach(1, &b);
  world.start();
  EXPECT_TRUE(eventually([&] { return a.count_.load() >= 1; }));
  world.crash(1);
  const int before = b.count_.load();
  world.runtime(0).send(1, Bytes{1});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(b.count_.load(), before);
  world.stop();
}

TEST(ThreadWorld, StopIsIdempotent) {
  ThreadWorld world(2);
  PingPong a(world.runtime(0)), b(world.runtime(1));
  world.attach(0, &a);
  world.attach(1, &b);
  world.start();
  world.stop();
  world.stop();  // second stop must be harmless
}

}  // namespace
}  // namespace modcast::runtime
