// Unit + integration tests: FIFO-order adapter (core/fifo_order).
#include "core/fifo_order.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/sim_group.hpp"

namespace modcast::core {
namespace {

using Out = std::vector<std::pair<util::ProcessId, std::uint64_t>>;

struct Fixture {
  Out out;
  FifoOrderAdapter adapter{[this](util::ProcessId origin, std::uint64_t seq,
                                  const util::Bytes&) {
    out.emplace_back(origin, seq);
  }};
  void feed(util::ProcessId origin, std::uint64_t seq) {
    adapter.on_deliver(origin, seq, util::Bytes{});
  }
};

TEST(FifoAdapter, PassThroughInOrder) {
  Fixture f;
  f.feed(0, 0);
  f.feed(0, 1);
  f.feed(0, 2);
  EXPECT_EQ(f.out, (Out{{0, 0}, {0, 1}, {0, 2}}));
  EXPECT_EQ(f.adapter.held(), 0u);
}

TEST(FifoAdapter, HoldsEarlyMessageUntilGapFills) {
  Fixture f;
  f.feed(0, 1);  // early
  EXPECT_TRUE(f.out.empty());
  EXPECT_EQ(f.adapter.held(), 1u);
  f.feed(0, 0);  // gap fills: both release, in order
  EXPECT_EQ(f.out, (Out{{0, 0}, {0, 1}}));
  EXPECT_EQ(f.adapter.held(), 0u);
}

TEST(FifoAdapter, LongReorderBurst) {
  Fixture f;
  for (std::uint64_t s : {5, 3, 4, 1, 2}) f.feed(0, s);
  EXPECT_TRUE(f.out.empty());
  f.feed(0, 0);
  Out expect;
  for (std::uint64_t s = 0; s <= 5; ++s) expect.emplace_back(0, s);
  EXPECT_EQ(f.out, expect);
}

TEST(FifoAdapter, OriginsAreIndependent) {
  Fixture f;
  f.feed(1, 1);  // held
  f.feed(2, 0);  // passes
  f.feed(2, 1);  // passes
  f.feed(1, 0);  // releases origin 1
  EXPECT_EQ(f.out, (Out{{2, 0}, {2, 1}, {1, 0}, {1, 1}}));
}

TEST(FifoAdapter, PartialRelease) {
  Fixture f;
  f.feed(0, 2);
  f.feed(0, 0);  // releases 0 only (1 still missing)
  EXPECT_EQ(f.out, (Out{{0, 0}}));
  EXPECT_EQ(f.adapter.held(), 1u);
  f.feed(0, 1);  // releases 1 and the held 2
  EXPECT_EQ(f.out, (Out{{0, 0}, {0, 1}, {0, 2}}));
}

TEST(FifoAdapter, DeterministicAcrossIdenticalInputs) {
  // Same raw sequence at two "processes" → identical adapted sequence:
  // the property that preserves uniform total order through adaptation.
  Out a, b;
  for (Out* out : {&a, &b}) {
    FifoOrderAdapter adapter([out](util::ProcessId origin, std::uint64_t seq,
                                   const util::Bytes&) {
      out->emplace_back(origin, seq);
    });
    for (auto [o, s] : Out{{0, 1}, {1, 0}, {0, 0}, {1, 2}, {1, 1}, {0, 2}}) {
      adapter.on_deliver(o, s, util::Bytes{});
    }
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 6u);
}

// End-to-end: install the adapter on a live monolithic group with a
// coordinator crash (the scenario that produces raw FIFO violations).
TEST(FifoAdapter, RestoresFifoOnMonolithicStackUnderCrash) {
  SimGroupConfig cfg;
  cfg.n = 3;
  cfg.seed = 22;
  cfg.stack.kind = StackKind::kMonolithic;
  cfg.stack.fd.heartbeat_interval = util::milliseconds(20);
  cfg.stack.fd.timeout = util::milliseconds(100);
  cfg.stack.flow.liveness_timeout = util::milliseconds(150);
  cfg.record_deliveries = false;
  SimGroup group(cfg);

  std::vector<Out> adapted(3);
  std::vector<std::unique_ptr<FifoOrderAdapter>> adapters;
  for (util::ProcessId p = 0; p < 3; ++p) {
    adapters.push_back(std::make_unique<FifoOrderAdapter>(
        [&adapted, p](util::ProcessId origin, std::uint64_t seq,
                      const util::Bytes&) {
          adapted[p].emplace_back(origin, seq);
        }));
    group.process(p).set_deliver_handler(adapters.back()->as_handler());
  }
  group.start();
  for (util::ProcessId p = 1; p < 3; ++p) {
    for (int i = 0; i < 20; ++i) {
      group.world().simulator().at(
          util::milliseconds(1 + p) + i * util::milliseconds(4),
          [&group, p] {
            if (!group.crashed(p)) {
              group.process(p).abcast(util::Bytes(32, 1));
            }
          });
    }
  }
  group.crash_at(0, util::milliseconds(25));
  group.run_until(util::seconds(5));

  EXPECT_EQ(adapted[1].size(), 40u);
  EXPECT_EQ(adapted[1], adapted[2]);  // agreement preserved
  std::map<util::ProcessId, std::uint64_t> next_seq;
  for (const auto& [origin, seq] : adapted[1]) {
    auto [it, inserted] = next_seq.try_emplace(origin, 0);
    EXPECT_EQ(seq, it->second);
    it->second = seq + 1;
  }
}

}  // namespace
}  // namespace modcast::core
