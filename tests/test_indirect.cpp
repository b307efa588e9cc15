// Tests: indirect consensus extension ([12], Ekwall & Schiper DSN'06).
//
// The modular stack with indirect_consensus agrees on message *ids*;
// payloads travel only via diffusion, with pull-based recovery and the
// extended consensus specification (proposal validation) guaranteeing that
// a decided id is always resolvable at a majority.
#include <gtest/gtest.h>

#include <set>

#include "core/sim_group.hpp"
#include "util/rng.hpp"
#include "workload/experiment.hpp"

namespace modcast::abcast {
namespace {

using util::milliseconds;
using util::seconds;

core::SimGroupConfig indirect_config(std::size_t n, std::uint64_t seed = 1) {
  core::SimGroupConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.stack.kind = core::StackKind::kModular;
  cfg.stack.modular.indirect_consensus = true;
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(100);
  cfg.stack.flow.liveness_timeout = milliseconds(150);
  return cfg;
}

void feed(core::SimGroup& g, util::ProcessId p, int count,
          util::Duration start, util::Duration gap, std::size_t size = 64) {
  for (int i = 0; i < count; ++i) {
    g.world().simulator().at(start + i * gap, [&g, p, size] {
      if (!g.crashed(p)) g.process(p).abcast(util::Bytes(size, 0x77));
    });
  }
}

class IndirectGroupSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IndirectGroupSizes, TotalOrderAndAgreementUnderLoad) {
  const std::size_t n = GetParam();
  core::SimGroup group(indirect_config(n));
  group.start();
  for (util::ProcessId p = 0; p < n; ++p) {
    feed(group, p, 30, milliseconds(1 + p), milliseconds(7));
  }
  group.run_until(seconds(5));
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
  EXPECT_EQ(group.deliveries(0).size(), 30u * n);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, IndirectGroupSizes,
                         ::testing::Values(3, 5, 7));

TEST(Indirect, PayloadsDeliveredIntact) {
  core::SimGroupConfig cfg = indirect_config(3);
  cfg.record_payloads = true;
  core::SimGroup group(cfg);
  group.start();
  group.world().simulator().at(milliseconds(1), [&] {
    group.process(1).abcast(util::Bytes{'x', 'y', 'z'});
  });
  group.run_until(seconds(1));
  for (util::ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(group.payloads(p).size(), 1u) << "process " << p;
    EXPECT_EQ(group.payloads(p)[0], (util::Bytes{'x', 'y', 'z'}));
  }
}

TEST(Indirect, ConsensusTrafficCarriesIdsNotPayloads) {
  // With 8 KiB messages, consensus wire bytes must stay tiny (ids + tags),
  // while in the standard modular stack proposals carry full payloads.
  auto consensus_bytes = [](bool indirect) {
    core::SimGroupConfig cfg = indirect_config(3);
    cfg.stack.modular.indirect_consensus = indirect;
    core::SimGroup group(cfg);
    group.start();
    feed(group, 0, 10, milliseconds(1), milliseconds(5), 8192);
    group.run_until(seconds(2));
    EXPECT_EQ(group.deliveries(2).size(), 10u);
    std::uint64_t bytes = 0;
    for (util::ProcessId p = 0; p < 3; ++p) {
      bytes += group.process(p).stack()
                   .wire_counters(framework::kModConsensus)
                   .bytes_sent;
    }
    return bytes;
  };
  const std::uint64_t indirect = consensus_bytes(true);
  const std::uint64_t full = consensus_bytes(false);
  EXPECT_LT(indirect, 10 * 200);      // ids + headers only
  EXPECT_GT(full, 10 * 8192);         // proposals carried payloads
}

TEST(Indirect, DataVolumeRoughlyHalvesVersusStandardModular) {
  workload::WorkloadConfig wl;
  wl.offered_load = 6000;
  wl.message_size = 8192;
  wl.warmup = seconds(1);
  wl.measure = seconds(2);
  core::StackOptions standard;
  standard.kind = core::StackKind::kModular;
  standard.flow.max_batch = 4;
  standard.flow.window = 4;
  core::StackOptions indirect = standard;
  indirect.modular.indirect_consensus = true;

  auto rs = workload::run_once(3, standard, wl, 1);
  auto ri = workload::run_once(3, indirect, wl, 1);
  ASSERT_GT(ri.instances, 50u);
  // Standard: 2(n−1)M·l (diffusion + proposal). Indirect: (n−1)M·l
  // (diffusion only) + id-sized consensus traffic.
  EXPECT_LT(ri.bytes_per_consensus, rs.bytes_per_consensus * 0.60);
  EXPECT_GT(ri.bytes_per_consensus, rs.bytes_per_consensus * 0.40);
}

TEST(Indirect, LaggardPullsPayloadAfterMissingDiffusion) {
  // p2 misses every diffusion from p0 (link blocked, p0 later crashes so
  // quasi-reliability is not violated). The decided ids force p2 to pull
  // the payloads from p1.
  core::SimGroupConfig cfg = indirect_config(3);
  cfg.record_payloads = true;
  core::SimGroup group(cfg);
  group.world().network().set_link_blocked(0, 2, true);
  group.start();
  group.world().simulator().at(milliseconds(1), [&] {
    group.process(0).abcast(util::Bytes(128, 0xAB));
  });
  group.crash_at(0, milliseconds(50));
  group.run_until(seconds(3));
  ASSERT_EQ(group.deliveries(2).size(), 1u);
  EXPECT_EQ(group.payloads(2)[0], util::Bytes(128, 0xAB));
  EXPECT_GE(group.process(2).modular()->stats().payload_pulls, 1u);
  auto check = core::check_total_order(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(Indirect, ValidatorDefersAckUntilPayloadArrives) {
  // Same topology but keep p0 alive: p2 receives proposals naming ids it
  // cannot resolve; the extended-spec validator must defer (and recover).
  core::SimGroupConfig cfg = indirect_config(3);
  core::SimGroup group(cfg);
  group.world().network().set_link_blocked(0, 2, true);  // diffusion lost
  group.start();
  feed(group, 0, 5, milliseconds(1), milliseconds(10), 64);
  group.run_until(seconds(3));
  // All three deliver despite p2 never seeing p0's diffusion directly.
  EXPECT_EQ(group.deliveries(2).size(), 5u);
  const auto& stats = group.process(2).modular()->stats();
  EXPECT_GE(stats.payload_pulls + stats.validation_deferrals, 1u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(Indirect, CoordinatorCrashRecovery) {
  core::SimGroup group(indirect_config(3));
  group.start();
  feed(group, 1, 10, milliseconds(1), milliseconds(5));
  feed(group, 2, 10, milliseconds(3), milliseconds(5));
  group.crash_at(0, milliseconds(12));
  group.run_until(seconds(5));
  EXPECT_EQ(group.deliveries(1).size(), 20u);
  EXPECT_EQ(group.deliveries(2).size(), 20u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(Indirect, RandomFaultMix) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    util::Rng rng(seed);
    core::SimGroup group(indirect_config(5, seed));
    std::vector<std::size_t> sent(5, 0);
    for (util::ProcessId p = 0; p < 5; ++p) {
      sent[p] = static_cast<std::size_t>(rng.uniform_range(5, 25));
      for (std::size_t i = 0; i < sent[p]; ++i) {
        const auto at = milliseconds(rng.uniform_range(1, 600));
        group.world().simulator().at(at, [&group, p] {
          if (!group.crashed(p)) {
            group.process(p).abcast(util::Bytes(64, 3));
          }
        });
      }
    }
    const auto victim = static_cast<util::ProcessId>(rng.uniform(5));
    group.crash_at(victim, milliseconds(rng.uniform_range(10, 700)));
    group.world().simulator().at(milliseconds(rng.uniform_range(5, 500)),
                                 [&group, &rng] {
                                   // placeholder no-op to vary schedules
                                   (void)rng;
                                 });
    group.start();
    group.run_until(seconds(10));
    auto check = core::check_agreement_among_correct(group);
    EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.detail;
    // Validity for correct senders.
    util::ProcessId correct = 0;
    while (group.crashed(correct)) ++correct;
    std::set<std::pair<util::ProcessId, std::uint64_t>> delivered;
    for (const auto& d : group.deliveries(correct)) {
      delivered.insert({d.origin, d.seq});
    }
    for (util::ProcessId p = 0; p < 5; ++p) {
      if (group.crashed(p)) continue;
      for (std::uint64_t s = 0; s < group.process(p).stats().admitted; ++s) {
        EXPECT_TRUE(delivered.count({p, s}) != 0)
            << "seed " << seed << ": lost (" << p << "," << s << ")";
      }
    }
  }
}

}  // namespace
}  // namespace modcast::abcast
