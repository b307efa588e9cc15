// Cross-stack tests: the modular and monolithic implementations must offer
// identical client-observable semantics, while their wire footprints differ
// exactly the way §5.2 predicts.
#include <gtest/gtest.h>

#include <set>

#include "analysis/analytical_model.hpp"
#include "core/sim_group.hpp"
#include "workload/experiment.hpp"

namespace modcast::core {
namespace {

using util::milliseconds;
using util::seconds;

SimGroupConfig config_for(StackKind kind, std::size_t n,
                          std::uint64_t seed = 1) {
  SimGroupConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.stack.kind = kind;
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(100);
  cfg.stack.flow.liveness_timeout = milliseconds(150);
  return cfg;
}

void feed_all(SimGroup& g, int per_process, util::Duration gap,
              std::size_t size = 64) {
  for (util::ProcessId p = 0; p < g.size(); ++p) {
    for (int i = 0; i < per_process; ++i) {
      g.world().simulator().at(milliseconds(1 + p) + i * gap,
                               [&g, p, size] {
                                 if (!g.crashed(p)) {
                                   g.process(p).abcast(
                                       util::Bytes(size, 0x5a));
                                 }
                               });
    }
  }
}

std::set<std::pair<util::ProcessId, std::uint64_t>> delivered_set(
    const SimGroup& g, util::ProcessId p) {
  std::set<std::pair<util::ProcessId, std::uint64_t>> s;
  for (const auto& d : g.deliveries(p)) s.insert({d.origin, d.seq});
  return s;
}

class StackParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StackParity, SameWorkloadSameDeliveredSet) {
  const std::size_t n = GetParam();
  SimGroup mod(config_for(StackKind::kModular, n));
  SimGroup mono(config_for(StackKind::kMonolithic, n));
  for (auto* g : {&mod, &mono}) {
    g->start();
    feed_all(*g, 25, milliseconds(6));
    g->run_until(seconds(5));
    auto check = check_agreement_among_correct(*g);
    EXPECT_TRUE(check.ok) << check.detail;
  }
  // Identical delivered sets (order may legitimately differ across stacks).
  EXPECT_EQ(delivered_set(mod, 0), delivered_set(mono, 0));
  EXPECT_EQ(delivered_set(mod, 0).size(), 25u * n);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, StackParity, ::testing::Values(3, 5, 7));

// §5.2.1 and §5.2.2 at once: drive both stacks to saturation with the
// paper's M = 4 and compare measured per-consensus messages and bytes with
// the closed forms.
class AnalyticalAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AnalyticalAgreement, MeasuredTrafficMatchesClosedForms) {
  const std::size_t n = GetParam();
  const std::size_t l = 1024;
  workload::WorkloadConfig wl;
  wl.offered_load = 6000;  // far above saturation: M pinned at the cap
  wl.message_size = l;
  wl.warmup = seconds(2);
  wl.measure = seconds(3);

  StackOptions modular;
  modular.kind = StackKind::kModular;
  modular.flow.max_batch = 4;
  modular.flow.window = 4;
  StackOptions mono = modular;
  mono.kind = StackKind::kMonolithic;

  auto rm = workload::run_once(n, modular, wl, 1);
  auto rn = workload::run_once(n, mono, wl, 1);

  ASSERT_GT(rm.instances, 100u);
  ASSERT_GT(rn.instances, 100u);
  EXPECT_NEAR(rm.avg_batch, 4.0, 0.25);
  EXPECT_NEAR(rn.avg_batch, 4.0, 0.25);

  const double exp_mod_msgs = static_cast<double>(
      analysis::modular_messages_per_consensus(n, 4));
  const double exp_mono_msgs = static_cast<double>(
      analysis::monolithic_messages_per_consensus(n));
  EXPECT_NEAR(rm.msgs_per_consensus, exp_mod_msgs, exp_mod_msgs * 0.10);
  EXPECT_NEAR(rn.msgs_per_consensus, exp_mono_msgs, exp_mono_msgs * 0.10);

  // Bytes: headers make measured slightly exceed payload-only closed forms;
  // 10% covers them at l = 1024.
  const double exp_mod_bytes =
      analysis::modular_data_per_consensus(n, 4, static_cast<double>(l));
  const double exp_mono_bytes =
      analysis::monolithic_data_per_consensus(n, 4, static_cast<double>(l));
  EXPECT_NEAR(rm.bytes_per_consensus, exp_mod_bytes, exp_mod_bytes * 0.10);
  EXPECT_NEAR(rn.bytes_per_consensus, exp_mono_bytes, exp_mono_bytes * 0.10);

  // The headline ratio: modular sends (n−1)/(n+1) more data.
  const double measured_overhead =
      (rm.bytes_per_consensus - rn.bytes_per_consensus) /
      rn.bytes_per_consensus;
  EXPECT_NEAR(measured_overhead, analysis::modularity_data_overhead(n), 0.12);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, AnalyticalAgreement,
                         ::testing::Values(3, 5, 7));

// The paper's qualitative experimental findings, as regression assertions.
TEST(StackComparison, MonolithicWinsLatencyAndThroughputAtHighLoad) {
  workload::WorkloadConfig wl;
  wl.offered_load = 4000;
  wl.message_size = 16384;
  wl.warmup = seconds(2);
  wl.measure = seconds(3);

  StackOptions modular;
  modular.kind = StackKind::kModular;
  StackOptions mono;
  mono.kind = StackKind::kMonolithic;

  for (std::size_t n : {3ul, 7ul}) {
    auto rm = workload::run_once(n, modular, wl, 1);
    auto rn = workload::run_once(n, mono, wl, 1);
    EXPECT_GT(rn.throughput, rm.throughput * 1.10)
        << "monolithic should sustain clearly higher throughput at n=" << n;
    EXPECT_LT(rn.latencies_ms.mean(), rm.latencies_ms.mean() * 0.80)
        << "monolithic should have clearly lower latency at n=" << n;
  }
}

TEST(StackComparison, GapNegligibleAtLowLoad) {
  // "For a low offered load, the difference between both stacks is almost
  // negligible" (§5.3.2) — throughput-wise: both deliver the offered load.
  workload::WorkloadConfig wl;
  wl.offered_load = 300;
  wl.message_size = 1024;
  wl.warmup = seconds(2);
  wl.measure = seconds(3);

  StackOptions modular;
  modular.kind = StackKind::kModular;
  StackOptions mono;
  mono.kind = StackKind::kMonolithic;
  auto rm = workload::run_once(3, modular, wl, 1);
  auto rn = workload::run_once(3, mono, wl, 1);
  EXPECT_NEAR(rm.throughput, 300.0, 15.0);
  EXPECT_NEAR(rn.throughput, 300.0, 15.0);
}

TEST(StackComparison, ModularPaysMoreFrameworkCrossings) {
  // The composition tax itself: per delivered message, the modular stack
  // performs more local event dispatches and wire sends.
  SimGroup mod(config_for(StackKind::kModular, 3));
  SimGroup mono(config_for(StackKind::kMonolithic, 3));
  for (auto* g : {&mod, &mono}) {
    g->start();
    feed_all(*g, 50, milliseconds(4));
    g->run_until(seconds(4));
  }
  ASSERT_EQ(mod.deliveries(0).size(), mono.deliveries(0).size());
  const auto& cm = mod.process(0).stack().counters();
  const auto& cn = mono.process(0).stack().counters();
  EXPECT_GT(cm.local_events, 2 * cn.local_events);
  EXPECT_GT(cm.wire_sends, cn.wire_sends);
}

}  // namespace
}  // namespace modcast::core
