// Trace-derived metrics must reproduce the §5.2 analytical model EXACTLY on
// drained good runs — the strongest correctness statement the repo makes
// about its message/byte accounting (and about the model implementation:
// each validates the other).
#include <gtest/gtest.h>

#include "analysis/analytical_model.hpp"
#include "workload/validation.hpp"

namespace modcast::workload {
namespace {

ValidationConfig config_for(std::size_t n, core::StackKind kind) {
  ValidationConfig cfg;
  cfg.n = n;
  cfg.stack.kind = kind;
  cfg.messages_per_process = 8;
  cfg.message_size = 1024;
  return cfg;
}

class MetricsVsModel : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MetricsVsModel, ModularMatchesModelExactly) {
  const auto r = run_model_validation(
      config_for(GetParam(), core::StackKind::kModular));
  EXPECT_TRUE(r.ok()) << r.describe();
  EXPECT_EQ(r.check.measured_messages, r.check.expected_messages);
  EXPECT_EQ(r.check.measured_app_bytes, r.check.expected_app_bytes);
  // The double-valued data model agrees with the integer identity.
  EXPECT_NEAR(static_cast<double>(r.check.measured_app_bytes),
              r.check.model_bytes, 0.5);
}

TEST_P(MetricsVsModel, MonolithicMatchesModelExactly) {
  const auto r = run_model_validation(
      config_for(GetParam(), core::StackKind::kMonolithic));
  EXPECT_TRUE(r.ok()) << r.describe();
  EXPECT_EQ(r.standalone_tags, 1u) << "a drained run closes with one tag";
  EXPECT_NEAR(static_cast<double>(r.check.measured_app_bytes),
              r.check.model_bytes, 0.5);
}

TEST_P(MetricsVsModel, ModularCostsMoreBytesThanMonolithic) {
  const std::size_t n = GetParam();
  const auto mod =
      run_model_validation(config_for(n, core::StackKind::kModular));
  const auto mono =
      run_model_validation(config_for(n, core::StackKind::kMonolithic));
  ASSERT_TRUE(mod.ok()) << mod.describe();
  ASSERT_TRUE(mono.ok()) << mono.describe();
  // §5.2.2: same workload, the modular stack moves (n−1)/(n+1) more app
  // bytes. Same T on both sides makes the totals directly comparable.
  ASSERT_EQ(mod.total_messages, mono.total_messages);
  EXPECT_GT(mod.check.measured_app_bytes, mono.check.measured_app_bytes);
  const double measured_overhead =
      (static_cast<double>(mod.check.measured_app_bytes) -
       static_cast<double>(mono.check.measured_app_bytes)) /
      static_cast<double>(mono.check.measured_app_bytes);
  EXPECT_NEAR(measured_overhead, analysis::modularity_data_overhead(n), 1e-9);
}

// Batching and pipelining must not disturb the exact §5.2 accounting: the
// per-instance identities are invariant, only how T distributes over the I
// instances changes. Every batched/pipelined drained run still matches the
// model EXACTLY, and the run-level closed forms agree with the measurement.

TEST_P(MetricsVsModel, ModularBatchedMatchesModelExactly) {
  auto cfg = config_for(GetParam(), core::StackKind::kModular);
  cfg.messages_per_process = 16;
  cfg.stack.flow.window = 8;
  cfg.stack.flow.max_batch = 16;
  cfg.stack.flow.batch_delay = util::milliseconds(2);
  const auto r = run_model_validation(cfg);
  EXPECT_TRUE(r.ok()) << r.describe();
  EXPECT_EQ(r.check.measured_messages,
            analysis::modular_messages_per_run(GetParam(), r.total_messages,
                                               r.instances));
  EXPECT_NEAR(static_cast<double>(r.check.measured_app_bytes),
              analysis::modular_data_per_run(GetParam(), r.total_messages,
                                             1024.0),
              0.5);
  // The δ-window actually aggregated: fewer instances than messages.
  EXPECT_LT(r.instances, r.total_messages);
}

TEST_P(MetricsVsModel, MonolithicBatchedBytesTriggerMatchesModelExactly) {
  auto cfg = config_for(GetParam(), core::StackKind::kMonolithic);
  cfg.messages_per_process = 16;
  cfg.stack.flow.window = 8;
  cfg.stack.flow.max_batch = 64;          // count cap out of the way:
  cfg.stack.flow.batch_bytes = 4 * 1024;  // the byte threshold closes batches
  cfg.stack.flow.batch_delay = util::milliseconds(2);
  const auto r = run_model_validation(cfg);
  EXPECT_TRUE(r.ok()) << r.describe();
  EXPECT_EQ(r.check.measured_messages,
            analysis::monolithic_messages_per_run(GetParam(), r.instances,
                                                  r.standalone_tags));
  EXPECT_NEAR(static_cast<double>(r.check.measured_app_bytes),
              analysis::monolithic_data_per_run(GetParam(), r.total_messages,
                                                1024.0),
              0.5);
  EXPECT_LT(r.instances, r.total_messages);
}

TEST_P(MetricsVsModel, ModularPipelinedMatchesModelExactly) {
  auto cfg = config_for(GetParam(), core::StackKind::kModular);
  cfg.messages_per_process = 16;
  cfg.stack.flow.window = 16;
  cfg.stack.flow.pipeline_depth = 4;
  const auto r = run_model_validation(cfg);
  EXPECT_TRUE(r.ok()) << r.describe();
  EXPECT_EQ(r.check.measured_messages,
            analysis::modular_messages_per_run(GetParam(), r.total_messages,
                                               r.instances));
}

TEST_P(MetricsVsModel, MonolithicPipelinedDrainsWithPredictedTags) {
  auto cfg = config_for(GetParam(), core::StackKind::kMonolithic);
  cfg.messages_per_process = 16;
  cfg.stack.flow.window = 16;
  cfg.stack.flow.pipeline_depth = 4;
  const auto r = run_model_validation(cfg);
  EXPECT_TRUE(r.ok()) << r.describe();
  // A drained saturated run closes with min(depth, I) standalone tags: the
  // final in-flight decisions find no next proposal to ride.
  EXPECT_EQ(r.standalone_tags,
            analysis::monolithic_drain_tags(r.instances, 4));
}

TEST_P(MetricsVsModel, BatchedPipelinedBothStacksMatchModelExactly) {
  for (const auto kind :
       {core::StackKind::kModular, core::StackKind::kMonolithic}) {
    auto cfg = config_for(GetParam(), kind);
    cfg.messages_per_process = 24;
    cfg.stack.flow.window = 12;
    cfg.stack.flow.max_batch = 8;
    cfg.stack.flow.batch_delay = util::milliseconds(1);
    cfg.stack.flow.pipeline_depth = 2;
    const auto r = run_model_validation(cfg);
    EXPECT_TRUE(r.ok()) << core::to_string(kind) << ": " << r.describe();
  }
}

TEST_P(MetricsVsModel, SameSeedSameMetrics) {
  const auto cfg = config_for(GetParam(), core::StackKind::kModular);
  const auto a = run_model_validation(cfg);
  const auto b = run_model_validation(cfg);
  EXPECT_TRUE(a.metrics == b.metrics) << "metrics must be seed-deterministic";
  EXPECT_EQ(a.metrics.to_jsonl("x"), b.metrics.to_jsonl("x"));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, MetricsVsModel,
                         ::testing::Values(3u, 5u, 7u));

// The scalability sweep leans on the model far outside the paper's n ∈
// {3,7}: pin the EXACT identity at the sweep's mid/large points. Fewer
// messages per process than the small-n suite — the identities are
// per-instance, so a short drained run proves as much as a long one.
TEST(MetricsVsModelLargeGroups, ExactAtSweepSizes) {
  for (const std::size_t n : {33u, 65u}) {
    for (const auto kind :
         {core::StackKind::kModular, core::StackKind::kMonolithic}) {
      auto cfg = config_for(n, kind);
      cfg.messages_per_process = 2;
      const auto r = run_model_validation(cfg);
      EXPECT_TRUE(r.ok()) << "n=" << n << " " << core::to_string(kind) << ": "
                          << r.describe();
      EXPECT_EQ(r.check.measured_messages, r.check.expected_messages);
      EXPECT_EQ(r.check.measured_app_bytes, r.check.expected_app_bytes);
      EXPECT_NEAR(static_cast<double>(r.check.measured_app_bytes),
                  r.check.model_bytes, 0.5);
    }
  }
}

}  // namespace
}  // namespace modcast::workload
