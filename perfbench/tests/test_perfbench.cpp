// Tests of the benchmark itself: the contract gate, span self time,
// passivity of the traced run, and seed handling.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>

#include "gate.hpp"
#include "runs.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

GateInput three_logs(std::vector<DeliveryLog> logs) {
  GateInput in;
  in.logs = std::move(logs);
  in.abcast_seqs = {{0, 1, 2}, {0, 1}, {}};
  in.check_agreement = true;
  return in;
}

TEST(Gate, AcceptsPrefixCompatibleLogs) {
  const DeliveryLog full = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  const DeliveryLog prefix(full.begin(), full.begin() + 2);
  auto in = three_logs({full, prefix, full});
  in.correct = {true, false, true};  // the short log belongs to a crashed one
  EXPECT_EQ(check_contract(in), "");
}

TEST(Gate, RejectsDuplicatedLog) {
  auto in = three_logs({{{0, 0}, {1, 0}, {0, 0}}, {{0, 0}, {1, 0}}, {}});
  in.check_agreement = false;
  EXPECT_NE(check_contract(in).find("twice"), std::string::npos);
}

TEST(Gate, RejectsReorderedLog) {
  auto in = three_logs({{{0, 0}, {1, 0}, {0, 1}}, {{1, 0}, {0, 0}, {0, 1}}, {}});
  in.check_agreement = false;
  EXPECT_NE(check_contract(in).find("total order"), std::string::npos);
}

TEST(Gate, RejectsMessageNeverAbcast) {
  auto in = three_logs({{{0, 0}, {2, 0}}, {}, {}});
  in.check_agreement = false;
  EXPECT_NE(check_contract(in).find("never abcast"), std::string::npos);
}

TEST(Gate, RejectsDisagreementAmongCorrect) {
  auto in = three_logs({{{0, 0}, {1, 0}}, {{0, 0}}, {{0, 0}, {1, 0}}});
  EXPECT_NE(check_contract(in).find("agreement"), std::string::npos);
}

TEST(Spans, SelfTimeSubtractsChildrenAndOwnTimeOnlyForeignOnes) {
  // stack.on_message [0,100) > consensus [10,60) > runtime.send [20,30)
  //                          > app.deliver [70,90)
  std::vector<Span> buf(4);
  buf[0] = {0, 100, 0, kNoSpan, kNoOrigin, SpanKind::kStackOnMessage};
  buf[1] = {10, 60, 0, 0, kNoOrigin, SpanKind::kModConsensus};
  buf[2] = {20, 30, 0, 1, kNoOrigin, SpanKind::kRuntimeSend};
  buf[3] = {70, 90, 0, 0, kNoOrigin, SpanKind::kAppDeliver};
  SpanTotals t;
  spans::reduce_buffer(buf, t);
  EXPECT_EQ(t[SpanKind::kStackOnMessage].total_ns, 100);
  EXPECT_EQ(t[SpanKind::kStackOnMessage].self_ns, 100 - 50 - 20);
  EXPECT_EQ(t[SpanKind::kStackOnMessage].own_ns, 100 - 10 - 20);
  EXPECT_EQ(t[SpanKind::kModConsensus].self_ns, 50 - 10);
  EXPECT_EQ(t[SpanKind::kRuntimeSend].self_ns, 10);
}

TEST(Spans, ModuleSpansCloseOnSendAndResumeAfter) {
  spans::reset();
  spans::set_recording(true);
  {
    spans::Scope outer(SpanKind::kStackOnMessage);
    spans::module_record(SpanKind::kModRbcast);
    { spans::Scope send(SpanKind::kRuntimeSend); }
    spans::module_record(SpanKind::kModConsensus);
  }
  spans::set_recording(false);
  const SpanTotals t = spans::reduce();
  spans::reset();
  EXPECT_EQ(t[SpanKind::kStackOnMessage].count, 1u);
  EXPECT_EQ(t[SpanKind::kRuntimeSend].count, 1u);
  // rbcast before the send, rbcast resumed after it, then consensus.
  EXPECT_EQ(t[SpanKind::kModRbcast].count, 2u);
  EXPECT_EQ(t[SpanKind::kModConsensus].count, 1u);
}

// Passivity: the traced run reproduces the untraced run's virtual metrics,
// counts and delivery digests exactly, on every simulator workload.
TEST(Passivity, TracedRunsReproduceUntracedRuns) {
  for (const auto& w : all_workloads()) {
    if (w.threads) continue;
    for (auto kind : {core::StackKind::kModular, core::StackKind::kMonolithic}) {
      SCOPED_TRACE(w.name + " " + core::to_string(kind));
      const StackRun u = run_workload(w, {kind, 7, false});
      const StackRun t = run_workload(w, {kind, 7, true});
      EXPECT_EQ(u.violation, "");
      EXPECT_EQ(u.fingerprint(), t.fingerprint());
      EXPECT_GT(t.spans.spans, 0u);
      EXPECT_EQ(u.spans.spans, 0u);
    }
  }
}

// The fingerprint the passivity check compares sees a probe that changes
// virtual CPU: dropping the module-crossing charge (what a decorator that
// failed to forward charge_cpu would do) changes it.
TEST(Passivity, FingerprintDetectsLostCpuCharges) {
  WorkloadSpec w = *find_workload("paper-16k");
  w.measure = util::seconds(2);
  const StackRun base = run_workload(w, {core::StackKind::kModular, 3, false});
  w.stack.module_crossing_cost = 0;
  const StackRun lost = run_workload(w, {core::StackKind::kModular, 3, false});
  EXPECT_NE(base.fingerprint(), lost.fingerprint());
}

double bound_of(const std::string& metric) {
  std::ifstream f(PERFBENCH_SPEC);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const std::regex re("\"name\":\\s*\"" + std::regex_replace(metric, std::regex("\\."), "\\.") +
                      "\"[^}]*\"bound\":\\s*([0-9.]+)");
  std::smatch m;
  if (!std::regex_search(text, m, re)) return -1.0;
  return std::stod(m[1]);
}

TEST(Seeds, SameSeedRepeatsAndAnotherSeedDiffersWithinBounds) {
  for (const std::string name : {"paper-16k", "small-n33"}) {
    const WorkloadSpec w = *find_workload(name);
    for (auto kind : {core::StackKind::kModular, core::StackKind::kMonolithic}) {
      SCOPED_TRACE(name + " " + core::to_string(kind));
      const StackRun a = run_workload(w, {kind, 11, false});
      const StackRun b = run_workload(w, {kind, 11, false});
      const StackRun c = run_workload(w, {kind, 12, false});
      EXPECT_EQ(a.fingerprint(), b.fingerprint());
      EXPECT_EQ(a.counts, b.counts);
      EXPECT_NE(a.digests, c.digests);
      const std::string s = std::string(".") + core::to_string(kind);
      const std::pair<std::string, double> virt[] = {
          {"latency_p50_ms", percentile(a.latencies_ms, 50) / percentile(c.latencies_ms, 50)},
          {"latency_p99_ms", percentile(a.latencies_ms, 99) / percentile(c.latencies_ms, 99)},
          {"throughput", a.throughput / c.throughput}};
      for (const auto& [metric, ratio] : virt) {
        const double bound = bound_of(metric + s);
        ASSERT_GT(bound, 0.0) << metric + s << " has no bound in BENCHMARK.json";
        EXPECT_LE(std::abs(ratio - 1.0), bound) << metric + s;
      }
    }
  }
}

TEST(Threads, ShortRunPassesTheGate) {
  WorkloadSpec w = *find_workload("threads-n3");
  w.warmup = util::milliseconds(50);
  w.measure = util::milliseconds(200);
  for (auto kind : {core::StackKind::kModular, core::StackKind::kMonolithic}) {
    const StackRun r = run_workload(w, {kind, 5, true});
    EXPECT_EQ(r.violation, "");
    EXPECT_EQ(r.ops_failed(), 0u);
    EXPECT_GT(r.unique_in_window, 0u);
    EXPECT_GT(r.spans[SpanKind::kRuntimePost].count, 0u);
  }
}

}  // namespace
}  // namespace perfbench
