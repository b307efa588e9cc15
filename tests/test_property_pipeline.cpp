// Property-based tests: k-deep pipelined (and batched) runs under faults.
//
// Pipelining lets instance i+1 start while up to k instances are undecided,
// so decisions can ARRIVE out of instance order; the stacks must buffer them
// and release deliveries strictly in instance order. For every (stack, depth,
// batching, n, seed) scenario we run a randomized workload with crashes,
// false suspicions, and transient delays, then check on the full logs:
//   * the atomic broadcast contract (agreement among correct processes and
//     the online SafetyChecker's incremental verdict),
//   * no creation and no gaps — each correct origin's messages 0..sent-1 are
//     all delivered, nothing else is,
//   * the pipeline actually engaged (max in-flight instances >= 2 somewhere)
//     and never exceeded the configured depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/sim_group.hpp"
#include "util/rng.hpp"

namespace modcast::core {
namespace {

using util::milliseconds;
using util::seconds;

struct Scenario {
  StackKind kind;
  std::size_t depth;
  bool batched;
  std::size_t n;
  std::uint64_t seed;
  bool with_crashes;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const auto& s = info.param;
  std::string name = std::string(to_string(s.kind)) + "_d" +
                     std::to_string(s.depth) + "_n" + std::to_string(s.n) +
                     "_seed" + std::to_string(s.seed);
  if (s.batched) name += "_batched";
  if (s.with_crashes) name += "_crash";
  return name;
}

class PipelineProperty : public ::testing::TestWithParam<Scenario> {};

TEST_P(PipelineProperty, OrderedReleaseUnderOutOfOrderDecisions) {
  const Scenario& sc = GetParam();
  util::Rng rng(sc.seed * 6271 + sc.depth * 31 + sc.n);

  SimGroupConfig cfg;
  cfg.n = sc.n;
  cfg.seed = sc.seed;
  cfg.stack.kind = sc.kind;
  cfg.stack.flow.pipeline_depth = sc.depth;
  cfg.stack.flow.window = 8;
  if (sc.batched) {
    cfg.stack.flow.max_batch = 4;
    cfg.stack.flow.batch_delay = util::microseconds(200);
  } else {
    cfg.stack.flow.max_batch = 1;  // one message per instance: most instances
  }
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(100);
  cfg.stack.flow.liveness_timeout = milliseconds(150);
  cfg.safety_check = true;
  SimGroup group(cfg);

  // Dense workload so the admitted backlog keeps the pipeline full: each
  // process abcasts 40-80 small messages inside the first 600ms.
  std::vector<std::size_t> sent(sc.n, 0);
  for (util::ProcessId p = 0; p < sc.n; ++p) {
    const auto count = static_cast<std::size_t>(rng.uniform_range(40, 80));
    sent[p] = count;
    for (std::size_t i = 0; i < count; ++i) {
      const auto at = milliseconds(rng.uniform_range(1, 600));
      const auto size = static_cast<std::size_t>(rng.uniform_range(8, 128));
      group.world().simulator().at(at, [&group, p, size] {
        if (!group.crashed(p)) group.process(p).abcast(util::Bytes(size, 1));
      });
    }
  }

  // Transient extra delays reorder decision arrivals across instances — the
  // very case the ordered-release buffering exists for.
  auto delay_rng = std::make_shared<util::Rng>(rng.split());
  group.world().network().set_extra_delay(
      [delay_rng](util::ProcessId, util::ProcessId, std::size_t) {
        return delay_rng->chance(0.08)
                   ? milliseconds(delay_rng->uniform_range(1, 30))
                   : 0;
      });

  // Random false suspicions plus (optionally) up to f crash-stops, all
  // landing while instances are in flight.
  std::set<util::ProcessId> crash_set;
  if (sc.with_crashes) {
    const std::size_t max_crashes = (sc.n - 1) / 2;
    const auto crashes =
        static_cast<std::size_t>(rng.uniform(max_crashes + 1));
    while (crash_set.size() < crashes) {
      crash_set.insert(static_cast<util::ProcessId>(rng.uniform(sc.n)));
    }
    for (util::ProcessId p : crash_set) {
      group.crash_at(p, milliseconds(rng.uniform_range(50, 900)));
    }
  }
  const int suspicions = static_cast<int>(rng.uniform_range(1, 5));
  for (int i = 0; i < suspicions; ++i) {
    const auto at = milliseconds(rng.uniform_range(5, 1200));
    const auto accuser = static_cast<util::ProcessId>(rng.uniform(sc.n));
    const auto victim = static_cast<util::ProcessId>(rng.uniform(sc.n));
    group.world().simulator().at(at, [&group, accuser, victim] {
      if (!group.crashed(accuser)) {
        group.process(accuser).failure_detector().force_suspect(victim);
      }
    });
  }

  group.start();
  group.run_until(seconds(12));

  auto check = check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;

  const auto safety = group.safety_report();
  EXPECT_TRUE(safety.ok);
  for (const auto& v : safety.violations) ADD_FAILURE() << "safety: " << v;
  for (const auto& s : safety.stalls) ADD_FAILURE() << "stall: " << s;
  EXPECT_GT(safety.committed, 0u);

  // No creation, and no gaps: at each correct process the delivered set per
  // correct origin is exactly {0, ..., sent-1}. A decision released before
  // an earlier instance's would surface here as a (transient) gap in seq.
  for (util::ProcessId p = 0; p < sc.n; ++p) {
    if (group.crashed(p)) continue;
    std::set<std::pair<util::ProcessId, std::uint64_t>> delivered;
    for (const auto& d : group.deliveries(p)) {
      ASSERT_LT(d.origin, sc.n);
      ASSERT_LT(d.seq, sent[d.origin]);
      EXPECT_TRUE(delivered.insert({d.origin, d.seq}).second)
          << "duplicate delivery at " << p;
    }
    for (util::ProcessId o = 0; o < sc.n; ++o) {
      if (group.crashed(o)) continue;
      EXPECT_EQ(group.process(o).stats().admitted, sent[o]);
      for (std::uint64_t s = 0; s < sent[o]; ++s) {
        EXPECT_TRUE(delivered.count({o, s}) != 0)
            << "gap: (" << o << "," << s << ") missing at " << p;
      }
    }
  }

  // The pipeline must have engaged (somewhere, before any crash) and must
  // never exceed its configured depth.
  std::uint64_t max_inflight = 0;
  for (util::ProcessId p = 0; p < sc.n; ++p) {
    auto& proc = group.process(p);
    const std::uint64_t seen = proc.flow().stats().max_inflight_instances;
    max_inflight = std::max(max_inflight, seen);
    EXPECT_LE(seen, sc.depth) << "process " << p << " exceeded the gate";
  }
  EXPECT_GE(max_inflight, 2u) << "pipeline never engaged; weak scenario";
}

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> out;
  for (StackKind kind : {StackKind::kModular, StackKind::kMonolithic}) {
    for (std::size_t depth : {2ul, 4ul, 8ul}) {
      for (std::size_t n : {3ul, 5ul}) {
        out.push_back({kind, depth, false, n, 1, true});
        out.push_back({kind, depth, false, n, 2, false});
      }
      // Batching and pipelining together, at one group size per depth.
      out.push_back({kind, depth, true, 3, 3, true});
      out.push_back({kind, depth, true, 5, 4, false});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Pipelined, PipelineProperty,
                         ::testing::ValuesIn(make_scenarios()),
                         scenario_name);

}  // namespace
}  // namespace modcast::core
