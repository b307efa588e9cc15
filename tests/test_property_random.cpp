// Property-based tests: randomized workloads and fault schedules.
//
// For every (stack, group size, seed) combination we generate a random
// workload, inject a random fault schedule (crashes up to the tolerated
// maximum, false suspicions, transient link delays), run to quiescence, and
// check the atomic broadcast contract on the full delivery logs:
//   * uniform integrity   — no duplicates, no creation,
//   * uniform total order — pairwise prefix-compatible logs,
//   * uniform agreement   — identical logs at correct processes,
//   * validity            — messages admitted by correct processes are
//                           delivered.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "core/fifo_order.hpp"
#include "core/sim_group.hpp"
#include "util/rng.hpp"

namespace modcast::core {
namespace {

using util::milliseconds;
using util::seconds;

struct Scenario {
  StackKind kind;
  std::size_t n;
  std::uint64_t seed;
  bool with_crashes;
  bool with_false_suspicions;
  bool with_delays;
  /// Monolithic ablation toggles — the §4 optimizations must preserve
  /// correctness in every combination, not just all-on.
  bool opt_combine = true;
  bool opt_piggyback = true;
  bool opt_cheap_decision = true;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const auto& s = info.param;
  std::string name = std::string(to_string(s.kind)) + "_n" +
                     std::to_string(s.n) + "_seed" +
                     std::to_string(s.seed);
  if (s.with_crashes) name += "_crash";
  if (s.with_false_suspicions) name += "_suspect";
  if (s.with_delays) name += "_delay";
  if (!s.opt_combine) name += "_nocombine";
  if (!s.opt_piggyback) name += "_nopiggyback";
  if (!s.opt_cheap_decision) name += "_nocheapdec";
  return name;
}

class RandomFaultProperty : public ::testing::TestWithParam<Scenario> {};

TEST_P(RandomFaultProperty, AbcastContractHolds) {
  const Scenario& sc = GetParam();
  util::Rng rng(sc.seed * 7919 + sc.n);

  SimGroupConfig cfg;
  cfg.n = sc.n;
  cfg.seed = sc.seed;
  cfg.stack.kind = sc.kind;
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(100);
  cfg.stack.flow.liveness_timeout = milliseconds(150);
  cfg.stack.monolithic.opt_combine = sc.opt_combine;
  cfg.stack.monolithic.opt_piggyback = sc.opt_piggyback;
  cfg.stack.monolithic.opt_cheap_decision = sc.opt_cheap_decision;
  // The online SafetyChecker asserts the same contract incrementally while
  // the run executes — it must agree with the post-hoc log checks below.
  cfg.safety_check = true;
  SimGroup group(cfg);

  // Random workload: each process abcasts 10–40 small messages at random
  // instants within the first 800ms.
  std::vector<std::size_t> sent(sc.n, 0);
  for (util::ProcessId p = 0; p < sc.n; ++p) {
    const auto count = static_cast<std::size_t>(rng.uniform_range(10, 40));
    sent[p] = count;
    for (std::size_t i = 0; i < count; ++i) {
      const auto at = milliseconds(rng.uniform_range(1, 800));
      const auto size = static_cast<std::size_t>(rng.uniform_range(8, 256));
      group.world().simulator().at(at, [&group, p, size] {
        if (!group.crashed(p)) group.process(p).abcast(util::Bytes(size, 1));
      });
    }
  }

  // Random crash schedule: up to ⌊(n−1)/2⌋ crashes (the tolerated maximum).
  std::set<util::ProcessId> crash_set;
  if (sc.with_crashes) {
    const std::size_t max_crashes = (sc.n - 1) / 2;
    const auto crashes =
        static_cast<std::size_t>(rng.uniform(max_crashes + 1));
    while (crash_set.size() < crashes) {
      crash_set.insert(
          static_cast<util::ProcessId>(rng.uniform(sc.n)));
    }
    for (util::ProcessId p : crash_set) {
      group.crash_at(p, milliseconds(rng.uniform_range(5, 1200)));
    }
  }

  // Random false suspicions at alive processes.
  if (sc.with_false_suspicions) {
    const int count = static_cast<int>(rng.uniform_range(2, 8));
    for (int i = 0; i < count; ++i) {
      const auto at = milliseconds(rng.uniform_range(5, 1500));
      const auto accuser =
          static_cast<util::ProcessId>(rng.uniform(sc.n));
      const auto victim =
          static_cast<util::ProcessId>(rng.uniform(sc.n));
      group.world().simulator().at(at, [&group, accuser, victim] {
        if (!group.crashed(accuser)) {
          group.process(accuser).failure_detector().force_suspect(victim);
        }
      });
    }
  }

  // Transient random extra delays (keeps channels quasi-reliable: nothing
  // is lost, only late).
  if (sc.with_delays) {
    auto delay_rng = std::make_shared<util::Rng>(rng.split());
    group.world().network().set_extra_delay(
        [delay_rng](util::ProcessId, util::ProcessId, std::size_t) {
          return delay_rng->chance(0.05)
                     ? milliseconds(
                           delay_rng->uniform_range(1, 40))
                     : 0;
        });
  }

  group.start();
  group.run_until(seconds(12));

  auto check = check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << scenario_name({GetParam(), 0}) << ": "
                        << check.detail;

  // Online invariants: the incremental checker saw every delivery as it
  // happened and must report a clean run (agreement, total order, validity,
  // integrity) with no liveness stall.
  const auto safety = group.safety_report();
  EXPECT_TRUE(safety.ok) << scenario_name({GetParam(), 0});
  for (const auto& v : safety.violations) ADD_FAILURE() << "safety: " << v;
  for (const auto& s : safety.stalls) ADD_FAILURE() << "stall: " << s;
  EXPECT_GT(safety.deliveries_checked, 0u);
  EXPECT_GT(safety.committed, 0u);

  // No creation: everything delivered was actually abcast.
  for (util::ProcessId p = 0; p < sc.n; ++p) {
    for (const auto& d : group.deliveries(p)) {
      ASSERT_LT(d.origin, sc.n);
      ASSERT_LT(d.seq, sent[d.origin]);
    }
  }

  // Per-origin ordering. The modular stack provides FIFO structurally
  // (diffusion to everyone over FIFO channels + in-order pooling); the
  // monolithic stack can reorder under recovery (a piggybacked message dies
  // with the coordinator and resurfaces later), so there the FifoOrderAdapter
  // must restore FIFO without breaking agreement.
  if (sc.kind == StackKind::kModular) {
    for (util::ProcessId p = 0; p < sc.n; ++p) {
      std::map<util::ProcessId, std::uint64_t> next_seq;
      for (const auto& d : group.deliveries(p)) {
        auto [it, inserted] = next_seq.try_emplace(d.origin, 0);
        EXPECT_EQ(d.seq, it->second)
            << "FIFO violation at process " << p << " for origin "
            << d.origin;
        it->second = d.seq + 1;
      }
    }
  } else {
    std::vector<std::vector<std::pair<util::ProcessId, std::uint64_t>>>
        adapted(sc.n);
    for (util::ProcessId p = 0; p < sc.n; ++p) {
      FifoOrderAdapter adapter(
          [&adapted, p](util::ProcessId origin, std::uint64_t seq,
                        const util::Bytes&) {
            adapted[p].emplace_back(origin, seq);
          });
      for (const auto& d : group.deliveries(p)) {
        adapter.on_deliver(d.origin, d.seq, util::Bytes{});
      }
    }
    util::ProcessId ref = 0;
    while (ref < sc.n && group.crashed(ref)) ++ref;
    for (util::ProcessId p = 0; p < sc.n; ++p) {
      if (group.crashed(p)) continue;
      EXPECT_EQ(adapted[p], adapted[ref])
          << "adapted logs diverge at process " << p;
      std::map<util::ProcessId, std::uint64_t> next_seq;
      for (const auto& [origin, seq] : adapted[p]) {
        auto [it, inserted] = next_seq.try_emplace(origin, 0);
        EXPECT_EQ(seq, it->second) << "adapter failed FIFO at " << p;
        it->second = seq + 1;
      }
    }
  }

  // Validity: every message admitted by a correct process is delivered at
  // every correct process. (Queued-but-never-admitted messages of crashed
  // processes are exempt; correct processes drain their queues.)
  util::ProcessId correct = 0;
  while (correct < sc.n && group.crashed(correct)) ++correct;
  ASSERT_LT(correct, sc.n) << "scenario crashed every process";
  std::set<std::pair<util::ProcessId, std::uint64_t>> delivered;
  for (const auto& d : group.deliveries(correct)) {
    delivered.insert({d.origin, d.seq});
  }
  for (util::ProcessId p = 0; p < sc.n; ++p) {
    if (group.crashed(p)) continue;
    EXPECT_EQ(group.process(p).queued(), 0u)
        << "correct process " << p << " still has queued messages";
    const auto admitted = group.process(p).stats().admitted;
    EXPECT_EQ(admitted, sent[p]) << "process " << p;
    for (std::uint64_t s = 0; s < admitted; ++s) {
      EXPECT_TRUE(delivered.count({p, s}) != 0)
          << "message (" << p << "," << s << ") from a correct sender lost";
    }
  }
}

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> out;
  for (StackKind kind : {StackKind::kModular, StackKind::kMonolithic}) {
    for (std::size_t n : {3ul, 4ul, 5ul, 7ul}) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        out.push_back({kind, n, seed, true, true, true});
      }
      // Fault-dimension isolation at one seed each.
      out.push_back({kind, n, 11, true, false, false});
      out.push_back({kind, n, 12, false, true, false});
      out.push_back({kind, n, 13, false, false, true});
      out.push_back({kind, n, 14, false, false, false});
    }
  }
  // Every monolithic ablation variant must survive the full fault mix: the
  // §4 optimizations are only acceptable if their fallbacks are correct in
  // bad runs, individually and in combination.
  for (std::size_t n : {3ul, 5ul}) {
    for (std::uint64_t seed : {21ull, 22ull}) {
      Scenario base{StackKind::kMonolithic, n, seed, true, true, true};
      Scenario no_combine = base;
      no_combine.opt_combine = false;
      Scenario no_piggyback = base;
      no_piggyback.opt_piggyback = false;
      Scenario no_cheap = base;
      no_cheap.opt_cheap_decision = false;
      Scenario all_off = base;
      all_off.opt_combine = false;
      all_off.opt_piggyback = false;
      all_off.opt_cheap_decision = false;
      out.insert(out.end(),
                 {no_combine, no_piggyback, no_cheap, all_off});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Random, RandomFaultProperty,
                         ::testing::ValuesIn(make_scenarios()),
                         scenario_name);

}  // namespace
}  // namespace modcast::core
