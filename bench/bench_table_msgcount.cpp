// §5.2.1 — Number of messages sent per consensus execution.
//
// Prints the paper's closed-form counts next to counts measured from the
// actual protocol stacks running saturated on the simulator with the
// paper's M = 4 pinned (max_batch = 4, window sized to keep the batch
// full). The worked example: n = 3, M = 4 → modular 16 messages vs
// monolithic 4.
//
// Flags: --n_list=3,5,7 --size=1024 --seeds=N --jobs=N --quick
//        --validate --trace-out=<path.jsonl>
//
// --validate additionally runs the drained-good-run cross-validation: the
// trace-derived per-instance counts must equal the analytical model EXACTLY
// (exit 1 on any mismatch).
#include "analysis/analytical_model.hpp"
#include "bench_util.hpp"

using namespace modcast;
using namespace modcast::bench;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv,
                    with_batching_flags(
                        {"n_list", "size", "seeds", "warmup_s", "measure_s",
                         "quick", "json", "jobs", "validate", "trace-out"}));
  BenchConfig bc = bench_config(flags);
  const auto n_list = flags.get_int_list("n_list", {3, 5, 7});
  const auto size = static_cast<std::size_t>(flags.get_int("size", 1024));

  if (flags.get_bool("validate", false)) {
    std::vector<std::size_t> ns;
    for (std::int64_t n : n_list) ns.push_back(static_cast<std::size_t>(n));
    const bool ok = run_validation_suite(bc, "table_msgcount", ns, size);
    std::printf("model cross-validation: %s\n", ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }

  std::vector<workload::SweepPoint> points;
  for (std::int64_t n : n_list) {
    workload::SweepPoint pt;
    pt.n = static_cast<std::size_t>(n);
    pt.workload.offered_load = 8000;  // far above saturation
    pt.workload.message_size = size;
    pt.workload.warmup = util::from_seconds(bc.warmup_s);
    pt.workload.measure = util::from_seconds(bc.measure_s);
    pt.workload.collect_metrics = !bc.trace_out.empty();
    pt.seeds = bc.seeds;
    pt.stack.kind = core::StackKind::kModular;
    pt.stack.flow.max_batch = 4;
    pt.stack.flow.window = 4;
    apply_stack_tuning(bc, pt.stack);
    points.push_back(pt);
    pt.stack.kind = core::StackKind::kMonolithic;
    points.push_back(pt);
  }
  const auto results = workload::run_sweep(points, bc.jobs);

  std::printf("== Table (§5.2.1): messages per consensus execution ==\n");
  std::printf("saturated workload, M = 4 (flow control), size = %zu B\n\n",
              size);
  std::printf("%3s | %10s %10s | %10s %10s | %7s %7s\n", "n", "mod:paper",
              "mod:meas", "mono:paper", "mono:meas", "ratio:p", "ratio:m");
  std::printf("----+----------------------+----------------------+"
              "----------------\n");

  std::string json_rows;
  for (std::size_t i = 0; i < n_list.size(); ++i) {
    const std::int64_t n = n_list[i];
    const auto& rm = results[2 * i];
    const auto& rn = results[2 * i + 1];
    export_point_metrics(bc, "table_msgcount", n,
                         {static_cast<std::size_t>(n),
                          core::StackKind::kModular}, rm);
    export_point_metrics(bc, "table_msgcount", n,
                         {static_cast<std::size_t>(n),
                          core::StackKind::kMonolithic}, rn);

    const auto paper_mod = analysis::modular_messages_per_consensus(
        static_cast<std::uint64_t>(n), 4);
    const auto paper_mono = analysis::monolithic_messages_per_consensus(
        static_cast<std::uint64_t>(n));

    std::printf("%3lld | %10llu %10.1f | %10llu %10.1f | %6.2fx %6.2fx\n",
                static_cast<long long>(n),
                static_cast<unsigned long long>(paper_mod),
                rm.msgs_per_consensus,
                static_cast<unsigned long long>(paper_mono),
                rn.msgs_per_consensus,
                static_cast<double>(paper_mod) /
                    static_cast<double>(paper_mono),
                rn.msgs_per_consensus > 0
                    ? rm.msgs_per_consensus / rn.msgs_per_consensus
                    : 0.0);
    std::fflush(stdout);

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"n\": %lld, \"modular_measured\": %.3f, "
                  "\"monolithic_measured\": %.3f, \"modular_paper\": %llu, "
                  "\"monolithic_paper\": %llu}",
                  static_cast<long long>(n), rm.msgs_per_consensus,
                  rn.msgs_per_consensus,
                  static_cast<unsigned long long>(paper_mod),
                  static_cast<unsigned long long>(paper_mono));
    if (i > 0) json_rows += ", ";
    json_rows += buf;
  }
  if (flags.get("json", "") != "none") {
    write_json_result("table_msgcount", "\"points\": [" + json_rows + "]",
                      flags.get("json", ""));
  }
  std::printf(
      "\npaper worked example: n=3, M=4 -> modular 16 vs monolithic 4\n"
      "(measured counts include FD-free protocol traffic only; small\n"
      "deviations come from occasional standalone decision tags).\n");
  return 0;
}
