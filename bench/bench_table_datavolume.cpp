// §5.2.2 — Total amount of data sent per consensus execution, and the
// modularity overhead (n−1)/(n+1).
//
// Closed forms: Datamod = 2(n−1)·M·l, Datamono = (n−1)(1+1/n)·M·l, so the
// modular stack sends 50% more data at n=3 and 75% more at n=7. Measured
// values come from the serialized bytes the real stacks put on the wire
// (headers included, failure detector excluded).
//
// Flags: --n_list=3,7 --size=16384 --seeds=N --jobs=N --quick
//        --validate --trace-out=<path.jsonl>
//
// --validate additionally runs the drained-good-run cross-validation: the
// trace-derived per-instance byte counts must equal the analytical model
// EXACTLY (exit 1 on any mismatch). Validation uses a smaller payload so the
// burst drains fast; the byte identities are size-independent.
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
  const auto n_list = flags.get_int_list("n_list", {3, 7});
  const auto size = static_cast<std::size_t>(flags.get_int("size", 16384));
  const double l = static_cast<double>(size);

  if (flags.get_bool("validate", false)) {
    std::vector<std::size_t> ns;
    for (std::int64_t n : n_list) ns.push_back(static_cast<std::size_t>(n));
    const bool ok = run_validation_suite(bc, "table_datavolume", ns, 1024);
    std::printf("model cross-validation: %s\n", ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }

  std::vector<workload::SweepPoint> points;
  for (std::int64_t n : n_list) {
    workload::SweepPoint pt;
    pt.n = static_cast<std::size_t>(n);
    pt.workload.offered_load = 8000;
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

  std::printf("== Table (§5.2.2): data per consensus execution (KiB) ==\n");
  std::printf("saturated workload, M = 4, l = %zu B\n\n", size);
  std::printf("%3s | %10s %10s | %10s %10s | %10s %10s\n", "n", "mod:paper",
              "mod:meas", "mono:paper", "mono:meas", "ovh:paper", "ovh:meas");
  std::printf("----+----------------------+----------------------+"
              "----------------------\n");

  std::string json_rows;
  for (std::size_t i = 0; i < n_list.size(); ++i) {
    const std::int64_t n = n_list[i];
    const auto& rm = results[2 * i];
    const auto& rn = results[2 * i + 1];
    export_point_metrics(bc, "table_datavolume", n,
                         {static_cast<std::size_t>(n),
                          core::StackKind::kModular}, rm);
    export_point_metrics(bc, "table_datavolume", n,
                         {static_cast<std::size_t>(n),
                          core::StackKind::kMonolithic}, rn);

    const double paper_mod = analysis::modular_data_per_consensus(
        static_cast<std::uint64_t>(n), 4, l);
    const double paper_mono = analysis::monolithic_data_per_consensus(
        static_cast<std::uint64_t>(n), 4, l);
    const double paper_ovh =
        analysis::modularity_data_overhead(static_cast<std::uint64_t>(n));
    const double meas_ovh =
        (rm.bytes_per_consensus - rn.bytes_per_consensus) /
        rn.bytes_per_consensus;

    std::printf("%3lld | %10.1f %10.1f | %10.1f %10.1f | %9.0f%% %9.0f%%\n",
                static_cast<long long>(n), paper_mod / 1024.0,
                rm.bytes_per_consensus / 1024.0, paper_mono / 1024.0,
                rn.bytes_per_consensus / 1024.0, paper_ovh * 100.0,
                meas_ovh * 100.0);
    std::fflush(stdout);

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"n\": %lld, \"modular_kib\": %.3f, "
                  "\"monolithic_kib\": %.3f, \"overhead_paper\": %.4f, "
                  "\"overhead_measured\": %.4f}",
                  static_cast<long long>(n), rm.bytes_per_consensus / 1024.0,
                  rn.bytes_per_consensus / 1024.0, paper_ovh, meas_ovh);
    if (i > 0) json_rows += ", ";
    json_rows += buf;
  }
  if (flags.get("json", "") != "none") {
    write_json_result("table_datavolume", "\"points\": [" + json_rows + "]",
                      flags.get("json", ""));
  }
  std::printf(
      "\npaper: overhead = (n-1)/(n+1): 50%% more data at n=3, 75%% at "
      "n=7.\n");
  return 0;
}
