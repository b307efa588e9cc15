// Extension — indirect consensus ([12], Ekwall & Schiper DSN'06).
//
// The paper's related-work section describes extending the consensus
// specification so the consensus layer shares state with atomic broadcast,
// agreeing on message ids instead of payloads and cutting wire data. This
// bench adds that third variant to the paper's modular-vs-monolithic
// comparison: it recovers about half of the modular stack's data overhead
// while keeping the module structure.
//
// Flags: --n=3 --size=16384 --loads=... --seeds=N --jobs=N --quick
//        --trace-out=<path.jsonl> (per-point trace-derived metrics)
#include "bench_util.hpp"

using namespace modcast;
using namespace modcast::bench;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv,
                    with_batching_flags(
                        {"n", "size", "loads", "seeds", "warmup_s", "measure_s",
                         "quick", "json", "jobs", "trace-out"}));
  BenchConfig bc = bench_config(flags);
  const auto n = static_cast<std::size_t>(flags.get_int("n", 3));
  const auto size = static_cast<std::size_t>(flags.get_int("size", 16384));
  const auto loads = flags.get_int_list(
      "loads", bc.quick ? std::vector<std::int64_t>{1000, 4000}
                        : std::vector<std::int64_t>{500, 1000, 2000, 4000,
                                                    7000});

  core::StackOptions modular;
  modular.kind = core::StackKind::kModular;
  core::StackOptions indirect = modular;
  indirect.modular.indirect_consensus = true;
  core::StackOptions mono;
  mono.kind = core::StackKind::kMonolithic;

  struct Row {
    const char* name;
    const core::StackOptions* opts;
  };
  const Row rows[] = {{"modular", &modular},
                      {"modular+indirect", &indirect},
                      {"monolithic", &mono}};
  const std::size_t n_rows = sizeof(rows) / sizeof(rows[0]);

  std::vector<workload::SweepPoint> points;
  for (std::int64_t load : loads) {
    for (const Row& row : rows) {
      workload::SweepPoint pt;
      pt.n = n;
      pt.stack = *row.opts;
      apply_stack_tuning(bc, pt.stack);
      pt.workload.offered_load = static_cast<double>(load);
      pt.workload.message_size = size;
      pt.workload.warmup = util::from_seconds(bc.warmup_s);
      pt.workload.measure = util::from_seconds(bc.measure_s);
      pt.workload.collect_metrics = !bc.trace_out.empty();
      pt.seeds = bc.seeds;
      points.push_back(pt);
    }
  }
  const auto results = workload::run_sweep(points, bc.jobs);

  std::printf("== Extension: indirect consensus vs the paper's stacks ==\n");
  std::printf("n = %zu, size = %zu B; %zu seed(s)\n\n", n, size, bc.seeds);
  std::printf("%-8s | %-18s | %12s | %14s | %10s\n", "load", "stack",
              "latency ms", "thr msgs/s", "KiB/cons");
  std::printf("---------+--------------------+--------------+"
              "----------------+-----------\n");

  std::string json_rows;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    for (std::size_t j = 0; j < n_rows; ++j) {
      const auto& r = results[i * n_rows + j];
      std::printf("%-8lld | %-18s | %12s | %14s | %10.1f\n",
                  static_cast<long long>(loads[i]), rows[j].name,
                  util::format_ci(r.latency_ms, 2).c_str(),
                  util::format_ci(r.throughput, 0).c_str(),
                  r.bytes_per_consensus / 1024.0);
      std::fflush(stdout);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"load\": %lld, \"stack\": \"%s\", "
                    "\"latency_ms\": %.6f, \"throughput\": %.6f, "
                    "\"bytes_per_consensus\": %.1f}",
                    static_cast<long long>(loads[i]), rows[j].name,
                    r.latency_ms.mean, r.throughput.mean,
                    r.bytes_per_consensus);
      if (!json_rows.empty()) json_rows += ", ";
      json_rows += buf;
      export_labeled_metrics(bc,
                             "ext_indirect_consensus load=" +
                                 std::to_string(loads[i]) + " " + rows[j].name,
                             r);
    }
    std::printf("---------+--------------------+--------------+"
                "----------------+-----------\n");
  }
  if (flags.get("json", "") != "none") {
    write_json_result("ext_indirect_consensus",
                      "\"points\": [" + json_rows + "]",
                      flags.get("json", ""));
  }

  std::printf(
      "\nreading: indirect consensus keeps the modular structure but agrees\n"
      "on 12-byte ids; its data per consensus drops from 2(n-1)Ml toward\n"
      "(n-1)Ml (diffusion only), closing part of the modularity gap — the\n"
      "related-work trade-off the paper cites as [12].\n");
  return 0;
}
