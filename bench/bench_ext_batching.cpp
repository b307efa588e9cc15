// Extension — ablation of batching and k-deep pipelining in both stacks.
//
// The paper's protocols propose one consensus instance per backlog snapshot
// and run instances strictly sequentially. This bench isolates what the two
// orthogonal relaxations buy at saturation:
//
//   unbatched   max_batch = 1, depth = 1   (one app message per instance)
//   batched     max_batch = B + δ-delay,   depth = 1
//   pipelined   max_batch = 1,             depth = K
//   batch+pipe  max_batch = B + δ-delay,   depth = K
//
// run for both stacks at a saturating offered load. The per-instance CPU
// overhead (StackOptions::instance_overhead, 2.5 ms) caps the unbatched
// variants at ~1/overhead instances/s, so batching — which amortizes one
// instance over up to B messages — dominates; pipelining overlaps the
// consensus round trips, which only pays when decisions, not the CPU, are
// the bottleneck.
//
// Flags: --n=3 --load=6000 --size=1024 --seeds=N --jobs=N --quick
//        --batch-count=B --batch-bytes=T --batch-delay=D --pipeline-depth=K
//        (override the tuned variants; defaults B=32, D=1ms, K=8)
//        --trace-out=<path.jsonl> (per-variant trace-derived metrics)
#include "bench_util.hpp"

using namespace modcast;
using namespace modcast::bench;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv,
                    with_batching_flags(
                        {"n", "load", "size", "seeds", "warmup_s", "measure_s",
                         "quick", "json", "jobs", "trace-out"}));
  BenchConfig bc = bench_config(flags);
  const auto n = static_cast<std::size_t>(flags.get_int("n", 3));
  const double load = flags.get_double("load", 6000);
  const auto size = static_cast<std::size_t>(flags.get_int("size", 1024));

  // Tuned-variant knobs; the shared batching flags override them.
  const std::size_t batch = bc.batch_count > 0 ? bc.batch_count : 32;
  const std::size_t batch_bytes = bc.batch_bytes;  // 0 = count/delay only
  const util::Duration delay =
      bc.batch_delay > 0 ? bc.batch_delay : util::milliseconds(1);
  const std::size_t depth = bc.pipeline_depth > 0 ? bc.pipeline_depth : 8;

  workload::WorkloadConfig wl;
  wl.offered_load = load;
  wl.message_size = size;
  wl.warmup = util::from_seconds(bc.warmup_s);
  wl.measure = util::from_seconds(bc.measure_s);
  wl.collect_metrics = !bc.trace_out.empty();

  struct Variant {
    const char* name;
    bool batched;
    bool pipelined;
  };
  const Variant variants[] = {
      {"unbatched", false, false},
      {"batched", true, false},
      {"pipelined", false, true},
      {"batch+pipe", true, true},
  };

  std::vector<std::string> names;
  std::vector<workload::SweepPoint> points;
  for (const auto kind :
       {core::StackKind::kModular, core::StackKind::kMonolithic}) {
    for (const Variant& v : variants) {
      workload::SweepPoint pt;
      pt.n = n;
      pt.stack.kind = kind;
      // A window deep enough that flow control never starves the batcher;
      // identical across variants so only batching/pipelining differ.
      pt.stack.flow.window = batch;
      pt.stack.flow.max_batch = v.batched ? batch : 1;
      pt.stack.flow.batch_bytes = v.batched ? batch_bytes : 0;
      pt.stack.flow.batch_delay = v.batched ? delay : 0;
      pt.stack.flow.pipeline_depth = v.pipelined ? depth : 1;
      pt.workload = wl;
      pt.seeds = bc.seeds;
      points.push_back(pt);
      names.push_back(std::string(core::to_string(kind)) + " " + v.name);
    }
  }

  std::printf("== Extension: batching x pipelining ablation ==\n");
  std::printf(
      "n = %zu, offered load = %.0f msgs/s, size = %zu B; "
      "B = %zu, delay = %.1f ms, K = %zu; %zu seed(s)\n\n",
      n, load, size, batch, util::to_seconds(delay) * 1e3, depth, bc.seeds);
  std::printf("%-22s | %12s | %14s | %9s | %8s\n", "variant", "latency ms",
              "thr msgs/s", "avg batch", "speedup");
  std::printf("-----------------------+--------------+----------------+"
              "-----------+---------\n");

  const auto results = workload::run_sweep(points, bc.jobs);

  const std::size_t per_stack = sizeof(variants) / sizeof(variants[0]);
  std::string json_rows;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    // Throughput relative to the same stack's unbatched depth-1 baseline.
    const auto& base = results[(i / per_stack) * per_stack];
    const double speedup = base.throughput.mean > 0
                               ? r.throughput.mean / base.throughput.mean
                               : 0.0;
    std::printf("%-22s | %12s | %14s | %9.1f | %7.2fx\n", names[i].c_str(),
                util::format_ci(r.latency_ms, 2).c_str(),
                util::format_ci(r.throughput, 0).c_str(), r.avg_batch,
                speedup);
    std::fflush(stdout);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"variant\": \"%s\", \"latency_ms\": %.6f, "
                  "\"throughput\": %.6f, \"avg_batch\": %.3f, "
                  "\"speedup\": %.4f}",
                  json_escape(names[i]).c_str(), r.latency_ms.mean,
                  r.throughput.mean, r.avg_batch, speedup);
    if (i > 0) json_rows += ", ";
    json_rows += buf;
    export_labeled_metrics(bc, "ext_batching " + names[i], r);
  }
  if (flags.get("json", "") != "none") {
    write_json_result("ext_batching", "\"points\": [" + json_rows + "]",
                      flags.get("json", ""));
  }

  std::printf(
      "\nreading: the 2.5 ms per-instance overhead caps the unbatched\n"
      "variants near 1/overhead instances/s; batching amortizes it over up\n"
      "to B messages per instance. At a CPU-bound saturation point\n"
      "pipelining alone buys nothing (overlapped instances still serialize\n"
      "on the CPU), and combined with batching it *hurts*: eagerly started\n"
      "instances cut smaller batches from the same backlog, trading\n"
      "amortization for concurrency.\n");
  return 0;
}
