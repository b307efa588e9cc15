// Ablation — which monolithic optimization buys what.
//
// The paper describes three cross-module optimizations (§4.1 combine
// decision+proposal, §4.2 piggyback abcast messages on acks, §4.3 cheap
// decision diffusion) but evaluates only the all-on stack. This bench
// toggles them individually under the Fig. 8/10 workload to attribute the
// gap: it is an extension of the paper's evaluation, not a reproduction of
// a specific figure.
//
// Flags: --n=3 --load=4000 --size=16384 --seeds=N --jobs=N --quick
//        --trace-out=<path.jsonl> (per-variant trace-derived metrics)
#include "bench_util.hpp"

using namespace modcast;
using namespace modcast::bench;

namespace {

struct Variant {
  const char* name;
  bool combine;
  bool piggyback;
  bool cheap_decision;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv,
                    with_batching_flags(
                        {"n", "load", "size", "seeds", "warmup_s", "measure_s",
                         "quick", "json", "jobs", "trace-out"}));
  BenchConfig bc = bench_config(flags);
  const auto n = static_cast<std::size_t>(flags.get_int("n", 3));
  const double load = flags.get_double("load", 4000);
  const auto size = static_cast<std::size_t>(flags.get_int("size", 16384));

  workload::WorkloadConfig wl;
  wl.offered_load = load;
  wl.message_size = size;
  wl.warmup = util::from_seconds(bc.warmup_s);
  wl.measure = util::from_seconds(bc.measure_s);
  wl.collect_metrics = !bc.trace_out.empty();

  const Variant variants[] = {
      {"mono (all on)", true, true, true},
      {"mono -combine (no 4.1)", false, true, true},
      {"mono -piggyback (no 4.2)", true, false, true},
      {"mono -cheapdec (no 4.3)", true, true, false},
      {"mono (all off)", false, false, false},
  };

  std::vector<std::string> names;
  std::vector<workload::SweepPoint> points;
  for (const Variant& v : variants) {
    workload::SweepPoint pt;
    pt.n = n;
    pt.stack.kind = core::StackKind::kMonolithic;
    pt.stack.monolithic.opt_combine = v.combine;
    pt.stack.monolithic.opt_piggyback = v.piggyback;
    pt.stack.monolithic.opt_cheap_decision = v.cheap_decision;
    apply_stack_tuning(bc, pt.stack);
    pt.workload = wl;
    pt.seeds = bc.seeds;
    points.push_back(pt);
    names.emplace_back(v.name);
  }
  workload::SweepPoint modular;
  modular.n = n;
  modular.stack.kind = core::StackKind::kModular;
  apply_stack_tuning(bc, modular.stack);
  modular.workload = wl;
  modular.seeds = bc.seeds;
  points.push_back(modular);
  names.emplace_back("modular (reference)");

  std::printf("== Ablation: monolithic optimizations (§4.1-§4.3) ==\n");
  std::printf("n = %zu, offered load = %.0f msgs/s, size = %zu B\n\n", n,
              load, size);
  std::printf("%-26s | %12s | %14s | %10s | %10s\n", "variant",
              "latency ms", "thr msgs/s", "msgs/cons", "KiB/cons");
  std::printf("---------------------------+--------------+----------------+"
              "------------+-----------\n");

  const auto results = workload::run_sweep(points, bc.jobs);

  std::string json_rows;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("%-26s | %12s | %14s | %10.1f | %10.1f\n", names[i].c_str(),
                util::format_ci(r.latency_ms, 2).c_str(),
                util::format_ci(r.throughput, 0).c_str(),
                r.msgs_per_consensus, r.bytes_per_consensus / 1024.0);
    std::fflush(stdout);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"variant\": \"%s\", \"latency_ms\": %.6f, "
                  "\"throughput\": %.6f, \"msgs_per_consensus\": %.3f, "
                  "\"bytes_per_consensus\": %.1f}",
                  json_escape(names[i]).c_str(), r.latency_ms.mean,
                  r.throughput.mean, r.msgs_per_consensus,
                  r.bytes_per_consensus);
    if (i > 0) json_rows += ", ";
    json_rows += buf;
    export_labeled_metrics(bc, "ablation_optimizations " + names[i], r);
  }
  if (flags.get("json", "") != "none") {
    write_json_result("ablation_optimizations",
                      "\"points\": [" + json_rows + "]",
                      flags.get("json", ""));
  }

  std::printf(
      "\nreading: each toggle removes one §4 optimization; 'all off' is the\n"
      "modular algorithm run inside one module (isolating the framework\n"
      "cost from the algorithmic cost).\n");
  return 0;
}
