// Extension — modularity overhead as a function of group size.
//
// §5.2.2 predicts the modular stack's data overhead grows with n as
// (n−1)/(n+1) → 100%, and §5.2.1 predicts the message-count ratio grows as
// (M+2+⌊(n+1)/2⌋)/2. The paper only evaluates n ∈ {3,7}; this bench sweeps
// group sizes up to n = 128 and reports measured latency/throughput gaps
// next to the analytic data-overhead trend.
//
// The offered load is calibrated per group size: consensus cost grows with
// n, so a load that is comfortable at n = 7 saturates (and produces zero
// in-window deliveries) at n = 65. Defaults keep every point below the
// knee; override with --load=<one for all n> or --load_list=<per n>.
//
// Memory is reported two ways. Per point, the deterministic simulator-core
// accounting (event-queue slabs + pending-delivery pool + tiered link
// state, see DESIGN.md) lands in the JSON — byte-stable, so it is safe
// under the benchdiff drift gate and is the committed evidence that state
// grows sublinearly in n². With --rss, the bench additionally samples
// getrusage peak RSS after each group size and writes the OS-level view to
// results/ext_scalability_rss.json — machine-dependent, never gated.
//
// Flags: --n_list=3,...,128 --load=N --load_list=N,... --size=8192
//        --seeds=N --jobs=N --quick --rss --trace-out=<path.jsonl>
#include <sys/resource.h>

#include "analysis/analytical_model.hpp"
#include "bench_util.hpp"

using namespace modcast;
using namespace modcast::bench;

namespace {

/// Offered load (msgs/s over the group) keeping the modular stack below CPU
/// saturation at each n: decision cost grows roughly linearly in n, so the
/// sustainable load shrinks accordingly (measured on the default cost
/// model; see EXPERIMENTS.md).
double default_load(std::int64_t n) {
  if (n <= 9) return 4000;
  if (n <= 17) return 1000;
  if (n <= 33) return 400;
  if (n <= 65) return 150;
  return 60;
}

long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv,
                    with_batching_flags(
                        {"n_list", "load", "load_list", "size", "seeds",
                         "warmup_s", "measure_s", "quick", "json", "jobs",
                         "rss", "trace-out"}));
  BenchConfig bc = bench_config(flags);
  const auto n_list = flags.get_int_list(
      "n_list", bc.quick ? std::vector<std::int64_t>{3, 7, 33, 128}
                         : std::vector<std::int64_t>{3, 5, 7, 9, 17, 33, 65,
                                                     128});
  std::vector<std::int64_t> load_list;
  if (flags.get("load", "") != "") {
    load_list.assign(n_list.size(),
                     static_cast<std::int64_t>(flags.get_double("load", 0)));
  } else {
    std::vector<std::int64_t> defaults;
    defaults.reserve(n_list.size());
    for (std::int64_t n : n_list) {
      defaults.push_back(static_cast<std::int64_t>(default_load(n)));
    }
    load_list = flags.get_int_list("load_list", defaults);
  }
  if (load_list.size() != n_list.size()) {
    std::fprintf(stderr, "--load_list must match --n_list (%zu entries)\n",
                 n_list.size());
    return 1;
  }
  const auto size = static_cast<std::size_t>(flags.get_int("size", 8192));
  const bool report_rss = flags.get_bool("rss", false);

  std::vector<workload::SweepPoint> points;
  for (std::size_t i = 0; i < n_list.size(); ++i) {
    workload::SweepPoint pt;
    pt.n = static_cast<std::size_t>(n_list[i]);
    pt.workload.offered_load = static_cast<double>(load_list[i]);
    pt.workload.message_size = size;
    pt.workload.warmup = util::from_seconds(bc.warmup_s);
    pt.workload.measure = util::from_seconds(bc.measure_s);
    pt.workload.collect_metrics = !bc.trace_out.empty();
    pt.seeds = bc.seeds;
    apply_stack_tuning(bc, pt.stack);
    pt.stack.kind = core::StackKind::kModular;
    points.push_back(pt);
    pt.stack.kind = core::StackKind::kMonolithic;
    points.push_back(pt);
  }

  std::printf("== Extension: modularity cost vs group size ==\n");
  std::printf("size = %zu B; %zu seed(s); per-n offered load "
              "(see --load_list)\n\n",
              size, bc.seeds);
  std::printf("%3s | %7s | %12s | %12s | %8s | %8s | %8s | %10s\n", "n",
              "load", "mod lat ms", "mono lat ms", "lat gap", "thr gap",
              "(n-1)/(n+1)", "state KiB");
  std::printf("----+---------+--------------+--------------+----------+"
              "----------+----------+-----------\n");

  // With --rss each group size runs as its own sweep so peak RSS can be
  // sampled between sizes; otherwise everything goes through one parallel
  // sweep. Both paths produce identical simulation results (run_sweep is
  // deterministic and per-point isolated).
  std::vector<workload::AggregateResult> results;
  std::vector<long> rss_after_kb(n_list.size(), 0);
  if (report_rss) {
    for (std::size_t i = 0; i < n_list.size(); ++i) {
      const std::vector<workload::SweepPoint> pair{points[2 * i],
                                                   points[2 * i + 1]};
      auto r = workload::run_sweep(pair, bc.jobs);
      results.insert(results.end(), r.begin(), r.end());
      rss_after_kb[i] = peak_rss_kb();
    }
  } else {
    results = workload::run_sweep(points, bc.jobs);
  }

  std::string json_rows;
  for (std::size_t i = 0; i < n_list.size(); ++i) {
    const std::int64_t n = n_list[i];
    const auto& rm = results[2 * i];
    const auto& rn = results[2 * i + 1];

    const double lat_gap =
        (rm.latency_ms.mean - rn.latency_ms.mean) / rm.latency_ms.mean;
    const double thr_gap =
        (rn.throughput.mean - rm.throughput.mean) / rm.throughput.mean;
    const std::uint64_t state_bytes =
        std::max(rm.sim_state_bytes, rn.sim_state_bytes);
    std::printf(
        "%3lld | %7lld | %12.2f | %12.2f | %7.0f%% | %7.0f%% | %7.0f%% | "
        "%10.1f\n",
        static_cast<long long>(n), static_cast<long long>(load_list[i]),
        rm.latency_ms.mean, rn.latency_ms.mean, lat_gap * 100.0,
        thr_gap * 100.0,
        analysis::modularity_data_overhead(static_cast<std::uint64_t>(n)) *
            100.0,
        static_cast<double>(state_bytes) / 1024.0);
    std::fflush(stdout);

    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"n\": %lld, \"load\": %lld, \"modular_latency_ms\": %.6f, "
        "\"monolithic_latency_ms\": %.6f, \"latency_gap\": %.4f, "
        "\"throughput_gap\": %.4f, \"sim_state_bytes_modular\": %llu, "
        "\"sim_state_bytes_monolithic\": %llu, "
        "\"peak_pending_events\": %llu, \"peak_in_flight_msgs\": %llu}",
        static_cast<long long>(n), static_cast<long long>(load_list[i]),
        rm.latency_ms.mean, rn.latency_ms.mean, lat_gap, thr_gap,
        static_cast<unsigned long long>(rm.sim_state_bytes),
        static_cast<unsigned long long>(rn.sim_state_bytes),
        static_cast<unsigned long long>(
            std::max(rm.peak_pending_events, rn.peak_pending_events)),
        static_cast<unsigned long long>(
            std::max(rm.peak_in_flight_msgs, rn.peak_in_flight_msgs)));
    if (i > 0) json_rows += ", ";
    json_rows += buf;
    const std::string nx = "ext_scalability n=" + std::to_string(n);
    export_labeled_metrics(bc, nx + " modular", rm);
    export_labeled_metrics(bc, nx + " monolithic", rn);
  }
  if (flags.get("json", "") != "none") {
    write_json_result("ext_scalability", "\"points\": [" + json_rows + "]",
                      flags.get("json", ""));
  }

  // Sublinearity evidence: simulator state per n² must *fall* as n grows —
  // a dense n×n representation would hold it constant.
  const std::size_t last = n_list.size() - 1;
  if (n_list.size() >= 2) {
    const auto per_n2 = [&](std::size_t i) {
      const double n2 = static_cast<double>(n_list[i]) *
                        static_cast<double>(n_list[i]);
      return static_cast<double>(std::max(results[2 * i].sim_state_bytes,
                                          results[2 * i + 1].sim_state_bytes)) /
             n2;
    };
    std::printf("\nsim state per n^2: %.1f B at n=%lld -> %.1f B at n=%lld "
                "(%s in n^2)\n",
                per_n2(0), static_cast<long long>(n_list[0]), per_n2(last),
                static_cast<long long>(n_list[last]),
                per_n2(last) < per_n2(0) ? "sublinear" : "NOT sublinear");
  }
  if (report_rss) {
    std::string rss_rows;
    for (std::size_t i = 0; i < n_list.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "{\"n\": %lld, \"peak_rss_kb\": %ld}",
                    static_cast<long long>(n_list[i]), rss_after_kb[i]);
      if (i > 0) rss_rows += ", ";
      rss_rows += buf;
    }
    // Machine-dependent by nature; kept out of the benchdiff-gated files.
    write_json_result("ext_scalability_rss",
                      "\"points\": [" + rss_rows + "]");
    std::printf("process peak RSS after n=%lld sweep: %.1f MiB "
                "(results/ext_scalability_rss.json; not drift-gated)\n",
                static_cast<long long>(n_list[last]),
                static_cast<double>(rss_after_kb[last]) / 1024.0);
  }

  std::printf(
      "\nreading: 'lat gap' = how much lower the monolithic latency is;\n"
      "'thr gap' = how much higher its throughput; '(n-1)/(n+1)' is the\n"
      "paper's analytic data overhead of modularity, growing toward 100%%;\n"
      "'state KiB' = deterministic simulator-core state accounting.\n");
  return 0;
}
