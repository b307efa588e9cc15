// What one run of one stack produces, and how runs become metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/abcast_process.hpp"
#include "aliases.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One run of one stack on one workload.
struct StackRun {
  core::StackKind kind = core::StackKind::kModular;
  bool traced = false;

  // Real time and CPU.
  double setup_s = 0.0;  ///< run start until the measured window opens
  double cpu_s = 0.0;    ///< process CPU in the window, generator excluded

  // Workload clock (virtual on the simulator, real on threads).
  std::vector<double> latencies_ms;  ///< early latency, window admissions
  double throughput = 0.0;           ///< unique adeliveries/s per process
  std::uint64_t unique_in_window = 0;
  std::vector<double> outages_ms;    ///< per crash: gap to the next commit
  std::vector<double> gen_lag_ms;    ///< threads: post instant − due instant
  bool gen_valid = true;             ///< generator kept up (threads)

  // Operations.
  std::uint64_t ops = 0;         ///< abcast attempts
  std::uint64_t refused = 0;     ///< refused at the block threshold
  std::uint64_t undelivered = 0; ///< correct-origin attempts not delivered
  std::uint64_t lost_at_crashed = 0;  ///< crashed-origin, never delivered
  std::uint64_t ops_failed() const { return refused + undelivered; }

  std::vector<std::uint64_t> digests;  ///< per-process delivery-log digest
  std::string violation;               ///< "" when the contract held

  /// Per-layer numbers that repeat exactly for a seed on the simulator
  /// (counts and virtual times), normalised as their names say.
  std::map<std::string, double> counts;
  /// Span totals of a traced run (window only).
  SpanTotals spans;
  /// Counts only the probes provide (traced runs).
  std::map<std::string, double> probe_counts;

  double cpu_us_per_msg() const {
    return unique_in_window == 0
               ? 0.0
               : cpu_s * 1e6 / static_cast<double>(unique_in_window);
  }
  /// Everything about the run that must repeat exactly for a seed on the
  /// simulator: virtual metrics, counts and delivery digests.
  std::string fingerprint() const;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// The end-to-end metrics of an untraced set of runs (both stacks).
std::vector<Metric> end_to_end_metrics(const std::vector<StackRun>& runs);
/// The per-layer metrics of a traced set of runs of `w`, for the layers
/// that run there; `untraced` gives the baseline for trace.overhead_frac.
std::vector<Metric> per_layer_metrics(const WorkloadSpec& w,
                                      const std::vector<StackRun>& traced,
                                      const std::vector<StackRun>& untraced);

/// Metric names in the order they are reported.
std::vector<std::string> end_to_end_names();
std::vector<std::string> per_layer_names(const WorkloadSpec& w);

/// Peak RSS of this process, MiB.
double peak_rss_mb();
/// CPU seconds of the whole process / of the calling thread.
double process_cpu_s();
double thread_cpu_s();

}  // namespace perfbench
