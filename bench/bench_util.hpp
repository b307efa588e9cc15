// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/abcast_process.hpp"
#include "metrics/metrics.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "workload/sweep.hpp"
#include "workload/validation.hpp"

namespace modcast::bench {

/// The four curves every experimental figure in the paper plots.
struct Curve {
  std::size_t n;
  core::StackKind kind;
};

inline std::vector<Curve> paper_curves() {
  return {{3, core::StackKind::kMonolithic},
          {3, core::StackKind::kModular},
          {7, core::StackKind::kMonolithic},
          {7, core::StackKind::kModular}};
}

inline std::string curve_label(const Curve& c) {
  return "n=" + std::to_string(c.n) + " " + core::to_string(c.kind);
}

struct BenchConfig {
  std::size_t seeds = 2;
  double warmup_s = 1.5;
  double measure_s = 3.0;
  bool quick = false;
  std::size_t jobs = 0;  ///< sweep parallelism; 0 = hardware concurrency
  /// --trace-out=<path>: append every measured point's trace-derived
  /// GroupMetrics to <path> as JSONL. Empty = metrics collection off.
  std::string trace_out;
  /// Batching/pipelining overrides (--batch-count/--batch-bytes/
  /// --batch-delay/--pipeline-depth). 0 keeps the bench's default — batch
  /// count 1-equivalent behavior and strictly sequential instances, so
  /// unmodified figure benches reproduce the paper byte-for-byte.
  std::size_t batch_count = 0;
  std::size_t batch_bytes = 0;
  util::Duration batch_delay = 0;
  std::size_t pipeline_depth = 0;
};

/// Appends the four batching/pipelining flags to a bench's known-flags list,
/// so every figure bench accepts them uniformly.
inline std::vector<std::string> with_batching_flags(
    std::vector<std::string> flags) {
  for (const char* f :
       {"batch-count", "batch-bytes", "batch-delay", "pipeline-depth"}) {
    flags.emplace_back(f);
  }
  return flags;
}

inline BenchConfig bench_config(const util::Flags& flags) {
  BenchConfig cfg;
  cfg.quick = flags.get_bool("quick", false);
  cfg.seeds = static_cast<std::size_t>(
      flags.get_int("seeds", cfg.quick ? 1 : 2));
  cfg.warmup_s = flags.get_double("warmup_s", cfg.quick ? 1.0 : 1.5);
  cfg.measure_s = flags.get_double("measure_s", cfg.quick ? 1.5 : 3.0);
  cfg.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  cfg.trace_out = flags.get("trace-out", "");
  cfg.batch_count = static_cast<std::size_t>(flags.get_int("batch-count", 0));
  cfg.batch_bytes = static_cast<std::size_t>(flags.get_int("batch-bytes", 0));
  cfg.batch_delay = flags.get_duration("batch-delay", 0);
  cfg.pipeline_depth =
      static_cast<std::size_t>(flags.get_int("pipeline-depth", 0));
  return cfg;
}

/// Applies the batching/pipelining overrides to a stack configuration.
/// No-op with all four at their 0 defaults (byte-identical figure benches).
inline void apply_stack_tuning(const BenchConfig& bc,
                               core::StackOptions& stack) {
  if (bc.batch_count > 0) stack.flow.max_batch = bc.batch_count;
  if (bc.batch_bytes > 0) stack.flow.batch_bytes = bc.batch_bytes;
  if (bc.batch_delay > 0) stack.flow.batch_delay = bc.batch_delay;
  if (bc.pipeline_depth > 0) stack.flow.pipeline_depth = bc.pipeline_depth;
}

inline workload::SweepPoint sweep_point(const Curve& curve,
                                        double offered_load,
                                        std::size_t message_size,
                                        const BenchConfig& bc) {
  workload::SweepPoint pt;
  pt.n = curve.n;
  pt.stack.kind = curve.kind;
  apply_stack_tuning(bc, pt.stack);
  pt.workload.offered_load = offered_load;
  pt.workload.message_size = message_size;
  pt.workload.warmup = util::from_seconds(bc.warmup_s);
  pt.workload.measure = util::from_seconds(bc.measure_s);
  pt.workload.collect_metrics = !bc.trace_out.empty();
  pt.seeds = bc.seeds;
  return pt;
}

/// Appends one point's metrics to the --trace-out JSONL file under an
/// arbitrary label (no-op when the flag is unset). For benches whose points
/// are not (x, curve) pairs: ablation variants, validation runs, etc.
inline void export_labeled_metrics(const BenchConfig& bc,
                                   const std::string& label,
                                   const workload::AggregateResult& agg) {
  if (bc.trace_out.empty()) return;
  metrics::append_jsonl(bc.trace_out, agg.metrics.to_jsonl(label));
}

/// Appends one point's metrics to the --trace-out JSONL file (no-op when the
/// flag is unset). Call once per measured (x, curve) point.
inline void export_point_metrics(const BenchConfig& bc,
                                 const std::string& bench, std::int64_t x,
                                 const Curve& curve,
                                 const workload::AggregateResult& agg) {
  if (bc.trace_out.empty()) return;
  export_labeled_metrics(
      bc, bench + " x=" + std::to_string(x) + " " + curve_label(curve), agg);
}

/// The §5.2 runtime cross-validation behind the table benches' --validate
/// mode: drained good runs for both stacks at each n, checked EXACTLY
/// against analysis::analytical_model. Prints one verdict per run and
/// returns false on any mismatch. Honors --trace-out.
inline bool run_validation_suite(const BenchConfig& bc,
                                 const std::string& bench,
                                 const std::vector<std::size_t>& ns,
                                 std::size_t message_size) {
  bool all_ok = true;
  for (std::size_t n : ns) {
    for (core::StackKind kind :
         {core::StackKind::kMonolithic, core::StackKind::kModular}) {
      workload::ValidationConfig vc;
      vc.n = n;
      vc.stack.kind = kind;
      vc.message_size = message_size;
      const auto r = workload::run_model_validation(vc);
      std::printf("validate n=%zu %-10s %s\n", n, core::to_string(kind),
                  r.describe().c_str());
      if (!bc.trace_out.empty()) {
        const std::string label = bench + " validate n=" + std::to_string(n) +
                                  " " + core::to_string(kind);
        metrics::append_jsonl(bc.trace_out, r.metrics.to_jsonl(label));
      }
      all_ok = all_ok && r.ok();
    }
  }
  return all_ok;
}

inline workload::AggregateResult run_point(const Curve& curve,
                                           double offered_load,
                                           std::size_t message_size,
                                           const BenchConfig& bc) {
  const workload::SweepPoint pt =
      sweep_point(curve, offered_load, message_size, bc);
  return workload::run_experiment(pt.n, pt.stack, pt.workload, pt.seeds);
}

/// Runs the full xs × curves grid through the parallel sweep runner and
/// returns results indexed [x][curve]. point_of(x, curve) builds each
/// SweepPoint; rows come back in input order regardless of job count.
template <typename PointOf>
inline std::vector<std::vector<workload::AggregateResult>> run_grid(
    const std::vector<std::int64_t>& xs, const std::vector<Curve>& curves,
    const BenchConfig& bc, PointOf&& point_of) {
  std::vector<workload::SweepPoint> pts;
  pts.reserve(xs.size() * curves.size());
  for (std::int64_t x : xs) {
    for (const Curve& c : curves) pts.push_back(point_of(x, c));
  }
  const auto flat = workload::run_sweep(pts, bc.jobs);
  std::vector<std::vector<workload::AggregateResult>> grid(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    grid[i].assign(flat.begin() + static_cast<std::ptrdiff_t>(i * curves.size()),
                   flat.begin() +
                       static_cast<std::ptrdiff_t>((i + 1) * curves.size()));
  }
  return grid;
}

/// Optional CSV mirror of a figure's data (one row per (x, curve) point),
/// ready for gnuplot/matplotlib. Enabled with --csv=<path>.
class CsvWriter {
 public:
  CsvWriter(const util::Flags& flags, const char* x_name) {
    const std::string path = flags.get("csv", "");
    if (path.empty()) return;
    file_ = std::fopen(path.c_str(), "w");
    if (file_ != nullptr) {
      std::fprintf(file_, "%s,n,stack,mean,ci_half\n", x_name);
    }
  }
  ~CsvWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void row(std::int64_t x, const Curve& curve,
           const util::ConfidenceInterval& ci) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%lld,%zu,%s,%.6f,%.6f\n",
                 static_cast<long long>(x), curve.n,
                 core::to_string(curve.kind), ci.mean, ci.half_width);
    std::fflush(file_);
  }

 private:
  std::FILE* file_ = nullptr;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Writes one bench's machine-readable result to results/<bench>.json (the
/// directory is created if missing). `body` is the JSON payload without the
/// outer braces; the helper adds the bench name. Returns false on I/O error.
/// Shared by the figure benches (via JsonWriter) and the microbenches.
inline bool write_json_result(const std::string& bench,
                              const std::string& body,
                              std::string path = "") {
  if (path.empty()) path = "results/" + bench + ".json";
  std::error_code ec;
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"bench\": \"%s\", %s}\n", json_escape(bench).c_str(),
               body.c_str());
  std::fclose(f);
  return true;
}

/// JSON mirror of a figure's data, written on destruction to
/// results/<bench>.json. --json=<path> overrides the location; --json=none
/// disables it.
class JsonWriter {
 public:
  JsonWriter(const util::Flags& flags, std::string bench, std::string x_name,
             std::string metric)
      : bench_(std::move(bench)),
        x_name_(std::move(x_name)),
        metric_(std::move(metric)),
        path_(flags.get("json", "")) {
    enabled_ = path_ != "none";
  }
  ~JsonWriter() {
    if (!enabled_) return;
    std::string body = "\"x\": \"" + json_escape(x_name_) +
                       "\", \"metric\": \"" + json_escape(metric_) +
                       "\", \"points\": [";
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (i > 0) body += ", ";
      body += points_[i];
    }
    body += "]";
    write_json_result(bench_, body, path_ == "none" ? "" : path_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void row(std::int64_t x, const std::string& curve,
           const util::ConfidenceInterval& ci) {
    if (!enabled_) return;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"%s\": %lld, \"curve\": \"%s\", \"mean\": %.6f, "
                  "\"ci_half\": %.6f}",
                  json_escape(x_name_).c_str(), static_cast<long long>(x),
                  json_escape(curve).c_str(), ci.mean, ci.half_width);
    points_.emplace_back(buf);
  }

 private:
  std::string bench_;
  std::string x_name_;
  std::string metric_;
  std::string path_;
  bool enabled_ = true;
  std::vector<std::string> points_;
};

inline void print_header(const char* x_name) {
  std::printf("%-10s", x_name);
  for (const auto& c : paper_curves()) {
    std::printf(" | %-22s", curve_label(c).c_str());
  }
  std::printf("\n");
  std::printf("----------");
  for (std::size_t i = 0; i < paper_curves().size(); ++i) {
    std::printf("-+-----------------------");
  }
  std::printf("\n");
}

}  // namespace modcast::bench
