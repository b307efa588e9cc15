// Runtime cross-validation of measured metrics against the §5.2 model.
//
// Runs a drained "good run": every process abcasts a fixed burst at t = 0,
// the simulation steps until all n·K messages are adelivered everywhere,
// and the trace-derived GroupMetrics are checked EXACTLY against the
// analytical model (metrics/model_check.hpp). Any suspicion, retransmission,
// round > 1, or flow-control pathology voids the preconditions and is
// reported instead of silently skewing the comparison.
//
// This is the machinery behind test_metrics_vs_model and the --validate
// modes of bench_table_msgcount / bench_table_datavolume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/abcast_process.hpp"
#include "metrics/model_check.hpp"

namespace modcast::workload {

struct ValidationConfig {
  std::size_t n = 3;
  /// The stack under test: the paper's configuration (M = 4, W = 4) unless
  /// a case changes it. Batched and pipelined cases still expect EXACT
  /// model agreement — the §5.2 per-instance identities are invariant, only
  /// how T distributes over I changes.
  core::StackOptions stack = default_stack();
  std::uint64_t messages_per_process = 8;  ///< K; T = n·K
  std::size_t message_size = 1024;         ///< l
  std::uint64_t seed = 1;
  /// Hard wall-clock cap on the simulated drain.
  util::Duration deadline = util::seconds(60);

  /// M = 4, W = 4, and the monolithic forward flush raised well above the
  /// one-way latency so a burst never flushes standalone forwards before
  /// the combined proposal arrives (a standalone flush is a legal but
  /// non-§5.2 code path).
  static core::StackOptions default_stack();
};

struct ValidationResult {
  metrics::GroupMetrics metrics;        ///< merged group snapshot at drain
  metrics::ModelCheckResult check;      ///< model comparison verdict
  std::uint64_t total_messages = 0;     ///< T
  std::uint64_t instances = 0;          ///< I (consensus executions)
  std::uint64_t standalone_tags = 0;    ///< monolithic closing tags
  bool clean = true;                    ///< good-run preconditions held
  std::vector<std::string> notes;       ///< precondition violations

  bool ok() const { return clean && check.ok; }
  std::string describe() const;
};

/// Runs one seeded drained burst and validates it against the model.
ValidationResult run_model_validation(const ValidationConfig& cfg);

}  // namespace modcast::workload
