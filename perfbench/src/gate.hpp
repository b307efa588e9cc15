// The atomic broadcast contract gate every benchmark run passes through.
//
// Checked over the per-process adeliver logs of a finished run:
//   * uniform integrity: no log holds a message twice, and every delivered
//     (origin, seq) was returned by an abcast() call at its origin;
//   * uniform total order: the logs are pairwise prefix-compatible;
//   * uniform agreement (when asked, after a drain): all correct processes
//     delivered the same sequence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MsgId {
  std::uint32_t origin = 0;
  std::uint64_t seq = 0;
  friend bool operator==(const MsgId&, const MsgId&) = default;
};

using DeliveryLog = std::vector<MsgId>;

struct GateInput {
  std::vector<DeliveryLog> logs;              ///< one per process
  std::vector<std::vector<std::uint64_t>> abcast_seqs;  ///< per origin
  std::vector<bool> correct;                  ///< empty: all correct
  bool check_agreement = false;
};

/// Returns "" when the contract holds, else the first violation found.
std::string check_contract(const GateInput& in);

/// FNV-1a digest of one delivery log (order-sensitive).
std::uint64_t log_digest(const DeliveryLog& log);

}  // namespace perfbench
