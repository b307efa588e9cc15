#include "gate.hpp"

#include <unordered_set>

namespace perfbench {
namespace {

std::uint64_t key(const MsgId& m) {
  return (static_cast<std::uint64_t>(m.origin) << 48) ^ m.seq;
}

std::string id_str(const MsgId& m) {
  return "(" + std::to_string(m.origin) + "," + std::to_string(m.seq) + ")";
}

}  // namespace

std::string check_contract(const GateInput& in) {
  std::unordered_set<std::uint64_t> issued;
  for (std::size_t o = 0; o < in.abcast_seqs.size(); ++o) {
    for (std::uint64_t s : in.abcast_seqs[o]) {
      issued.insert(key(MsgId{static_cast<std::uint32_t>(o), s}));
    }
  }

  // Uniform integrity.
  const DeliveryLog* longest = nullptr;
  for (std::size_t p = 0; p < in.logs.size(); ++p) {
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(in.logs[p].size());
    for (const MsgId& m : in.logs[p]) {
      if (!issued.count(key(m))) {
        return "integrity: process " + std::to_string(p) + " delivered " +
               id_str(m) + ", which was never abcast";
      }
      if (!seen.insert(key(m)).second) {
        return "integrity: process " + std::to_string(p) + " delivered " +
               id_str(m) + " twice";
      }
    }
    if (longest == nullptr || in.logs[p].size() > longest->size()) {
      longest = &in.logs[p];
    }
  }

  // Uniform total order: pairwise prefix compatibility is equivalent to
  // every log being a prefix of the longest one.
  for (std::size_t p = 0; p < in.logs.size(); ++p) {
    const DeliveryLog& log = in.logs[p];
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (!(log[i] == (*longest)[i])) {
        return "total order: process " + std::to_string(p) + " delivered " +
               id_str(log[i]) + " at index " + std::to_string(i) +
               " where another process delivered " + id_str((*longest)[i]);
      }
    }
  }

  if (in.check_agreement) {
    std::size_t expect = SIZE_MAX;
    for (std::size_t p = 0; p < in.logs.size(); ++p) {
      if (!in.correct.empty() && !in.correct[p]) continue;
      if (expect == SIZE_MAX) expect = in.logs[p].size();
      if (in.logs[p].size() != expect) {
        return "agreement: correct processes delivered " +
               std::to_string(expect) + " and " +
               std::to_string(in.logs[p].size()) + " messages";
      }
    }
  }
  return "";
}

std::uint64_t log_digest(const DeliveryLog& log) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const MsgId& m : log) {
    mix(m.origin);
    mix(m.seq);
  }
  return h;
}

}  // namespace perfbench
