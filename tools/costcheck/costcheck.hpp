// costcheck — symbolic message-cost and quorum-safety analysis that proves
// the source tree matches the paper's analytical model.
//
// The DSN'07 comparison rests on two closed-form message counts per
// consensus instance — (n−1)(m+2+⌊(n+1)/2⌋) for the modular stack and
// 2(n−1)(+ drain tags) for the monolithic one — and on every quorum in the
// implementation actually being a majority. Both facts are classically
// checked by hand against the code; costcheck re-derives them from the
// source on every build:
//
//   * cost.model_mismatch — a manifest (tools/costcheck/cost.toml) maps each
//     protocol phase (diffusion, estimate, propose, ack, decide, relay,
//     batch drain, …) to the module/tag/function that implements it and to
//     a per-instance activation count. costcheck classifies every
//     send_wire/send_wire_to_others site in the tree (unicast ×1, to-others
//     ×(n−1), all-processes loops ×n), sums count×multiplicity per phase
//     into a symbolic polynomial over n (with ⌊n/2⌋ as a first-class atom)
//     and the manifest's free symbols (M, D, …), and checks it
//     coefficient-by-coefficient against the closed form parsed out of
//     src/analysis/analytical_model.cpp. Any difference names the phases
//     involved, the derived term, and the analytical term.
//   * cost.unbudgeted_send — a send site on a stack's hot channels that no
//     declared phase accounts for (and whose tag is not declared cold):
//     the real message complexity has silently diverged from the model.
//   * quorum.threshold — a quorum counter (declared per translation unit)
//     compared against anything other than the declared threshold function
//     with a correctly-oriented operator (`< majority()` pending /
//     `>= majority()` reached), a threshold function whose body disagrees
//     with the declared quorum, or a resender-count variable initialized to
//     something other than its declared value. Catches the classic
//     off-by-one quorum bugs (`>` for `>=`, n/2 for n/2+1) statically.
//   * quorum.overlap — the declared quorum q, taken symbolically, must
//     satisfy 2q > n for every group size in the unit's domain (all n, or
//     odd n only when the manifest says `odd_n = true`), i.e. two quorums
//     always intersect.
//
// costcheck consumes lifecheck's module×event flow graph: manifest modules
// and tags are validated against the extracted topology, so a stale
// manifest is a hard error (exit 2), not a silently vacuous check.
//
// Intentional exceptions use the shared suppression syntax
//   // costcheck:allow(<rule>): <justification>
// with the same lifecycle rules as the sibling analyzers. Like them,
// costcheck is a token-level scanner on tools/analyzer_common, not a C++
// front-end.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "diagnostics.hpp"
#include "lifecheck.hpp"
#include "source.hpp"

namespace costcheck {

// --- Rule identifiers -------------------------------------------------------
// cost.model_mismatch   derived per-instance polynomial != analytical model
// cost.unbudgeted_send  hot-channel send site attributed to no phase
// quorum.threshold      counter compared against a non-declared threshold,
//                       with a flipped operator, or a threshold/count
//                       definition disagreeing with the declared quorum
// quorum.overlap        declared quorum does not satisfy 2q > n
// meta.bad-suppression  costcheck:allow with missing justification or
//                       unknown rule
// meta.unused-suppression  costcheck:allow matching no diagnostic

using Diagnostic = analyzer::Diagnostic;
using Report = analyzer::Report;

struct Phase {
  std::string name;
  std::string module;                  ///< kMod* channel implementing it
  std::vector<std::string> tags;       ///< wire tags; empty = any tag
  std::vector<std::string> functions;  ///< enclosing fns; empty = any
  std::string count;  ///< per-instance activation count expression
};

struct StackSpec {
  std::string name;
  std::vector<std::string> modules;  ///< kMod* channels owned by the stack
  std::string model;    ///< analytical closed form, e.g. "f(n, M)"
  std::vector<std::string> symbols;  ///< free symbols usable in counts
  /// Tags whose sends are recovery/bad-run traffic outside the good-run
  /// model ("untagged" covers sites with no recognizable tag).
  std::vector<std::string> cold;
  std::vector<Phase> phases;
};

struct QuorumSpec {
  std::string unit;  ///< path stem relative to root, e.g. "rbcast/reliable_bcast"
  std::vector<std::string> counters;  ///< quorum counter identifiers
  std::string threshold;              ///< threshold function name (may be "")
  std::string quorum;                 ///< declared quorum expression in n
  std::vector<std::string> allow;     ///< callees comparable with any op
  /// (variable, expression) pairs: `var = expr` initializations checked
  /// against the declared value (designated-resender counts).
  std::vector<std::pair<std::string, std::string>> count_vars;
  bool odd_n = false;  ///< overlap only guaranteed for odd group sizes
};

struct Manifest {
  std::string model_file;     ///< analytical model source, relative to root
  std::string flow_registry;  ///< event registry path (standalone flow pass)
  std::vector<StackSpec> stacks;
  std::vector<QuorumSpec> quorums;
};

/// Parses a cost.toml-style manifest ([model], [flow], [stack <name>],
/// [quorum <unit>] sections). Throws std::runtime_error with a
/// "<line>: message" description.
Manifest parse_manifest(std::istream& in);
Manifest load_manifest(const std::filesystem::path& file);

/// The derived cost model, one entry per manifest stack. Polynomials are
/// canonical strings over n, floor(n/2), and the stack's free symbols, so
/// the serialized form can be committed and diffed like a benchmark.
struct CostReport {
  struct PhaseCost {
    std::string name;
    std::string count;  ///< manifest count expression
    std::string term;   ///< count × Σ site multiplicities, canonical
    std::vector<std::string> sites;  ///< "file:function tag ×mult" per site
  };
  struct StackCost {
    std::string name;
    std::string model_call;  ///< manifest expression
    std::string analytical;  ///< closed form, canonical polynomial
    std::string derived;     ///< Σ phase terms, canonical polynomial
    bool match = false;
    std::vector<PhaseCost> phases;
  };
  std::vector<StackCost> stacks;
};

/// Scans every .hpp/.cpp under `root` against the manifest. `flow` is
/// lifecheck's extracted flow graph for the same tree (used to validate the
/// manifest's modules/tags; stale entries throw). When `cost` is non-null
/// it receives the derived polynomials. When `tree` is non-null it is used
/// instead of re-reading the root (the abcheck driver loads the tree once).
/// Throws std::runtime_error on structural errors: unknown modules/tags,
/// unparseable model functions, missing quorum units.
Report analyze(const std::filesystem::path& root, const Manifest& manifest,
               const lifecheck::FlowGraph& flow, CostReport* cost = nullptr,
               const analyzer::SourceTree* tree = nullptr);

/// Key-sorted, array-stable serialization of the derived cost model, fit
/// for committing and gating with tools/benchdiff.
std::string cost_to_json(const CostReport& cost);

}  // namespace costcheck
