// modcheck — static enforcement of module black-box boundaries and
// simulator determinism.
//
// The DSN'07 comparison is only meaningful if the modular stack's
// microprotocols really are black boxes (no module exploits a neighbour's
// internals) and if simulated runs are bit-reproducible (the byte-identical
// bench guarantee PR 1/2 rely on). modcheck makes both invariants a build
// failure instead of a code-review hope:
//
//   * layering rules — a manifest (tools/modcheck/layers.toml) declares the
//     layer DAG over src/ directories; an #include crossing a non-declared
//     edge, or reaching a header the owning layer did not export as public,
//     is a diagnostic. The manifest itself is validated (unknown deps,
//     cycles).
//   * determinism rules — files in the manifest's determinism scope must
//     not call wall clocks or ambient RNGs, must not iterate unordered
//     containers or key ordered containers by pointer (both orders vary
//     across runs/ASLR), and must not spawn threads.
//
// Intentional exceptions are written in the code as
//   // modcheck:allow(<rule>): <justification>
// which suppresses <rule> on that line and the next; an empty justification
// is itself an error, and suppressions that match nothing are flagged so
// they cannot rot.
//
// The analyzer is deliberately a token-level scanner, not a full C++
// front-end: it strips comments/strings, tokenizes, and pattern-matches.
// The scanning substrate (lexer, diagnostics, suppression lifecycle) lives
// in tools/analyzer_common and is shared with wirecheck; this library holds
// only the layer/determinism rule logic.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "diagnostics.hpp"
#include "source.hpp"

namespace modcheck {

// --- Rule identifiers -------------------------------------------------------
// layer.forbidden       include crosses a layer edge not in the manifest
// layer.private-header  include reaches a non-public header of another layer
// layer.unmapped        file lives under root but under no declared layer
// det.rand              std::rand/srand/rand_r/drand48 or <random> engines
//                       outside util::Rng
// det.random-device     std::random_device (ambient, nondeterministic seed)
// det.wall-clock        system/steady/high_resolution clocks, time(),
//                       clock(), gettimeofday, clock_gettime
// det.unordered-iter    iteration over std::unordered_{map,set,...}
// det.pointer-order     std::map/set/less keyed or ordered by pointer value
// det.thread            std::thread/jthread/async/hardware_concurrency
// meta.bad-suppression  modcheck:allow with missing justification or
//                       unknown rule
// meta.unused-suppression  modcheck:allow matching no diagnostic

using Diagnostic = analyzer::Diagnostic;
using Report = analyzer::Report;

struct Layer {
  std::string name;
  std::string path;  ///< directory relative to root, e.g. "util"
  std::vector<std::string> deps;  ///< layer names this layer may include
  /// Headers (relative to the layer dir) other layers may include. Empty
  /// means every header is public.
  std::vector<std::string> public_headers;
};

struct Manifest {
  std::vector<Layer> layers;
  /// Layer names whose files are subject to the determinism rules.
  std::vector<std::string> determinism_layers;

  const Layer* find(const std::string& name) const;
  bool deterministic(const std::string& layer_name) const;
};

/// Parses a layers.toml-style manifest. Throws std::runtime_error with a
/// "<line>: message" description on malformed input, unknown dep names, or
/// a cyclic layer graph.
Manifest parse_manifest(std::istream& in);
Manifest load_manifest(const std::filesystem::path& file);

/// Scans every .hpp/.cpp under `root` against the manifest rules. When
/// `tree` is non-null it is used instead of re-reading the root (the
/// abcheck driver loads and lexes the tree once for all analyzers).
Report analyze(const std::filesystem::path& root, const Manifest& manifest,
               const analyzer::SourceTree* tree = nullptr);

/// Analyzes a single already-loaded file (fixture tests use this).
void analyze_file(const std::string& relative_path, const std::string& text,
                  const Manifest& manifest, const std::filesystem::path& root,
                  std::vector<Diagnostic>& out);

}  // namespace modcheck
