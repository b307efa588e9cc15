// wirecheck — whole-program static verification of the wire contracts the
// paper's byte accounting depends on.
//
// Every message in this repo is hand-encoded through util::ByteWriter and
// hand-decoded through util::ByteReader; the §5.2 message/byte counts (and
// PR 4's exact cross-validation) are only as honest as those call sequences
// are symmetric. wirecheck makes three contract families a build failure:
//
//   * wire.asym — for every message kind (a `constexpr std::uint8_t kTag`
//     demux constant, or a manifest-declared untagged [format] pair), the
//     Writer call sequence in the encoder must match the Reader call
//     sequence in the decoder in count, width, and order. Sequences are
//     normalized (i64 ≡ u64, raw/rest/rest_payload/position-slices ≡
//     trailing bytes, u32-length + slice ≡ blob_payload ≡ blob,
//     encode_X/decode_X helper calls match by name, and a trailing helper
//     call may pair with trailing bytes kept as an undecoded value) so
//     zero-copy decoders compare equal to their copying encoders.
//   * wire.unhandled / wire.dead — every wire tag that is sent must have a
//     decoder branch and every demux module id / local event type that is
//     sent or raised must have a bind_wire/bind handler somewhere in the
//     scanned tree (and vice versa: decoders, handlers, and tags nobody
//     ever sends are flagged as dead). Application-facing events the tree
//     intentionally leaves to harness code are exempted in the manifest.
//   * hot.alloc / hot.function / hot.copy — files marked hot in the
//     manifest (event queue, network, stack dispatch, channel, and every
//     layer an application payload crosses: adb, abcast, monolithic,
//     consensus, ct, rbcast) must not heap-allocate per message
//     (new/malloc/make_shared/make_unique), construct std::function, or
//     deep-copy payloads (to_bytes/detach, and owned-copy decodes:
//     ByteReader blob(), raw(n), rest().begin() iterator copies); each
//     would undo the zero-copy payload path.
//
// Intentional exceptions use the shared suppression syntax
//   // wirecheck:allow(<rule>): <justification>
// with the same lifecycle rules as modcheck (empty justification and stale
// allows are errors). The scanning substrate is tools/analyzer_common; like
// modcheck, wirecheck is a token-level scanner, not a C++ front-end.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "diagnostics.hpp"
#include "source.hpp"

namespace wirecheck {

// --- Rule identifiers -------------------------------------------------------
// wire.asym             encoder/decoder Writer/Reader sequences differ
// wire.unhandled        tag/event/module id sent or raised with no handler
// wire.dead             tag/event/module id handled but never sent/raised
// hot.alloc             per-message heap allocation in a hot file
// hot.function          std::function construction in a hot file
// hot.copy              payload deep-copy (to_bytes/detach, reader
//                       blob()/raw(n)/rest().begin()) in a hot file
// meta.bad-suppression  wirecheck:allow with missing justification or
//                       unknown rule
// meta.unused-suppression  wirecheck:allow matching no diagnostic

using Diagnostic = analyzer::Diagnostic;
using Report = analyzer::Report;

/// An untagged encoder/decoder pair (no u8 demux constant starts the
/// sequence): both functions must live in `file` and are matched body-wide.
struct Format {
  std::string name;
  std::string file;     ///< path relative to the scanned root
  std::string encoder;  ///< function name (unqualified)
  std::string decoder;  ///< function name (unqualified)
};

struct Manifest {
  /// Files (relative to root) subject to the hot-path hygiene rules.
  std::vector<std::string> hot_files;
  /// Header declaring the EventType/ModuleId registry (kEv*/kMod*
  /// constants); empty disables the cross-reference pass.
  std::string events_registry;
  /// Event/module names exempt from the send/handler cross-reference
  /// (application-facing events handled outside the scanned tree).
  std::vector<std::string> app_events;
  std::vector<Format> formats;

  bool is_hot(const std::string& relative_path) const;
  bool is_app_event(const std::string& name) const;
};

/// Parses a wire.toml-style manifest ([hot], [events], [format <name>]
/// sections). Throws std::runtime_error on malformed input.
Manifest parse_manifest(std::istream& in);
Manifest load_manifest(const std::filesystem::path& file);

/// Scans every .hpp/.cpp under `root` against the three contract families.
/// When `tree` is non-null it is used instead of re-reading the root (the
/// abcheck driver loads and lexes the tree once for all analyzers).
Report analyze(const std::filesystem::path& root, const Manifest& manifest,
               const analyzer::SourceTree* tree = nullptr);

}  // namespace wirecheck
