// lifecheck — whole-program lifecycle analysis for the event-driven state
// machines the paper's protocol stacks are made of.
//
// Every protocol in this repo manages its own lifecycle state by hand:
// one-shot runtime::TimerId fields that must be cancelled on teardown,
// per-instance consensus records that must be erased once decided (or
// k-deep pipelining makes them unbounded), and switch-based demultiplexers
// that silently drop messages when a new enumerator is forgotten. lifecheck
// makes those invariants a build failure:
//
//   * timer.leak  — a stored TimerId field (declared `runtime::TimerId x =
//     runtime::kInvalidTimer`) is armed via `x = ...set_timer(...)` but the
//     translation-unit pair (header + source sharing a path stem) never
//     passes it to cancel_timer: there is no teardown/decide path that can
//     disarm it.
//   * timer.stale — an arm site whose set_timer call (including the
//     callback body) never mentions the field it was assigned to: the
//     callback can neither clear nor re-validate its own id, so the field
//     keeps pointing at a dead timer after it fires.
//   * timer.lost  — a set_timer return value is discarded (not assigned,
//     returned, or passed along) in a translation unit that cancels timers
//     elsewhere: the id is unrecoverable, so that timer can never be
//     cancelled. Units that never cancel anything (pure periodic re-arm
//     loops like the failure detector) are exempt.
//   * inst.leak   — a std:: container field (trailing-underscore member in
//     a manifest-listed [instances] file) with no erase/clear/pop/extract
//     release site in its translation unit: per-instance state accumulates
//     without bound as instances decide.
//   * state.switch — a switch over a protocol enum (enum/enum class
//     definition found anywhere in the tree), over the kEv*/kMod* registry,
//     or over a file's wire-tag family, that has no default and misses
//     enumerators: new message kinds would be silently dropped.
//   * flow.unreachable — a bind/bind_wire handler for a registry event or
//     module id that no send_wire/send_wire_to_others/Event::local site in
//     the tree can reach (manifest [events] app names are exempt, matching
//     wirecheck).
//
// lifecheck also extracts the module×event flow graph behind the
// flow.unreachable rule (who produces and who handles every registry
// channel, plus the wire tags each module speaks) as JSON and DOT, so the
// protocol message topology can be committed and diffed like a benchmark.
//
// Intentional exceptions use the shared suppression syntax
//   // lifecheck:allow(<rule>): <justification>
// with the same lifecycle rules as modcheck/wirecheck (empty justification
// and stale allows are errors). Like its siblings, lifecheck is a
// token-level scanner on tools/analyzer_common, not a C++ front-end.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "diagnostics.hpp"
#include "source.hpp"

namespace lifecheck {

// --- Rule identifiers -------------------------------------------------------
// timer.leak            TimerId field armed but never passed to cancel_timer
// timer.stale           set_timer call body never mentions its own id field
// timer.lost            set_timer return discarded in a unit that cancels
// inst.leak             per-instance container field with no release site
// state.switch          non-exhaustive switch over a protocol enum/tag set
// flow.unreachable      bound handler no send/raise path can reach
// meta.bad-suppression  lifecheck:allow with missing justification or
//                       unknown rule
// meta.unused-suppression  lifecheck:allow matching no diagnostic

using Diagnostic = analyzer::Diagnostic;
using Report = analyzer::Report;

struct Manifest {
  /// Files (relative to root) whose trailing-underscore std:: container
  /// fields hold per-instance protocol state and need release sites.
  std::vector<std::string> instance_files;
  /// Header declaring the EventType/ModuleId registry (kEv*/kMod*
  /// constants); empty disables the flow pass.
  std::string events_registry;
  /// Event/module names exempt from flow.unreachable (application-facing
  /// channels produced or consumed outside the scanned tree).
  std::vector<std::string> app_events;

  bool is_instance_file(const std::string& relative_path) const;
  bool is_app_event(const std::string& name) const;
};

/// Parses a life.toml-style manifest ([instances], [events] sections).
/// Throws std::runtime_error with a "<line>: message" description.
Manifest parse_manifest(std::istream& in);
Manifest load_manifest(const std::filesystem::path& file);

/// The extracted module×event flow graph. Keys are registry names (kMod*,
/// kEv*); file sets hold root-relative paths.
struct FlowGraph {
  struct Channel {
    std::set<std::string> producers;  ///< files that send/raise the channel
    std::set<std::string> handlers;   ///< files that bind a handler
    std::set<std::string> tags;       ///< wire tags spoken by producers
  };
  std::map<std::string, Channel> modules;  ///< kMod* demux targets
  std::map<std::string, Channel> events;   ///< kEv* local events
  /// Channels with a handler but no producer (app names excluded); the
  /// same set the flow.unreachable rule flags, kept here regardless of
  /// suppressions so the committed topology never hides an edge.
  std::vector<std::string> unreachable;
};

/// Scans every .hpp/.cpp under `root` against the lifecycle rules. When
/// `flow` is non-null it is filled with the extracted flow graph. When
/// `tree` is non-null it is used instead of re-reading the root (the
/// abcheck driver loads and lexes the tree once for all analyzers).
Report analyze(const std::filesystem::path& root, const Manifest& manifest,
               FlowGraph* flow = nullptr,
               const analyzer::SourceTree* tree = nullptr);

/// Flow-graph serializations. The JSON is key-sorted and array-stable so it
/// can be committed and gated with tools/benchdiff; the DOT mirrors it for
/// human consumption.
std::string flow_to_json(const FlowGraph& g);
std::string flow_to_dot(const FlowGraph& g);

}  // namespace lifecheck
