// analyzer_common — the one reader for every analyzer manifest.
//
// All analyzer manifests (layers.toml, wire.toml, life.toml, cost.toml,
// abcheck.toml) share one INI-like syntax:
//
//   # comment (anywhere on a line)
//   [kind arg]          section header; `arg` is optional
//   key = value         entry of the most recent section
//
// read_manifest() handles that syntax once — comments, trimming, a leading
// UTF-8 BOM, header splitting, and the structural errors (unterminated
// header, missing `=`, key outside any section). Each tool then walks the
// returned sections, maps kind/key to its own fields, and keeps its own
// validation. Errors are std::runtime_error("<line>: <msg>");
// load_manifest() adds the "<path>:" prefix.
#pragma once

#include <filesystem>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace analyzer {

struct ManifestEntry {
  int line = 0;  ///< 1-based
  std::string key;
  std::string value;  ///< trimmed; may be empty
};

struct ManifestSection {
  int line = 0;      ///< 1-based line of the header
  std::string kind;  ///< header text up to the first blank
  std::string arg;   ///< trimmed rest of the header; empty when absent
  std::vector<ManifestEntry> entries;

  /// The header as written, normalized: "kind" or "kind arg".
  std::string header() const { return arg.empty() ? kind : kind + " " + arg; }
};

/// Parses a whole manifest into its sections, in file order.
std::vector<ManifestSection> read_manifest(std::istream& in);

/// Throws std::runtime_error("<line>: <msg>") — the error shape every
/// manifest walker reports in, so load_manifest() can prefix the path.
[[noreturn]] void manifest_error(int line, const std::string& msg);

/// Opens `file` and runs `parse(std::istream&)` over it; errors (including
/// the open failure) name the file.
template <typename Parse>
auto load_manifest(const std::filesystem::path& file, Parse parse)
    -> decltype(parse(std::declval<std::istream&>())) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot open manifest " + file.string());
  try {
    return parse(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(file.string() + ":" + e.what());
  }
}

}  // namespace analyzer
