// analyzer_common — the shared source cache.
//
// Every analyzer in tools/ scans the same .hpp/.cpp set under one root, and
// until the abcheck single-parse refactor each of them re-read and re-lexed
// the tree on its own. load_tree() does that work exactly once: directory
// walk, byte slurp (with UTF-8 BOM stripping), line split, comment/string
// strip, and tokenization. The driver hands the resulting SourceTree to all
// analyzers; a null tree keeps every analyze() entry point self-sufficient
// for fixture tests.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace analyzer {

/// One scanned file with every derived buffer the analyzers consume.
struct SourceFile {
  std::string rel;    ///< path relative to the scanned root (generic form)
  std::string text;   ///< raw bytes, UTF-8 BOM removed
  std::vector<std::string> lines;  ///< split_lines(text)
  std::vector<std::string> code;   ///< strip_comments(lines)
  std::vector<Token> tokens;       ///< tokenize(code)
};

/// The `.hpp/.cpp/.h/.cc` files under a root, sorted by path so every
/// analyzer sees the same deterministic order it used to produce itself.
struct SourceTree {
  std::vector<SourceFile> files;
};

/// Builds a SourceFile from an already-loaded buffer (fixture tests and the
/// per-file analyze entry points use this).
SourceFile make_source_file(const std::string& rel, const std::string& text);

/// Reads and lexes every source file under `root` once.
SourceTree load_tree(const std::filesystem::path& root);

}  // namespace analyzer
