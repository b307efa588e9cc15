// analyzer_common — the token-level C++ scanning substrate shared by the
// repo's four static analyzers (tools/modcheck, tools/wirecheck,
// tools/lifecheck, tools/costcheck), all run by tools/abcheck.
//
// The analyzers are deliberately not C++ front-ends: they strip comments
// and string literals, tokenize, and pattern-match. That is enough for the
// rule families they enforce, costs no dependencies, and runs in
// milliseconds as a CTest step. This header holds the lexing layer; see
// source.hpp for the shared parse of the tree, manifest.hpp for the
// manifest reader, diagnostics.hpp for reporting, and suppress.hpp for the
// shared `<tool>:allow(rule): justification` lifecycle.
#pragma once

#include <string>
#include <vector>

namespace analyzer {

struct Token {
  std::string text;
  int line;
  bool ident;
};

std::string trim(const std::string& s);
std::vector<std::string> split_ws(const std::string& s);

/// Splits `text` into lines (getline semantics; no trailing empty line).
std::vector<std::string> split_lines(const std::string& text);

/// Removes comments and the contents of string/char literals while keeping
/// line structure intact (so token line numbers match the source).
std::vector<std::string> strip_comments(const std::vector<std::string>& lines);

std::vector<Token> tokenize(const std::vector<std::string>& code_lines);

bool tok_is(const std::vector<Token>& t, std::size_t i, const char* s);

/// True when tokens[i] is qualified as std:: (i.e. preceded by "std::").
bool std_qualified(const std::vector<Token>& t, std::size_t i);

/// True when tokens[i] is a member access (preceded by "." or "->").
bool member_access(const std::vector<Token>& t, std::size_t i);

/// Skips a balanced <...> starting at the '<' at index i; returns the index
/// just past the matching '>'. Returns i when tokens[i] is not '<'.
std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i);

}  // namespace analyzer
