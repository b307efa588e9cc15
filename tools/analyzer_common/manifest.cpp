#include "manifest.hpp"

#include <utility>

#include "lexer.hpp"

namespace analyzer {

void manifest_error(int line, const std::string& msg) {
  throw std::runtime_error(std::to_string(line) + ": " + msg);
}

std::vector<ManifestSection> read_manifest(std::istream& in) {
  std::vector<ManifestSection> sections;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // An editor-added UTF-8 BOM would otherwise glue onto the first key or
    // header and turn a valid manifest into a syntax error.
    if (lineno == 1 && line.compare(0, 3, "\xEF\xBB\xBF") == 0)
      line.erase(0, 3);
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']')
        manifest_error(lineno, "unterminated section header");
      const std::string name = trim(line.substr(1, line.size() - 2));
      const std::size_t sp = name.find_first_of(" \t");
      ManifestSection s;
      s.line = lineno;
      s.kind = name.substr(0, sp);
      if (sp != std::string::npos) s.arg = trim(name.substr(sp + 1));
      sections.push_back(std::move(s));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) manifest_error(lineno, "expected key = value");
    if (sections.empty()) manifest_error(lineno, "key outside any section");
    sections.back().entries.push_back(
        {lineno, trim(line.substr(0, eq)), trim(line.substr(eq + 1))});
  }
  return sections;
}

}  // namespace analyzer
