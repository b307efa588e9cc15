// Input-robustness tests shared by all four analyzers: a tree containing a
// CRLF-terminated source file, a UTF-8-BOM-prefixed header, and a module
// directory with no sources must neither crash any analyzer nor shift its
// diagnostic line numbers. The shared manifest reader gets the same
// treatment: a BOM-prefixed manifest parses, and syntax errors name the
// 1-based line.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "costcheck.hpp"
#include "lifecheck.hpp"
#include "manifest.hpp"
#include "modcheck.hpp"
#include "source.hpp"
#include "wirecheck.hpp"

namespace fs = std::filesystem;

namespace {

const fs::path kRoot = fs::path(ANALYZER_ROBUSTNESS_FIXTURES) / "src";

}  // namespace

TEST(AnalyzerRobustness, TreeLoadsWithExactLines) {
  const analyzer::SourceTree tree = analyzer::load_tree(kRoot);
  // .gitkeep in the empty module dir is not a source file.
  ASSERT_EQ(tree.files.size(), 3u);
  for (const auto& f : tree.files) {
    // The raw text keeps its original bytes, but no '\r' may leak into the
    // split lines (they feed suppression parsing) and no BOM into line 1.
    for (const auto& line : f.lines)
      EXPECT_TRUE(line.empty() || line.back() != '\r') << f.rel;
    ASSERT_FALSE(f.lines.empty()) << f.rel;
    EXPECT_EQ(f.lines[0].rfind("// ", 0), 0u) << f.rel;
  }
}

TEST(AnalyzerRobustness, ModcheckAndWirecheckSurvive) {
  // Default manifests: the point is that odd encodings do not crash the
  // scan and every finding stays well-formed. With no layers declared,
  // modcheck reports exactly one layer.unmapped per source file (the
  // .gitkeep-only module dir contributes none).
  modcheck::Report mr = modcheck::analyze(kRoot, modcheck::Manifest{});
  EXPECT_EQ(mr.files_scanned, 3u);
  EXPECT_EQ(mr.violations(), 3u);
  for (const auto& d : mr.diagnostics) {
    EXPECT_EQ(d.rule, "layer.unmapped");
    EXPECT_EQ(d.line, 1);
  }
  // The fixture sends tags nothing decodes; wirecheck must anchor those
  // findings on the exact CRLF lines (u8 writes on 14/20, send on 15).
  wirecheck::Report wr = wirecheck::analyze(kRoot, wirecheck::Manifest{});
  EXPECT_EQ(wr.files_scanned, 3u);
  EXPECT_EQ(wr.violations(), 3u);
  for (const auto& d : wr.diagnostics) {
    EXPECT_EQ(d.rule, "wire.unhandled");
    EXPECT_EQ(d.file, "proto.cpp");
    EXPECT_TRUE(d.line == 14 || d.line == 15 || d.line == 20) << d.line;
  }
}

TEST(AnalyzerRobustness, LifecheckReadsBomRegistry) {
  lifecheck::Manifest life;
  life.events_registry = "events.hpp";
  lifecheck::FlowGraph flow;
  lifecheck::analyze(kRoot, life, &flow);
  // The BOM did not glue onto the registry's first tokens: the module
  // declaration and the CRLF producer both made it into the flow graph.
  ASSERT_EQ(flow.modules.count("kModProto"), 1u);
  EXPECT_EQ(flow.modules.at("kModProto").producers.count("proto.cpp"), 1u);
  EXPECT_EQ(flow.modules.at("kModProto").tags.count("kPing"), 1u);
}

TEST(AnalyzerRobustness, CostcheckLinesAreExactUnderCrlfAndBom) {
  const fs::path fixdir = fs::path(ANALYZER_ROBUSTNESS_FIXTURES);
  costcheck::Manifest manifest =
      costcheck::load_manifest(fixdir / "cost.toml");
  lifecheck::Manifest life;
  life.events_registry = manifest.flow_registry;
  lifecheck::FlowGraph flow;
  lifecheck::analyze(kRoot, life, &flow);
  costcheck::CostReport cost;
  costcheck::Report r = costcheck::analyze(kRoot, manifest, flow, &cost);

  ASSERT_EQ(cost.stacks.size(), 1u);
  EXPECT_TRUE(cost.stacks[0].match);

  // proto.cpp is CRLF throughout; the seeded '>' flip sits on line 27 and
  // the justified chatter suppression covers line 22 from line 21.
  bool flip = false, chatter = false, stale = false;
  for (const auto& d : r.diagnostics) {
    if (d.rule == "quorum.threshold" && !d.suppressed) {
      EXPECT_EQ(d.file, "proto.cpp");
      EXPECT_EQ(d.line, 27);
      flip = true;
    }
    if (d.rule == "cost.unbudgeted_send") {
      EXPECT_TRUE(d.suppressed);
      EXPECT_EQ(d.file, "proto.cpp");
      EXPECT_EQ(d.line, 22);
      EXPECT_NE(d.justification.find("debug-only"), std::string::npos);
      chatter = true;
    }
    // events.hpp starts with a BOM; its stale allow still lands on line 12.
    if (d.rule == "meta.unused-suppression") {
      EXPECT_EQ(d.file, "events.hpp");
      EXPECT_EQ(d.line, 12);
      stale = true;
    }
  }
  EXPECT_TRUE(flip);
  EXPECT_TRUE(chatter);
  EXPECT_TRUE(stale);
  EXPECT_EQ(r.violations(), 2u);  // the flip + the stale allow
}

namespace {

const std::string kBom = "\xEF\xBB\xBF";

std::vector<analyzer::ManifestSection> read(const std::string& text) {
  std::istringstream in(text);
  return analyzer::read_manifest(in);
}

/// The message read_manifest throws for `text`, or "" when it parses.
std::string read_error(const std::string& text) {
  try {
    read(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(ManifestReader, EveryAnalyzerAcceptsBomPrefixedManifest) {
  {
    std::istringstream in(kBom + "# c\n[layer a]\npath = a\n");
    const modcheck::Manifest m = modcheck::parse_manifest(in);
    ASSERT_EQ(m.layers.size(), 1u);
    EXPECT_EQ(m.layers[0].name, "a");
    EXPECT_EQ(m.layers[0].path, "a");
  }
  {
    std::istringstream in(kBom + "[hot]\nfiles = a.cpp\n");
    EXPECT_TRUE(wirecheck::parse_manifest(in).is_hot("a.cpp"));
  }
  {
    std::istringstream in(kBom + "[events]\nregistry = ev.hpp\n");
    EXPECT_EQ(lifecheck::parse_manifest(in).events_registry, "ev.hpp");
  }
  {
    std::istringstream in(kBom + "[model]\nfile = m.cpp\n");
    EXPECT_EQ(costcheck::parse_manifest(in).model_file, "m.cpp");
  }
}

TEST(ManifestReader, SplitsHeadersAndEntries) {
  const auto secs = read(
      "# leading comment\n"
      "[plain]\n"
      "  key = some value  # trailing comment\n"
      "empty =\n"
      "[kind   spaced arg ]\n"
      "a=b=c\n");
  ASSERT_EQ(secs.size(), 2u);
  EXPECT_EQ(secs[0].line, 2);
  EXPECT_EQ(secs[0].kind, "plain");
  EXPECT_EQ(secs[0].arg, "");
  EXPECT_EQ(secs[0].header(), "plain");
  ASSERT_EQ(secs[0].entries.size(), 2u);
  EXPECT_EQ(secs[0].entries[0].line, 3);
  EXPECT_EQ(secs[0].entries[0].key, "key");
  EXPECT_EQ(secs[0].entries[0].value, "some value");
  EXPECT_EQ(secs[0].entries[1].key, "empty");
  EXPECT_EQ(secs[0].entries[1].value, "");
  EXPECT_EQ(secs[1].kind, "kind");
  EXPECT_EQ(secs[1].arg, "spaced arg");
  EXPECT_EQ(secs[1].header(), "kind spaced arg");
  ASSERT_EQ(secs[1].entries.size(), 1u);
  EXPECT_EQ(secs[1].entries[0].key, "a");
  EXPECT_EQ(secs[1].entries[0].value, "b=c");
}

TEST(ManifestReader, CrlfLinesParse) {
  const auto secs = read("[s x]\r\nk = v\r\n");
  ASSERT_EQ(secs.size(), 1u);
  EXPECT_EQ(secs[0].arg, "x");
  ASSERT_EQ(secs[0].entries.size(), 1u);
  EXPECT_EQ(secs[0].entries[0].value, "v");
}

TEST(ManifestReader, StructuralErrorsNameTheLine) {
  EXPECT_EQ(read_error("# c\nkey = v\n"), "2: key outside any section");
  EXPECT_EQ(read_error("[s]\n\n[open\n"), "3: unterminated section header");
  EXPECT_EQ(read_error("[s]\nno equals here\n"), "2: expected key = value");
  // A BOM does not shift line numbers.
  EXPECT_EQ(read_error(kBom + "[s]\nbad\n"), "2: expected key = value");
}

TEST(ManifestReader, ToolErrorsNameTheLineAndLoadNamesTheFile) {
  std::istringstream in("[layer a]\npath = a\nbogus = 1\n");
  try {
    modcheck::parse_manifest(in);
    FAIL() << "unknown key accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("3: ", 0), 0u) << e.what();
  }
  const fs::path bad = fs::temp_directory_path() / "analyzer_bad_manifest.toml";
  std::ofstream(bad) << "[layer a]\npath = a\nbogus = 1\n";
  try {
    modcheck::load_manifest(bad);
    FAIL() << "unknown key accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(bad.string() + ":3: ", 0), 0u)
        << e.what();
  }
  fs::remove(bad);
  const fs::path missing = fs::path(ANALYZER_ROBUSTNESS_FIXTURES) / "nope.toml";
  try {
    modcheck::load_manifest(missing);
    FAIL() << "missing manifest accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot open manifest " + missing.string());
  }
}
