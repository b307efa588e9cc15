// Unit tests: the wirecheck static analyzer (tools/wirecheck) against the
// fixture mini-trees under tests/wirecheck_fixtures/. Every contract family
// is exercised: encode/decode asymmetry detected (tagged and [format]
// pairs), clean tree passes, dead/unhandled tags and events flagged,
// hot-path hygiene rules fire only in manifest-hot files, and the shared
// suppression lifecycle (justified allows honored; empty justification,
// unknown rule and stale allows all fail).
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "wirecheck.hpp"

namespace {

namespace fs = std::filesystem;
using wirecheck::Diagnostic;
using wirecheck::Report;

fs::path fixture(const std::string& name) {
  return fs::path(WIRECHECK_FIXTURES) / name;
}

Report run_fixture(const std::string& name) {
  auto m = wirecheck::load_manifest(fixture(name) / "wire.toml");
  return wirecheck::analyze(fixture(name) / "src", m);
}

std::size_t count_rule(const Report& r, const std::string& rule,
                       bool suppressed = false) {
  std::size_t n = 0;
  for (const Diagnostic& d : r.diagnostics)
    if (d.rule == rule && d.suppressed == suppressed) ++n;
  return n;
}

bool has_diag_in(const Report& r, const std::string& file,
                 const std::string& rule) {
  for (const Diagnostic& d : r.diagnostics)
    if (d.file == file && d.rule == rule && !d.suppressed) return true;
  return false;
}

TEST(WirecheckFixtures, CleanTreePasses) {
  Report r = run_fixture("clean");
  EXPECT_EQ(r.files_scanned, 5u);
  EXPECT_EQ(r.violations(), 0u) << analyzer::to_json(r, "wirecheck", "clean");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(WirecheckFixtures, AsymmetriesDetected) {
  Report r = run_fixture("asym");
  // Tagged codec: encoder u32 vs decoder u64 on kPing.
  EXPECT_TRUE(has_diag_in(r, "codec.cpp", "wire.asym"));
  // [format] pair: encoder str vs decoder blob.
  EXPECT_TRUE(has_diag_in(r, "record.cpp", "wire.asym"));
  EXPECT_EQ(count_rule(r, "wire.asym"), 2u)
      << analyzer::to_json(r, "wirecheck", "asym");
  EXPECT_EQ(r.violations(), 2u);
}

TEST(WirecheckFixtures, TrailingValueMatchesOnlyAfterEqualPrefix) {
  // A trailing encode_batch pairs with trailing bytes read as a value (the
  // clean fixture's kBatch), but only when every op before it matches:
  // u32 vs u64 in front of it still flags, naming both sequences. The
  // slice reads in the hot file are not copies.
  Report r = run_fixture("tail");
  ASSERT_EQ(count_rule(r, "wire.asym"), 1u)
      << analyzer::to_json(r, "wirecheck", "tail");
  EXPECT_EQ(r.violations(), 1u);
  const Diagnostic& d = r.diagnostics.front();
  EXPECT_NE(d.message.find("[u32 call:batch]"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("[u64 rest]"), std::string::npos) << d.message;
}

TEST(WirecheckFixtures, AsymMessagesNameBothSequences) {
  Report r = run_fixture("asym");
  bool found = false;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.file != "codec.cpp" || d.rule != "wire.asym") continue;
    found = true;
    EXPECT_NE(d.message.find("kPing"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("[u32 u64]"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("[u64 u64]"), std::string::npos) << d.message;
  }
  EXPECT_TRUE(found);
}

TEST(WirecheckFixtures, DeadAndUnhandledDetected) {
  Report r = run_fixture("deadtags");
  // kSentOnly (tag), kEvOrphan (event), kModGhost (module id).
  EXPECT_EQ(count_rule(r, "wire.unhandled"), 3u)
      << analyzer::to_json(r, "wirecheck", "deadtags");
  // kHandledOnly (tag), kEvGhost (event). kEvApp is manifest-exempt.
  EXPECT_EQ(count_rule(r, "wire.dead"), 2u)
      << analyzer::to_json(r, "wirecheck", "deadtags");
  EXPECT_EQ(r.violations(), 5u);
}

TEST(WirecheckFixtures, HotRulesFireOnlyInHotFiles) {
  Report r = run_fixture("hot");
  EXPECT_EQ(count_rule(r, "hot.alloc"), 2u);     // new + make_shared
  EXPECT_EQ(count_rule(r, "hot.function"), 1u);  // std::function member
  // to_bytes(), and the owned-copy decodes blob(), raw(n) and the
  // rest().begin() iterator copy; slice reads and writer calls are fine.
  EXPECT_EQ(count_rule(r, "hot.copy"), 4u);
  // slow.hpp has identical content but is not manifest-hot.
  for (const Diagnostic& d : r.diagnostics)
    EXPECT_EQ(d.file, "fast.hpp") << d.rule << " fired in " << d.file;
  EXPECT_EQ(r.violations(), 7u) << analyzer::to_json(r, "wirecheck", "hot");
}

TEST(WirecheckFixtures, JustifiedSuppressionsHonored) {
  Report r = run_fixture("suppressed");
  EXPECT_EQ(r.violations(), 0u)
      << analyzer::to_json(r, "wirecheck", "suppressed");
  EXPECT_EQ(count_rule(r, "wire.asym", /*suppressed=*/true), 1u);
  EXPECT_EQ(count_rule(r, "hot.function", /*suppressed=*/true), 1u);
  for (const Diagnostic& d : r.diagnostics) {
    if (d.suppressed) {
      EXPECT_FALSE(d.justification.empty());
    }
  }
}

TEST(WirecheckFixtures, SuppressionLifecycleEnforced) {
  Report r = run_fixture("bad_suppression");
  // Empty justification + unknown rule are malformed.
  EXPECT_EQ(count_rule(r, "meta.bad-suppression"), 2u);
  // Malformed allows suppress nothing: both `new`s stay flagged.
  EXPECT_EQ(count_rule(r, "hot.alloc"), 2u);
  // The well-formed allow with nothing to match is stale.
  EXPECT_EQ(count_rule(r, "meta.unused-suppression"), 1u);
  EXPECT_EQ(r.violations(), 5u)
      << analyzer::to_json(r, "wirecheck", "bad_suppression");
}

TEST(WirecheckManifest, ParsesHotEventsAndFormats) {
  std::istringstream in(
      "# comment\n"
      "[hot]\nfiles = a.hpp b.cpp\n"
      "[events]\nregistry = ev.hpp\napp = kEvX kEvY\n"
      "[format f.one]\nfile = c.cpp\nencoder = enc\ndecoder = dec\n");
  wirecheck::Manifest m = wirecheck::parse_manifest(in);
  ASSERT_EQ(m.hot_files.size(), 2u);
  EXPECT_TRUE(m.is_hot("a.hpp"));
  EXPECT_FALSE(m.is_hot("c.cpp"));
  EXPECT_EQ(m.events_registry, "ev.hpp");
  EXPECT_TRUE(m.is_app_event("kEvY"));
  EXPECT_FALSE(m.is_app_event("kEvZ"));
  ASSERT_EQ(m.formats.size(), 1u);
  EXPECT_EQ(m.formats[0].name, "f.one");
  EXPECT_EQ(m.formats[0].encoder, "enc");
}

TEST(WirecheckManifest, RejectsIncompleteFormat) {
  std::istringstream in("[format f]\nfile = c.cpp\nencoder = enc\n");
  EXPECT_THROW(wirecheck::parse_manifest(in), std::runtime_error);
}

TEST(WirecheckManifest, RejectsDuplicateFormat) {
  std::istringstream in(
      "[format f]\nfile = c.cpp\nencoder = e\ndecoder = d\n"
      "[format f]\nfile = c.cpp\nencoder = e\ndecoder = d\n");
  EXPECT_THROW(wirecheck::parse_manifest(in), std::runtime_error);
}

TEST(WirecheckManifest, RejectsUnknownSectionAndKey) {
  std::istringstream bad_section("[nope]\nx = y\n");
  EXPECT_THROW(wirecheck::parse_manifest(bad_section), std::runtime_error);
  std::istringstream bad_key("[hot]\npaths = a\n");
  EXPECT_THROW(wirecheck::parse_manifest(bad_key), std::runtime_error);
}

TEST(WirecheckReport, JsonNamesToolAndRules) {
  Report r = run_fixture("asym");
  std::string json = analyzer::to_json(r, "wirecheck", "fixture");
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"wirecheck\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\": 2"), std::string::npos);
  EXPECT_NE(json.find("wire.asym"), std::string::npos);
}

// The repo's own wire manifest must stay loadable and the real tree clean;
// this duplicates the wirecheck part of the abcheck_src CTest entry at the
// library level so a broken manifest fails unit tests too, with a readable
// report.
TEST(WirecheckRepo, RealTreeHasNoUnsuppressedViolations) {
  fs::path repo_src = fs::path(WIRECHECK_REPO_ROOT) / "src";
  fs::path manifest =
      fs::path(WIRECHECK_REPO_ROOT) / "tools" / "wirecheck" / "wire.toml";
  auto m = wirecheck::load_manifest(manifest);
  Report r = wirecheck::analyze(repo_src, m);
  EXPECT_EQ(r.violations(), 0u) << analyzer::to_json(r, "wirecheck", "src");
  EXPECT_GT(r.files_scanned, 50u);
  // The intentional hot-path exceptions stay visible as suppressions.
  EXPECT_GE(r.suppressions(), 7u);
}

}  // namespace
