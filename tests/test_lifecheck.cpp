// lifecheck self-tests: fixture mini-trees prove each rule fires (mutation
// smoke), the suppression lifecycle stays strict, the flow graph extraction
// is stable, and the real tree satisfies its own lifecycle manifest.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "lifecheck.hpp"
#include "sarif.hpp"

namespace fs = std::filesystem;

namespace {

fs::path fixture(const std::string& name) {
  return fs::path(LIFECHECK_FIXTURES) / name;
}

lifecheck::Report run_fixture(const std::string& name,
                              lifecheck::FlowGraph* flow = nullptr) {
  const fs::path dir = fixture(name);
  lifecheck::Manifest manifest =
      lifecheck::load_manifest(dir / "life.toml");
  return lifecheck::analyze(dir / "src", manifest, flow);
}

int count_rule(const lifecheck::Report& r, const std::string& rule,
               bool suppressed = false) {
  int n = 0;
  for (const auto& d : r.diagnostics)
    if (d.rule == rule && d.suppressed == suppressed) ++n;
  return n;
}

bool has_diag_in(const lifecheck::Report& r, const std::string& file,
                 const std::string& rule) {
  for (const auto& d : r.diagnostics)
    if (d.file == file && d.rule == rule) return true;
  return false;
}

}  // namespace

TEST(Lifecheck, CleanTreePasses) {
  lifecheck::Report r = run_fixture("clean");
  EXPECT_EQ(r.files_scanned, 3u);
  EXPECT_EQ(r.violations(), 0u);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Lifecheck, TimerLeakAndLostDetected) {
  lifecheck::Report r = run_fixture("timer_leak");
  EXPECT_EQ(count_rule(r, "timer.leak"), 1);
  EXPECT_TRUE(has_diag_in(r, "leaky.hpp", "timer.leak"));
  // lost.cpp cancels a timer elsewhere yet discards this set_timer id.
  EXPECT_EQ(count_rule(r, "timer.lost"), 1);
  EXPECT_TRUE(has_diag_in(r, "lost.cpp", "timer.lost"));
  // The leaky unit never cancels: its discarded ids are NOT timer.lost.
  EXPECT_FALSE(has_diag_in(r, "leaky.cpp", "timer.lost"));
  EXPECT_EQ(r.violations(), 2u);
}

TEST(Lifecheck, StaleCallbackDetected) {
  lifecheck::Report r = run_fixture("stale_callback");
  EXPECT_EQ(count_rule(r, "timer.stale"), 1);
  EXPECT_TRUE(has_diag_in(r, "stale.cpp", "timer.stale"));
  // The unit cancels the timer, so there is no leak on top of the stale.
  EXPECT_EQ(count_rule(r, "timer.leak"), 0);
  EXPECT_EQ(r.violations(), 1u);
}

TEST(Lifecheck, InstLeakDetected) {
  lifecheck::Report r = run_fixture("inst_leak");
  EXPECT_EQ(count_rule(r, "inst.leak"), 1);
  EXPECT_TRUE(has_diag_in(r, "table.hpp", "inst.leak"));
  bool found = false;
  for (const auto& d : r.diagnostics)
    if (d.rule == "inst.leak" &&
        d.message.find("open_") != std::string::npos)
      found = true;
  EXPECT_TRUE(found) << "diagnostic names the leaking field";
  EXPECT_EQ(r.violations(), 1u);
}

TEST(Lifecheck, NonexhaustiveSwitchDetected) {
  lifecheck::Report r = run_fixture("nonexhaustive_switch");
  EXPECT_EQ(count_rule(r, "state.switch"), 1);
  bool names_missing = false;
  for (const auto& d : r.diagnostics)
    if (d.rule == "state.switch" &&
        d.message.find("kStop") != std::string::npos)
      names_missing = true;
  EXPECT_TRUE(names_missing) << "diagnostic lists the missing enumerator";
  EXPECT_EQ(r.violations(), 1u);
}

TEST(Lifecheck, JustifiedSuppressionsHonored) {
  lifecheck::Report r = run_fixture("suppressed");
  EXPECT_EQ(r.violations(), 0u);
  EXPECT_EQ(count_rule(r, "timer.leak", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(r, "state.switch", /*suppressed=*/true), 1);
  for (const auto& d : r.diagnostics) {
    EXPECT_TRUE(d.suppressed);
    EXPECT_FALSE(d.justification.empty());
  }
}

TEST(Lifecheck, SuppressionLifecycleEnforced) {
  lifecheck::Report r = run_fixture("bad_suppression");
  // Unknown rule + empty justification.
  EXPECT_EQ(count_rule(r, "meta.bad-suppression"), 2);
  // A valid allow that matches nothing is stale.
  EXPECT_EQ(count_rule(r, "meta.unused-suppression"), 1);
  // The actual finding is far from any allow and stays unsuppressed.
  EXPECT_EQ(count_rule(r, "timer.leak"), 1);
  EXPECT_EQ(r.violations(), 4u);
}

TEST(Lifecheck, DeadFlowDetectedAndGraphExtracted) {
  lifecheck::FlowGraph flow;
  lifecheck::Report r = run_fixture("dead_flow", &flow);
  EXPECT_EQ(count_rule(r, "flow.unreachable"), 1);
  EXPECT_TRUE(has_diag_in(r, "proto.cpp", "flow.unreachable"));

  ASSERT_EQ(flow.unreachable.size(), 1u);
  EXPECT_EQ(flow.unreachable[0], "kEvOrphan");
  // Every registry channel appears, reachable or not.
  ASSERT_TRUE(flow.events.count("kEvPing"));
  ASSERT_TRUE(flow.events.count("kEvOrphan"));
  ASSERT_TRUE(flow.modules.count("kModProto"));
  EXPECT_EQ(flow.events.at("kEvPing").producers.count("proto.cpp"), 1u);
  EXPECT_EQ(flow.events.at("kEvPing").handlers.count("proto.cpp"), 1u);
  EXPECT_TRUE(flow.events.at("kEvOrphan").producers.empty());
  // Wire tags spoken by the module's senders ride along.
  EXPECT_EQ(flow.modules.at("kModProto").tags.count("kHello"), 1u);
}

TEST(Lifecheck, FlowSerializationsAreStable) {
  lifecheck::FlowGraph flow;
  run_fixture("dead_flow", &flow);
  const std::string json = lifecheck::flow_to_json(flow);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kModProto\""), std::string::npos);
  EXPECT_NE(json.find("\"unreachable\": [\"kEvOrphan\"]"),
            std::string::npos);
  // Serialization is deterministic: same graph, same bytes.
  EXPECT_EQ(json, lifecheck::flow_to_json(flow));

  const std::string dot = lifecheck::flow_to_dot(flow);
  EXPECT_NE(dot.find("digraph abcast_flow"), std::string::npos);
  EXPECT_NE(dot.find("\"proto.cpp\" -> \"kModProto\""), std::string::npos);
  EXPECT_NE(dot.find("\"kEvOrphan\" [color=red"), std::string::npos);
}

TEST(Lifecheck, ManifestParses) {
  std::istringstream in(
      "# comment\n"
      "[instances]\n"
      "files = a.hpp a.cpp\n"
      "[events]\n"
      "registry = ev.hpp\n"
      "app = kEvExtern\n");
  lifecheck::Manifest m = lifecheck::parse_manifest(in);
  ASSERT_EQ(m.instance_files.size(), 2u);
  EXPECT_TRUE(m.is_instance_file("a.hpp"));
  EXPECT_FALSE(m.is_instance_file("b.hpp"));
  EXPECT_EQ(m.events_registry, "ev.hpp");
  EXPECT_TRUE(m.is_app_event("kEvExtern"));
}

TEST(Lifecheck, ManifestRejectsMalformedInput) {
  {
    std::istringstream in("[nope]\n");
    EXPECT_THROW(lifecheck::parse_manifest(in), std::runtime_error);
  }
  {
    std::istringstream in("files = a.hpp\n");  // key outside a section
    EXPECT_THROW(lifecheck::parse_manifest(in), std::runtime_error);
  }
  {
    std::istringstream in("[instances]\nbogus = x\n");
    EXPECT_THROW(lifecheck::parse_manifest(in), std::runtime_error);
  }
}

TEST(Lifecheck, JsonNamesToolAndRules) {
  lifecheck::Report r = run_fixture("timer_leak");
  const std::string json = analyzer::to_json(r, "lifecheck", "src");
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"lifecheck\""), std::string::npos);
  EXPECT_NE(json.find("timer.leak"), std::string::npos);
}

TEST(Lifecheck, SarifCarriesResultsAndSuppressions) {
  lifecheck::Report leak = run_fixture("timer_leak");
  lifecheck::Report quiet = run_fixture("suppressed");
  const std::string sarif = analyzer::to_sarif(
      {{"lifecheck", "src", &leak}, {"lifecheck", "src", &quiet}});
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"timer.leak\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\""), std::string::npos);
  // Suppressed findings ride along as inSource suppressions with their
  // justification instead of being dropped.
  EXPECT_NE(sarif.find("\"kind\": \"inSource\""), std::string::npos);
  EXPECT_NE(sarif.find("harness disarms this timer"), std::string::npos);
  // Every result carries a contextHash/v1 partial fingerprint even without
  // a source tree (rule + path only)…
  EXPECT_NE(sarif.find("\"partialFingerprints\""), std::string::npos);
  EXPECT_NE(sarif.find("\"contextHash/v1\""), std::string::npos);

  // …and with the scanned tree attached the flagged line's text joins the
  // hash, so the fingerprint survives pure line-number shifts but changes
  // with the context line. Serialization stays deterministic either way.
  const analyzer::SourceTree tree =
      analyzer::load_tree(fixture("timer_leak") / "src");
  const std::string with_sources =
      analyzer::to_sarif({{"lifecheck", "src", &leak, &tree}});
  EXPECT_NE(with_sources.find("\"contextHash/v1\""), std::string::npos);
  EXPECT_NE(with_sources, analyzer::to_sarif({{"lifecheck", "src", &leak}}));
  EXPECT_EQ(with_sources,
            analyzer::to_sarif({{"lifecheck", "src", &leak, &tree}}));
}

TEST(Lifecheck, RealTreeHasNoUnsuppressedViolations) {
  lifecheck::Manifest manifest = lifecheck::load_manifest(
      fs::path(LIFECHECK_REPO_ROOT) / "tools" / "lifecheck" / "life.toml");
  lifecheck::FlowGraph flow;
  lifecheck::Report r = lifecheck::analyze(
      fs::path(LIFECHECK_REPO_ROOT) / "src", manifest, &flow);
  EXPECT_EQ(r.violations(), 0u)
      << "src/ must satisfy its own lifecycle manifest";
  EXPECT_GT(r.files_scanned, 50u);
  EXPECT_GE(r.suppressions(), 4u);
  for (const auto& d : r.diagnostics)
    if (d.suppressed) EXPECT_FALSE(d.justification.empty());
  // The real protocol graph is fully reachable and non-trivial.
  EXPECT_TRUE(flow.unreachable.empty());
  EXPECT_GE(flow.modules.size(), 4u);
  EXPECT_GE(flow.events.size(), 6u);
}
