#include "lifecheck.hpp"

#include <algorithm>
#include <stdexcept>

#include "lexer.hpp"
#include "manifest.hpp"
#include "suppress.hpp"

namespace fs = std::filesystem;

namespace lifecheck {

using analyzer::Suppression;
using analyzer::Token;
using analyzer::member_access;
using analyzer::skip_template_args;
using analyzer::tok_is;

namespace {

const std::set<std::string> kKnownRules = {
    "timer.leak",          "timer.stale",
    "timer.lost",          "inst.leak",
    "state.switch",        "flow.unreachable",
    "meta.bad-suppression", "meta.unused-suppression"};

}  // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

bool Manifest::is_instance_file(const std::string& relative_path) const {
  return std::find(instance_files.begin(), instance_files.end(),
                   relative_path) != instance_files.end();
}

bool Manifest::is_app_event(const std::string& name) const {
  return std::find(app_events.begin(), app_events.end(), name) !=
         app_events.end();
}

Manifest parse_manifest(std::istream& in) {
  Manifest m;
  for (const analyzer::ManifestSection& sec : analyzer::read_manifest(in)) {
    if (sec.kind == "instances" && sec.arg.empty()) {
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key != "files")
          analyzer::manifest_error(
              e.line, "unknown [instances] key '" + e.key + "'");
        for (const std::string& f : analyzer::split_ws(e.value))
          m.instance_files.push_back(f);
      }
    } else if (sec.kind == "events" && sec.arg.empty()) {
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key == "registry") {
          m.events_registry = e.value;
        } else if (e.key == "app") {
          for (const std::string& ev : analyzer::split_ws(e.value))
            m.app_events.push_back(ev);
        } else {
          analyzer::manifest_error(e.line,
                                   "unknown [events] key '" + e.key + "'");
        }
      }
    } else {
      analyzer::manifest_error(sec.line,
                               "unknown section [" + sec.header() + "]");
    }
  }
  return m;
}

Manifest load_manifest(const fs::path& file) {
  return analyzer::load_manifest(file, parse_manifest);
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

namespace {

std::vector<int> brace_depth(const std::vector<Token>& t) {
  std::vector<int> depth(t.size(), 0);
  int d = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "{") {
      depth[i] = d;
      ++d;
    } else if (t[i].text == "}") {
      if (d > 0) --d;
      depth[i] = d;
    } else {
      depth[i] = d;
    }
  }
  return depth;
}

/// Index of the ')' matching the '(' at `open`, or t.size().
std::size_t match_paren(const std::vector<Token>& t, std::size_t open) {
  int pd = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "(") ++pd;
    else if (t[i].text == ")" && --pd == 0) return i;
  }
  return t.size();
}

bool range_mentions(const std::vector<Token>& t, std::size_t a, std::size_t b,
                    const std::string& name) {
  for (std::size_t j = a; j < b && j < t.size(); ++j)
    if (t[j].ident && t[j].text == name) return true;
  return false;
}

/// First kEv*/kMod* identifier in [a, b).
const Token* arg_registry_name(const std::vector<Token>& t, std::size_t a,
                               std::size_t b, const char* prefix) {
  for (std::size_t j = a; j < b && j < t.size(); ++j)
    if (t[j].ident && t[j].text.rfind(prefix, 0) == 0) return &t[j];
  return nullptr;
}

/// Token range of argument `argno` (1-based) of the call whose '(' is at
/// `open`; nested (), {}, [] are skipped.
bool call_arg_range(const std::vector<Token>& t, std::size_t open, int argno,
                    std::size_t& abegin, std::size_t& aend) {
  int pd = 0, bd = 0, sd = 0, arg = 1;
  std::size_t begin = open + 1;
  for (std::size_t j = open; j < t.size(); ++j) {
    const std::string& s = t[j].text;
    if (s == "(") {
      if (++pd == 1) begin = j + 1;
      continue;
    }
    if (s == ")") {
      if (--pd == 0) {
        if (arg == argno) {
          abegin = begin;
          aend = j;
          return true;
        }
        return false;
      }
      continue;
    }
    if (pd == 1) {
      if (s == "{") ++bd;
      else if (s == "}") --bd;
      else if (s == "[") ++sd;
      else if (s == "]") --sd;
      else if (s == "," && bd == 0 && sd == 0) {
        if (arg == argno) {
          abegin = begin;
          aend = j;
          return true;
        }
        ++arg;
        begin = j + 1;
      }
    }
  }
  return false;
}

/// Demux tag constants: `constexpr std::uint8_t kName = <literal>` (same
/// recognizer wirecheck uses, so the flow graph's tag sets line up with the
/// wire.asym universe).
std::set<std::string> tag_constants(const std::vector<Token>& t) {
  std::set<std::string> tags;
  for (std::size_t i = 4; i + 3 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "uint8_t") continue;
    if (!(t[i - 1].text == ":" && t[i - 2].text == ":" &&
          t[i - 3].text == "std" &&
          (t[i - 4].text == "constexpr" || t[i - 4].text == "const")))
      continue;
    if (t[i + 1].ident && tok_is(t, i + 2, "=") && !t[i + 3].ident)
      tags.insert(t[i + 1].text);
  }
  return tags;
}

/// Path minus extension: the header/source pair of one translation unit.
std::string path_stem(const std::string& rel) {
  const std::size_t dot = rel.rfind('.');
  const std::size_t slash = rel.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return rel;
  return rel.substr(0, dot);
}

// ---------------------------------------------------------------------------
// Cross-file fact stores
// ---------------------------------------------------------------------------

struct Site {
  std::size_t file_idx = 0;
  int line = 0;
};

struct TimerFacts {
  std::map<std::string, Site> fields;  ///< TimerId field declarations by name
  /// Names assigned from set_timer. Kept separate from `fields` because a
  /// .cpp's arm sites are scanned before its .hpp's declarations.
  std::set<std::string> armed;
  std::set<std::string> cancelled;  ///< names passed to cancel_timer
  bool has_cancel_call = false;
  std::vector<Site> discarded;  ///< set_timer results thrown away
};

struct InstFacts {
  struct Field {
    Site decl;
    std::string container;
  };
  std::map<std::string, Field> fields;   ///< manifest-file container fields
  std::set<std::string> released;        ///< names with a release site
};

struct SwitchSite {
  Site site;
  bool has_default = false;
  bool opaque = false;  ///< non-identifier label: cannot reason, skip
  /// (qualifier, name) per case label; qualifier empty for plain labels.
  std::vector<std::pair<std::string, std::string>> labels;
};

struct FlowFacts {
  struct Chan {
    std::set<std::string> producers;  ///< file rel paths
    std::set<std::string> handlers;
  };
  std::map<std::string, Chan> modules, events;
  std::map<std::string, Site> first_handler;  ///< flag site per channel
  std::set<std::string> registry;
  bool registry_seen = false;
};

struct Facts {
  std::map<std::string, TimerFacts> timers;  ///< by path stem
  std::map<std::string, InstFacts> inst;     ///< by path stem
  std::map<std::string, std::set<std::string>> enums;
  std::vector<SwitchSite> switches;
  std::map<std::string, std::set<std::string>> stem_tags;
  FlowFacts flow;
};

// ---------------------------------------------------------------------------
// Pass-1 collectors
// ---------------------------------------------------------------------------

struct FileWork {
  std::string rel;
  std::string stem;
  std::vector<Suppression> sups;
  std::vector<Diagnostic> pending;

  void flag(int line, const std::string& rule, const std::string& message) {
    pending.push_back({rel, line, rule, message, false, ""});
  }
};

enum class CallUse { kAssigned, kUsed, kDiscarded };

struct CallClass {
  CallUse use = CallUse::kDiscarded;
  std::string field;  ///< assigned-to name when use == kAssigned
};

/// Classifies the statement context of a member set_timer call at token
/// `i` by scanning backward to the statement boundary. The receiver chain
/// (`stack_->rt().set_timer`) may contain balanced parens; an unbalanced
/// '(' or a top-level ',' means the call is itself an argument.
CallClass classify_set_timer(const std::vector<Token>& t, std::size_t i) {
  int balance = 0;
  for (std::size_t j = i; j-- > 0;) {
    const std::string& s = t[j].text;
    if (s == ")") {
      ++balance;
      continue;
    }
    if (s == "(") {
      if (balance == 0) return {CallUse::kUsed, ""};
      --balance;
      continue;
    }
    if (balance > 0) continue;
    if (s == ";" || s == "{" || s == "}") return {CallUse::kDiscarded, ""};
    if (s == "=") {
      if (j > 0 && t[j - 1].ident) return {CallUse::kAssigned, t[j - 1].text};
      return {CallUse::kUsed, ""};
    }
    if (s == "return" || s == ",") return {CallUse::kUsed, ""};
  }
  return {CallUse::kDiscarded, ""};
}

void collect_timer_facts(const std::vector<Token>& t, std::size_t file_idx,
                         FileWork& wk, TimerFacts& tf) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident) continue;
    const std::string& s = t[i].text;

    // Field declaration: `runtime::TimerId name = ... kInvalidTimer ... ;`
    if (s == "TimerId" && i + 2 < t.size() && t[i + 1].ident &&
        tok_is(t, i + 2, "=")) {
      for (std::size_t j = i + 3; j < t.size() && j < i + 12; ++j) {
        if (t[j].text == ";") break;
        if (t[j].ident && t[j].text == "kInvalidTimer") {
          tf.fields.emplace(t[i + 1].text, Site{file_idx, t[i + 1].line});
          break;
        }
      }
      continue;
    }

    // Member call sites. Plain-name matches would also hit the runtime's
    // own definitions (`TimerId set_timer(...) override`), so require an
    // object expression in front.
    if (s == "set_timer" && member_access(t, i) && tok_is(t, i + 1, "(")) {
      const CallClass cc = classify_set_timer(t, i);
      if (cc.use == CallUse::kAssigned) {
        tf.armed.insert(cc.field);
        const std::size_t close = match_paren(t, i + 1);
        if (!range_mentions(t, i + 2, close, cc.field)) {
          wk.flag(t[i].line, "timer.stale",
                  "set_timer call assigned to '" + cc.field +
                      "' never mentions it: the callback cannot clear or "
                      "re-validate its own id, so the field keeps pointing "
                      "at a dead timer after it fires");
        }
      } else if (cc.use == CallUse::kDiscarded) {
        tf.discarded.push_back({file_idx, t[i].line});
      }
      continue;
    }
    if (s == "cancel_timer" && member_access(t, i) && tok_is(t, i + 1, "(")) {
      tf.has_cancel_call = true;
      const std::size_t close = match_paren(t, i + 1);
      for (std::size_t j = i + 2; j < close && j < t.size(); ++j)
        if (t[j].ident) tf.cancelled.insert(t[j].text);
    }
  }
}

const std::set<std::string> kContainers = {
    "map",  "multimap", "set",    "multiset",     "unordered_map",
    "list", "deque",    "vector", "unordered_set"};

const std::set<std::string> kReleases = {"erase",    "clear",   "pop_front",
                                         "pop_back", "pop",     "extract",
                                         "reset",    "swap"};

void collect_inst_facts(const std::vector<Token>& t, std::size_t file_idx,
                        bool fields_in_scope, InstFacts& fi) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident) continue;
    // Field declaration: `std::<container><...> name_;` — only members
    // (trailing underscore, the repo convention) in manifest files.
    if (fields_in_scope && t[i].text == "std" && tok_is(t, i + 1, ":") &&
        tok_is(t, i + 2, ":") && i + 4 < t.size() && t[i + 3].ident &&
        kContainers.count(t[i + 3].text) && tok_is(t, i + 4, "<")) {
      const std::size_t j = skip_template_args(t, i + 4);
      if (j < t.size() && t[j].ident && t[j].text.size() > 1 &&
          t[j].text.back() == '_' &&
          (tok_is(t, j + 1, ";") || tok_is(t, j + 1, "=") ||
           tok_is(t, j + 1, "{"))) {
        fi.fields.emplace(
            t[j].text,
            InstFacts::Field{{file_idx, t[j].line}, t[i + 3].text});
      }
      continue;
    }
    // Release site: `name.erase(` / `.clear(` / ... — collected for every
    // file so a header-resident release satisfies its source file's field.
    if (tok_is(t, i + 1, ".") && i + 3 < t.size() && t[i + 2].ident &&
        kReleases.count(t[i + 2].text) && tok_is(t, i + 3, "(")) {
      fi.released.insert(t[i].text);
    }
  }
}

void collect_enums(const std::vector<Token>& t,
                   std::map<std::string, std::set<std::string>>& enums) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "enum") continue;
    std::size_t j = i + 1;
    if (tok_is(t, j, "class") || tok_is(t, j, "struct")) ++j;
    if (j >= t.size() || !t[j].ident) continue;
    const std::string name = t[j].text;
    ++j;
    if (tok_is(t, j, ":")) {  // underlying type
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
    }
    if (!tok_is(t, j, "{")) continue;  // forward declaration
    std::set<std::string> enumerators;
    int pd = 0, bd = 1;
    bool expect_name = true;
    for (std::size_t k = j + 1; k < t.size() && bd > 0; ++k) {
      const std::string& s = t[k].text;
      if (s == "{") ++bd;
      else if (s == "}") --bd;
      else if (s == "(") ++pd;
      else if (s == ")") --pd;
      else if (s == "," && bd == 1 && pd == 0) expect_name = true;
      else if (expect_name && t[k].ident && bd == 1 && pd == 0) {
        enumerators.insert(t[k].text);
        expect_name = false;
      }
    }
    if (!enumerators.empty()) enums[name] = enumerators;
  }
}

void collect_switches(const std::vector<Token>& t,
                      const std::vector<int>& depth, std::size_t file_idx,
                      std::vector<SwitchSite>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "switch" || !tok_is(t, i + 1, "("))
      continue;
    const std::size_t close = match_paren(t, i + 1);
    if (close >= t.size() || !tok_is(t, close + 1, "{")) continue;
    const std::size_t open = close + 1;
    const int d = depth[open];
    std::size_t end = t.size();
    for (std::size_t j = open + 1; j < t.size(); ++j)
      if (t[j].text == "}" && depth[j] == d) {
        end = j;
        break;
      }
    SwitchSite sw;
    sw.site = {file_idx, t[i].line};
    for (std::size_t j = open + 1; j < end; ++j) {
      if (!t[j].ident || depth[j] != d + 1) continue;
      if (t[j].text == "default" && tok_is(t, j + 1, ":") &&
          !tok_is(t, j + 2, ":")) {
        sw.has_default = true;
        continue;
      }
      if (t[j].text != "case") continue;
      // Label tokens run to the first ':' that is not part of a '::'.
      std::vector<const Token*> label;
      std::size_t k = j + 1;
      while (k < end) {
        if (t[k].text == ":") {
          if (tok_is(t, k + 1, ":")) {
            k += 2;
            continue;
          }
          break;
        }
        label.push_back(&t[k]);
        ++k;
      }
      if (label.empty() || !label.back()->ident) {
        sw.opaque = true;
        continue;
      }
      const std::string qual =
          label.size() >= 2 && label[label.size() - 2]->ident
              ? label[label.size() - 2]->text
              : "";
      sw.labels.emplace_back(qual, label.back()->text);
    }
    if (!sw.labels.empty()) out.push_back(sw);
  }
}

void collect_flow_facts(const std::vector<Token>& t, std::size_t file_idx,
                        const std::string& rel, FlowFacts& facts) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident || !tok_is(t, i + 1, "(")) continue;
    const std::string& s = t[i].text;
    std::size_t a, b;
    if (s == "bind") {
      if (call_arg_range(t, i + 1, 1, a, b))
        if (const Token* n = arg_registry_name(t, a, b, "kEv")) {
          facts.events[n->text].handlers.insert(rel);
          facts.first_handler.emplace(n->text, Site{file_idx, n->line});
        }
    } else if (s == "bind_wire") {
      if (call_arg_range(t, i + 1, 1, a, b))
        if (const Token* n = arg_registry_name(t, a, b, "kMod")) {
          facts.modules[n->text].handlers.insert(rel);
          facts.first_handler.emplace(n->text, Site{file_idx, n->line});
        }
    } else if (s == "local" && i >= 3 && t[i - 1].text == ":" &&
               t[i - 2].text == ":" && t[i - 3].text == "Event") {
      if (call_arg_range(t, i + 1, 1, a, b))
        if (const Token* n = arg_registry_name(t, a, b, "kEv"))
          facts.events[n->text].producers.insert(rel);
    } else if (s == "send_wire" || s == "send_wire_to_others") {
      const int argno = (s == "send_wire") ? 2 : 1;
      if (call_arg_range(t, i + 1, argno, a, b))
        if (const Token* n = arg_registry_name(t, a, b, "kMod"))
          facts.modules[n->text].producers.insert(rel);
    }
  }
}

/// Registry declarations: `... EventType kEvX = ...` / `... ModuleId kModX
/// = ...` in the manifest-named header.
void parse_registry(const std::vector<Token>& t, FlowFacts& facts) {
  facts.registry_seen = true;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].ident) continue;
    const bool ev = t[i].text == "EventType";
    const bool mod = t[i].text == "ModuleId";
    if (!ev && !mod) continue;
    if (!t[i + 1].ident || !tok_is(t, i + 2, "=")) continue;
    const char* prefix = ev ? "kEv" : "kMod";
    if (t[i + 1].text.rfind(prefix, 0) == 0)
      facts.registry.insert(t[i + 1].text);
  }
}

std::string join_sorted(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

Report analyze(const fs::path& root, const Manifest& manifest,
               FlowGraph* flow, const analyzer::SourceTree* tree) {
  analyzer::SourceTree local;
  if (!tree) {
    local = analyzer::load_tree(root);
    tree = &local;
  }

  Report report;
  std::vector<FileWork> works;
  works.reserve(tree->files.size());
  Facts facts;

  // Pass 1: per-file checks (timer.stale) and cross-file fact collection.
  for (const analyzer::SourceFile& src : tree->files) {
    const std::string& rel = src.rel;

    FileWork wk;
    wk.rel = rel;
    wk.stem = path_stem(rel);
    wk.sups = analyzer::collect_suppressions("lifecheck", kKnownRules, rel,
                                             src.lines, report.diagnostics);
    const std::vector<Token>& toks = src.tokens;
    const std::vector<int> depth = brace_depth(toks);
    const std::size_t idx = works.size();

    collect_timer_facts(toks, idx, wk, facts.timers[wk.stem]);
    collect_inst_facts(toks, idx, manifest.is_instance_file(rel),
                       facts.inst[wk.stem]);
    collect_enums(toks, facts.enums);
    collect_switches(toks, depth, idx, facts.switches);
    collect_flow_facts(toks, idx, rel, facts.flow);
    const std::set<std::string> tags = tag_constants(toks);
    if (!tags.empty())
      facts.stem_tags[wk.stem].insert(tags.begin(), tags.end());
    if (rel == manifest.events_registry) parse_registry(toks, facts.flow);

    ++report.files_scanned;
    works.push_back(std::move(wk));
  }

  // Pass 2: whole-program rules over the collected facts.
  for (const auto& [stem, tf] : facts.timers) {
    for (const auto& [name, decl] : tf.fields) {
      if (tf.armed.count(name) && !tf.cancelled.count(name)) {
        works[decl.file_idx].flag(
            decl.line, "timer.leak",
            "timer field '" + name + "' is armed but '" + stem +
                ".*' never passes it to cancel_timer: no teardown or decide "
                "path can disarm it");
      }
    }
    if (tf.has_cancel_call) {
      for (const Site& site : tf.discarded) {
        works[site.file_idx].flag(
            site.line, "timer.lost",
            "set_timer return value is discarded although '" + stem +
                ".*' cancels timers elsewhere: this timer's id is "
                "unrecoverable, so it can never be cancelled");
      }
    }
  }

  for (const auto& [stem, fi] : facts.inst) {
    for (const auto& [name, field] : fi.fields) {
      if (!fi.released.count(name)) {
        works[field.decl.file_idx].flag(
            field.decl.line, "inst.leak",
            "per-instance container '" + name + "' (std::" + field.container +
                ") has no erase/clear/pop release site in '" + stem +
                ".*': decided-instance state accumulates without bound");
      }
    }
  }

  std::set<std::string> registry_family;  // scratch for registry switches
  for (const SwitchSite& sw : facts.switches) {
    if (sw.opaque || sw.has_default) continue;
    std::set<std::string> covered;
    std::string qual;
    for (const auto& [q, name] : sw.labels) {
      covered.insert(name);
      if (qual.empty()) qual = q;
    }
    const std::set<std::string>* family = nullptr;
    std::string family_desc;
    if (!qual.empty()) {
      auto ei = facts.enums.find(qual);
      if (ei != facts.enums.end()) {
        family = &ei->second;
        family_desc = "enum " + qual;
      }
    }
    if (!family && facts.flow.registry_seen) {
      const bool all_mod =
          std::all_of(covered.begin(), covered.end(), [](const std::string& n) {
            return n.rfind("kMod", 0) == 0;
          });
      const bool all_ev =
          std::all_of(covered.begin(), covered.end(), [](const std::string& n) {
            return n.rfind("kEv", 0) == 0;
          });
      if (all_mod || all_ev) {
        registry_family.clear();
        const char* prefix = all_mod ? "kMod" : "kEv";
        for (const std::string& n : facts.flow.registry)
          if (n.rfind(prefix, 0) == 0) registry_family.insert(n);
        if (!registry_family.empty()) {
          family = &registry_family;
          family_desc = all_mod ? "ModuleId registry" : "EventType registry";
        }
      }
    }
    if (!family && qual.empty()) {
      auto ti = facts.stem_tags.find(works[sw.site.file_idx].stem);
      if (ti != facts.stem_tags.end()) {
        const bool all_tags = std::all_of(
            covered.begin(), covered.end(),
            [&](const std::string& n) { return ti->second.count(n) > 0; });
        if (all_tags) {
          family = &ti->second;
          family_desc =
              "wire tags of " + works[sw.site.file_idx].stem + ".*";
        }
      }
    }
    if (!family) continue;
    std::set<std::string> missing;
    for (const std::string& n : *family)
      if (!covered.count(n)) missing.insert(n);
    if (!missing.empty()) {
      works[sw.site.file_idx].flag(
          sw.site.line, "state.switch",
          "switch over " + family_desc + " has no default and misses " +
              join_sorted(missing) +
              ": a new message kind would be silently dropped");
    }
  }

  std::set<std::string> unreachable;
  if (facts.flow.registry_seen) {
    auto check = [&](const std::map<std::string, FlowFacts::Chan>& chans,
                     const char* kind) {
      for (const auto& [name, chan] : chans) {
        if (!facts.flow.registry.count(name)) continue;
        if (manifest.is_app_event(name)) continue;
        if (chan.handlers.empty() || !chan.producers.empty()) continue;
        unreachable.insert(name);
        const Site& site = facts.flow.first_handler.at(name);
        works[site.file_idx].flag(
            site.line, "flow.unreachable",
            std::string(kind) + " '" + name +
                "' has a handler but no send/raise path in the tree can "
                "reach it: dead protocol surface");
      }
    };
    check(facts.flow.modules, "module id");
    check(facts.flow.events, "event");
  }

  // Pass 3: suppression lifecycle, then stable output order.
  for (FileWork& wk : works) {
    analyzer::dedupe_by_line_rule(wk.pending);
    analyzer::apply_suppressions("lifecheck", wk.rel, wk.sups, wk.pending,
                                 report.diagnostics);
  }
  report.sort_stable();

  if (flow) {
    *flow = FlowGraph{};
    for (const std::string& name : facts.flow.registry) {
      const bool is_mod = name.rfind("kMod", 0) == 0;
      auto& chans = is_mod ? facts.flow.modules : facts.flow.events;
      FlowGraph::Channel ch;
      auto ci = chans.find(name);
      if (ci != chans.end()) {
        ch.producers = ci->second.producers;
        ch.handlers = ci->second.handlers;
      }
      if (is_mod) {
        for (const std::string& producer : ch.producers) {
          auto ti = facts.stem_tags.find(path_stem(producer));
          if (ti != facts.stem_tags.end())
            ch.tags.insert(ti->second.begin(), ti->second.end());
        }
        flow->modules.emplace(name, std::move(ch));
      } else {
        flow->events.emplace(name, std::move(ch));
      }
    }
    flow->unreachable.assign(unreachable.begin(), unreachable.end());
  }

  return report;
}

// ---------------------------------------------------------------------------
// Flow-graph serialization
// ---------------------------------------------------------------------------

namespace {

void append_string_array(std::string& out, const char* key,
                         const std::set<std::string>& values,
                         const char* indent, bool trailing_comma) {
  out += indent;
  out += "\"";
  out += key;
  out += "\": [";
  bool first = true;
  for (const std::string& v : values) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + analyzer::json_escape(v) + "\"";
  }
  out += trailing_comma ? "],\n" : "]\n";
}

void append_channels(std::string& out, const char* key,
                     const std::map<std::string, FlowGraph::Channel>& chans,
                     bool with_tags) {
  out += "  \"";
  out += key;
  out += "\": {\n";
  std::size_t i = 0;
  for (const auto& [name, ch] : chans) {
    out += "    \"" + analyzer::json_escape(name) + "\": {\n";
    append_string_array(out, "producers", ch.producers, "      ", true);
    append_string_array(out, "handlers", ch.handlers, "      ", with_tags);
    if (with_tags)
      append_string_array(out, "tags", ch.tags, "      ", false);
    out += ++i < chans.size() ? "    },\n" : "    }\n";
  }
  out += "  },\n";
}

}  // namespace

std::string flow_to_json(const FlowGraph& g) {
  std::string out = "{\n  \"version\": 1,\n";
  append_channels(out, "modules", g.modules, true);
  append_channels(out, "events", g.events, false);
  std::set<std::string> unreachable(g.unreachable.begin(),
                                    g.unreachable.end());
  append_string_array(out, "unreachable", unreachable, "  ", false);
  out += "}\n";
  return out;
}

std::string flow_to_dot(const FlowGraph& g) {
  std::string out =
      "// Module×event flow graph extracted by tools/lifecheck.\n"
      "// Boxes are source files; ellipses are registry channels\n"
      "// (blue = wire module ids, yellow = local event types).\n"
      "digraph abcast_flow {\n"
      "  rankdir=LR;\n"
      "  node [shape=box, fontsize=10];\n";
  auto emit = [&out](const std::map<std::string, FlowGraph::Channel>& chans,
                     const char* color, bool with_tags) {
    for (const auto& [name, ch] : chans) {
      out += "  \"" + name + "\" [shape=ellipse, style=filled, fillcolor=" +
             color;
      if (with_tags && !ch.tags.empty()) {
        out += ", label=\"" + name + "\\n";
        bool first = true;
        for (const std::string& tag : ch.tags) {
          if (!first) out += " ";
          first = false;
          out += tag;
        }
        out += "\"";
      }
      out += "];\n";
      for (const std::string& p : ch.producers)
        out += "  \"" + p + "\" -> \"" + name + "\";\n";
      for (const std::string& h : ch.handlers)
        out += "  \"" + name + "\" -> \"" + h + "\";\n";
    }
  };
  emit(g.modules, "lightblue", true);
  emit(g.events, "lightyellow", false);
  for (const std::string& name : g.unreachable)
    out += "  \"" + name + "\" [color=red, penwidth=2];\n";
  out += "}\n";
  return out;
}

}  // namespace lifecheck
