#include "wirecheck.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "lexer.hpp"
#include "manifest.hpp"
#include "suppress.hpp"

namespace wirecheck {
namespace fs = std::filesystem;

using analyzer::member_access;
using analyzer::split_lines;
using analyzer::split_ws;
using analyzer::std_qualified;
using analyzer::strip_comments;
using analyzer::Suppression;
using analyzer::Token;
using analyzer::tok_is;
using analyzer::tokenize;

namespace {

const std::set<std::string> kKnownRules = {
    "wire.asym",       "wire.unhandled",        "wire.dead",
    "hot.alloc",       "hot.function",          "hot.copy",
    "meta.bad-suppression", "meta.unused-suppression",
};

}  // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

bool Manifest::is_hot(const std::string& relative_path) const {
  return std::find(hot_files.begin(), hot_files.end(), relative_path) !=
         hot_files.end();
}

bool Manifest::is_app_event(const std::string& name) const {
  return std::find(app_events.begin(), app_events.end(), name) !=
         app_events.end();
}

Manifest parse_manifest(std::istream& in) {
  Manifest m;
  for (const analyzer::ManifestSection& sec : analyzer::read_manifest(in)) {
    if (sec.kind == "hot" && sec.arg.empty()) {
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key != "files")
          analyzer::manifest_error(e.line, "unknown [hot] key " + e.key);
        m.hot_files = split_ws(e.value);
      }
    } else if (sec.kind == "events" && sec.arg.empty()) {
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key == "registry") {
          m.events_registry = e.value;
        } else if (e.key == "app") {
          m.app_events = split_ws(e.value);
        } else {
          analyzer::manifest_error(e.line, "unknown [events] key " + e.key);
        }
      }
    } else if (sec.kind == "format") {
      if (sec.arg.empty())
        analyzer::manifest_error(sec.line, "[format] needs a name");
      for (const Format& g : m.formats)
        if (g.name == sec.arg)
          analyzer::manifest_error(sec.line, "duplicate format " + sec.arg);
      Format& f = m.formats.emplace_back();
      f.name = sec.arg;
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key == "file") {
          f.file = e.value;
        } else if (e.key == "encoder") {
          f.encoder = e.value;
        } else if (e.key == "decoder") {
          f.decoder = e.value;
        } else {
          analyzer::manifest_error(e.line, "unknown [format] key " + e.key);
        }
      }
    } else {
      analyzer::manifest_error(sec.line,
                               "unknown section [" + sec.header() + "]");
    }
  }
  for (const Format& f : m.formats) {
    if (f.file.empty() || f.encoder.empty() || f.decoder.empty())
      throw std::runtime_error("format " + f.name +
                               " needs file, encoder and decoder");
  }
  return m;
}

Manifest load_manifest(const fs::path& file) {
  return analyzer::load_manifest(file, parse_manifest);
}

// ---------------------------------------------------------------------------
// Sequence extraction
// ---------------------------------------------------------------------------

namespace {

/// One extracted Writer/Reader call sequence, normalized to the shared op
/// alphabet: u8 u16 u32 u64 f64 varint blob str rest call:<helper>.
struct OpSeq {
  int line = 0;
  std::vector<std::string> ops;
};

/// Writer method -> normalized op ("" = not a wire op, skip).
std::string map_writer_op(const std::string& m) {
  if (m == "u8" || m == "u16" || m == "u32" || m == "u64" || m == "f64" ||
      m == "varint" || m == "blob" || m == "str")
    return m;
  if (m == "i64") return "u64";
  if (m == "raw") return "rest";
  return "";
}

/// Reader method -> normalized op ("" = not a wire op, skip). The slice
/// reads (blob_payload, rest_payload) read the same bytes as their copying
/// forms.
std::string map_reader_op(const std::string& m) {
  if (m == "u8" || m == "u16" || m == "u32" || m == "u64" || m == "f64" ||
      m == "varint" || m == "blob" || m == "str")
    return m;
  if (m == "i64") return "u64";
  if (m == "blob_payload") return "blob";
  if (m == "rest" || m == "raw" || m == "rest_payload") return "rest";
  return "";
}

/// encode_message/decode_message -> "message"; bare encode/decode -> "".
std::string helper_suffix(const std::string& name) {
  std::string s = name;
  if (s.rfind("encode", 0) == 0) s = s.substr(6);
  else if (s.rfind("decode", 0) == 0) s = s.substr(6);
  if (!s.empty() && s[0] == '_') s = s.substr(1);
  return s;
}

/// Post-processing: a u32 length immediately followed by a
/// position-bounded slice is a zero-copy blob read; unlength'd slices and
/// duplicate trailing-rest reads collapse to one "rest".
void normalize_ops(std::vector<std::string>& ops) {
  std::vector<std::string> out;
  for (std::string& op : ops) {
    if (op == "__sliceL") {
      if (!out.empty() && out.back() == "u32") {
        out.back() = "blob";
        continue;
      }
      op = "rest";
    }
    if (op == "rest" && !out.empty() && out.back() == "rest") continue;
    out.push_back(std::move(op));
  }
  ops = std::move(out);
}

/// Encoder and decoder sequences agree when equal, or when only their last
/// ops differ and that pair is a helper-coded structure (call:X) against
/// opaque trailing bytes (rest): a decoder may keep a trailing
/// encode_X(w, ...) structure undecoded as a value (decoding it later), and
/// raw trailing bytes already stand for whatever the other side wrote.
bool ops_match(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  if (a == b) return true;
  if (a.empty() || a.size() != b.size() ||
      !std::equal(a.begin(), a.end() - 1, b.begin()))
    return false;
  const auto is_call = [](const std::string& op) {
    return op.rfind("call:", 0) == 0;
  };
  return (is_call(a.back()) && b.back() == "rest") ||
         (a.back() == "rest" && is_call(b.back()));
}

std::string join_ops(const std::vector<std::string>& ops) {
  std::string s = "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i) s += ' ';
    s += ops[i];
  }
  s += ']';
  return s;
}

/// Brace depth at every token ('{' carries the pre-open depth, '}' the
/// post-close depth, so a block's braces sit at the depth of the enclosing
/// scope and its contents one deeper).
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

/// Variables declared (or passed) as ByteWriter/ByteReader in this file.
std::set<std::string> var_names(const std::vector<Token>& t,
                                const char* type_name) {
  std::set<std::string> out;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != type_name) continue;
    std::size_t j = i + 1;
    if (tok_is(t, j, "&")) ++j;
    if (j < t.size() && t[j].ident) out.insert(t[j].text);
  }
  return out;
}

/// Demux tag constants: `constexpr std::uint8_t kName = <literal>`. The
/// literal requirement keeps runtime reads (`const std::uint8_t kind =
/// r.u8();`) out of the tag set.
std::map<std::string, int> tag_constants(const std::vector<Token>& t) {
  std::map<std::string, int> tags;
  for (std::size_t i = 4; i + 3 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "uint8_t") continue;
    if (!(t[i - 1].text == ":" && t[i - 2].text == ":" &&
          t[i - 3].text == "std" &&
          (t[i - 4].text == "constexpr" || t[i - 4].text == "const")))
      continue;
    if (t[i + 1].ident && tok_is(t, i + 2, "=") && !t[i + 3].ident)
      tags.emplace(t[i + 1].text, t[i + 1].line);
  }
  return tags;
}

/// Collects normalized Reader ops over the token range [a, b).
void collect_reader_ops(const std::vector<Token>& t, std::size_t a,
                        std::size_t b, const std::set<std::string>& readers,
                        std::vector<std::string>& ops) {
  for (std::size_t j = a; j < b && j < t.size(); ++j) {
    const Token& tk = t[j];
    if (!tk.ident) continue;
    // payload.slice(r.position()[, len]) — zero-copy trailing read. Must be
    // checked before the member-op pattern below consumes the tokens.
    if (tk.text == "slice" && member_access(t, j) && tok_is(t, j + 1, "(") &&
        j + 4 < t.size() && t[j + 2].ident && readers.count(t[j + 2].text) &&
        tok_is(t, j + 3, ".") && tok_is(t, j + 4, "position")) {
      bool with_len = tok_is(t, j + 5, "(") && tok_is(t, j + 6, ")") &&
                      tok_is(t, j + 7, ",");
      ops.push_back(with_len ? "__sliceL" : "rest");
      continue;
    }
    // r.<op>(...)
    if (readers.count(tk.text) && tok_is(t, j + 1, ".") && j + 3 < t.size() &&
        t[j + 2].ident && tok_is(t, j + 3, "(")) {
      std::string op = map_reader_op(t[j + 2].text);
      if (!op.empty()) ops.push_back(op);
      j += 2;
      continue;
    }
    // decode_X(r, ...) helper call
    if (tk.text.rfind("decode", 0) == 0 && tok_is(t, j + 1, "(") &&
        j + 2 < t.size() && t[j + 2].ident && readers.count(t[j + 2].text)) {
      ops.push_back("call:" + helper_suffix(tk.text));
      continue;
    }
  }
}

/// Collects normalized Writer ops over the token range [a, b) (format-pair
/// bodies: no tag terminates the sequence; take() is just skipped).
void collect_writer_ops(const std::vector<Token>& t, std::size_t a,
                        std::size_t b, const std::set<std::string>& writers,
                        std::vector<std::string>& ops) {
  for (std::size_t j = a; j < b && j < t.size(); ++j) {
    const Token& tk = t[j];
    if (!tk.ident) continue;
    if (writers.count(tk.text) && tok_is(t, j + 1, ".") && j + 3 < t.size() &&
        t[j + 2].ident && tok_is(t, j + 3, "(")) {
      std::string op = map_writer_op(t[j + 2].text);
      if (!op.empty()) ops.push_back(op);
      j += 2;
      continue;
    }
    if (tk.text.rfind("encode", 0) == 0 && tok_is(t, j + 1, "(") &&
        j + 2 < t.size() && t[j + 2].ident && writers.count(t[j + 2].text)) {
      ops.push_back("call:" + helper_suffix(tk.text));
      continue;
    }
  }
}

/// Every `<writer>.u8(<tag>)`-started encode sequence, keyed by tag. A
/// sequence ends at take(), at the start of another tagged sequence, or
/// when its enclosing block closes (if/else encode branches).
void extract_tag_encoders(const std::vector<Token>& t,
                          const std::vector<int>& depth,
                          const std::set<std::string>& writers,
                          const std::map<std::string, int>& tags,
                          std::map<std::string, std::vector<OpSeq>>& out) {
  for (std::size_t i = 0; i + 5 < t.size(); ++i) {
    if (!t[i].ident || !writers.count(t[i].text)) continue;
    if (!(tok_is(t, i + 1, ".") && tok_is(t, i + 2, "u8") &&
          tok_is(t, i + 3, "(") && t[i + 4].ident &&
          tags.count(t[i + 4].text) && tok_is(t, i + 5, ")")))
      continue;
    const std::string tag = t[i + 4].text;
    const int d0 = depth[i];
    OpSeq seq;
    seq.line = t[i].line;
    std::size_t j = i + 6;
    for (; j < t.size(); ++j) {
      if (depth[j] < d0) break;
      if (!t[j].ident) continue;
      if (writers.count(t[j].text) && tok_is(t, j + 1, ".") &&
          j + 3 < t.size() && t[j + 2].ident && tok_is(t, j + 3, "(")) {
        const std::string& m = t[j + 2].text;
        if (m == "take") break;
        if (m == "u8" && j + 5 < t.size() && t[j + 4].ident &&
            tags.count(t[j + 4].text) && tok_is(t, j + 5, ")"))
          break;  // next tagged sequence; the outer loop re-detects it
        std::string op = map_writer_op(m);
        if (!op.empty()) seq.ops.push_back(op);
        j += 2;
        continue;
      }
      if (t[j].text.rfind("encode", 0) == 0 && tok_is(t, j + 1, "(") &&
          j + 2 < t.size() && t[j + 2].ident && writers.count(t[j + 2].text)) {
        seq.ops.push_back("call:" + helper_suffix(t[j].text));
        continue;
      }
    }
    normalize_ops(seq.ops);
    out[tag].push_back(std::move(seq));
    i = j - 1;  // resume at the terminator (it may start the next sequence)
  }
}

/// Every decoder branch keyed by tag. Recognized branch heads:
///   case <tag>:            ops until the next case/default or block end
///   <x> == <tag> (if)      ops inside the if body
///   <x> != <tag> (guard)   early-exit form: ops after the guard statement
void extract_tag_decoders(const std::vector<Token>& t,
                          const std::vector<int>& depth,
                          const std::set<std::string>& readers,
                          const std::map<std::string, int>& tags,
                          std::map<std::string, std::vector<OpSeq>>& out) {
  auto matching_close = [&](std::size_t open) {
    for (std::size_t m = open + 1; m < t.size(); ++m)
      if (t[m].text == "}" && depth[m] == depth[open]) return m;
    return t.size();
  };
  // Scans past the remainder of a parenthesized condition; returns the
  // index of the ')' that closes it (or t.size()).
  auto condition_close = [&](std::size_t from) {
    int pd = 0;
    for (std::size_t j = from; j < t.size(); ++j) {
      if (t[j].text == "(") ++pd;
      else if (t[j].text == ")") {
        if (pd == 0) return j;
        --pd;
      } else if (t[j].text == ";" || t[j].text == "{") {
        break;  // not inside an if-condition after all
      }
    }
    return t.size();
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident || !tags.count(t[i].text)) continue;
    const std::string tag = t[i].text;
    const int d0 = depth[i];

    if (i >= 1 && t[i - 1].text == "case") {
      std::size_t end = t.size();
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (depth[j] < d0 ||
            (depth[j] == d0 &&
             (t[j].text == "case" ||
              (t[j].text == "default" && tok_is(t, j + 1, ":"))))) {
          end = j;
          break;
        }
      }
      OpSeq seq;
      seq.line = t[i].line;
      collect_reader_ops(t, i + 1, end, readers, seq.ops);
      normalize_ops(seq.ops);
      out[tag].push_back(std::move(seq));
      continue;
    }

    const bool eq = (i >= 2 && t[i - 1].text == "=" && t[i - 2].text == "=" &&
                     !(i >= 3 && (t[i - 3].text == "!" || t[i - 3].text == "=" ||
                                  t[i - 3].text == "<" || t[i - 3].text == ">"))) ||
                    (i + 2 < t.size() && t[i + 1].text == "=" &&
                     t[i + 2].text == "=");
    const bool ne = (i >= 2 && t[i - 1].text == "=" && t[i - 2].text == "!") ||
                    (i + 2 < t.size() && t[i + 1].text == "!" &&
                     t[i + 2].text == "=");
    if (!eq && !ne) continue;

    std::size_t close = condition_close(i + 1);
    if (close == t.size()) continue;
    // Locate the statement/block guarded by the condition.
    std::size_t body_begin, body_end;
    if (tok_is(t, close + 1, "{")) {
      body_begin = close + 2;
      body_end = matching_close(close + 1);
    } else {
      body_begin = close + 1;
      body_end = body_begin;
      while (body_end < t.size() && t[body_end].text != ";") ++body_end;
    }

    OpSeq seq;
    seq.line = t[i].line;
    if (eq) {
      collect_reader_ops(t, body_begin, body_end, readers, seq.ops);
    } else {
      // Guard form `if (kind != kTag) return;` — the decode follows the
      // guard, in the same enclosing block.
      std::size_t j = body_end + 1;
      std::size_t stop = j;
      while (stop < t.size() && depth[stop] >= d0) ++stop;
      collect_reader_ops(t, j, stop, readers, seq.ops);
    }
    normalize_ops(seq.ops);
    out[tag].push_back(std::move(seq));
  }
}

/// Finds the body token range of the definition of function `fn` (a call
/// is followed by ';' or an expression; a definition by an optional
/// const/noexcept/override and '{').
bool find_function_body(const std::vector<Token>& t,
                        const std::vector<int>& depth, const std::string& fn,
                        std::size_t& body_begin, std::size_t& body_end,
                        int& def_line) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != fn || !tok_is(t, i + 1, "(")) continue;
    int pd = 0;
    std::size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].text == "(") ++pd;
      else if (t[j].text == ")" && --pd == 0) break;
    }
    if (j >= t.size()) continue;
    std::size_t k = j + 1;
    while (k < t.size() && t[k].ident &&
           (t[k].text == "const" || t[k].text == "noexcept" ||
            t[k].text == "override" || t[k].text == "final"))
      ++k;
    if (!tok_is(t, k, "{")) continue;
    body_begin = k + 1;
    body_end = t.size();
    for (std::size_t m = k + 1; m < t.size(); ++m)
      if (t[m].text == "}" && depth[m] == depth[k]) {
        body_end = m;
        break;
      }
    def_line = t[i].line;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Cross-reference facts (events / module ids across the whole tree)
// ---------------------------------------------------------------------------

struct Site {
  std::size_t file_idx = 0;
  int line = 0;
};

struct CrossFacts {
  std::map<std::string, Site> raised_events, bound_events;
  std::map<std::string, Site> sent_modules, bound_modules;
  std::set<std::string> registry;  ///< names declared in the registry header
  bool registry_seen = false;
};

/// Token range [abegin, aend) of the argno-th (1-based) argument of the
/// call whose '(' is at `open`.
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

/// First identifier in [a, b) carrying the given registry prefix.
const Token* arg_registry_name(const std::vector<Token>& t, std::size_t a,
                               std::size_t b, const char* prefix) {
  for (std::size_t j = a; j < b && j < t.size(); ++j)
    if (t[j].ident && t[j].text.rfind(prefix, 0) == 0) return &t[j];
  return nullptr;
}

void record_site(std::map<std::string, Site>& facts, const std::string& name,
                 std::size_t file_idx, int line) {
  facts.emplace(name, Site{file_idx, line});
}

void collect_cross_facts(const std::vector<Token>& t, std::size_t file_idx,
                         CrossFacts& facts) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident || !tok_is(t, i + 1, "(")) continue;
    const std::string& s = t[i].text;
    std::size_t a, b;
    if (s == "bind") {
      if (call_arg_range(t, i + 1, 1, a, b))
        if (const Token* n = arg_registry_name(t, a, b, "kEv"))
          record_site(facts.bound_events, n->text, file_idx, n->line);
    } else if (s == "bind_wire") {
      if (call_arg_range(t, i + 1, 1, a, b))
        if (const Token* n = arg_registry_name(t, a, b, "kMod"))
          record_site(facts.bound_modules, n->text, file_idx, n->line);
    } else if (s == "local" && i >= 3 && t[i - 1].text == ":" &&
               t[i - 2].text == ":" && t[i - 3].text == "Event") {
      if (call_arg_range(t, i + 1, 1, a, b))
        if (const Token* n = arg_registry_name(t, a, b, "kEv"))
          record_site(facts.raised_events, n->text, file_idx, n->line);
    } else if (s == "send_wire" || s == "send_wire_to_others") {
      const int argno = (s == "send_wire") ? 2 : 1;
      if (call_arg_range(t, i + 1, argno, a, b))
        if (const Token* n = arg_registry_name(t, a, b, "kMod"))
          record_site(facts.sent_modules, n->text, file_idx, n->line);
    }
  }
}

/// Registry declarations: `... EventType kEvX = ...` / `... ModuleId kModX
/// = ...` in the manifest-named header.
void parse_registry(const std::vector<Token>& t, CrossFacts& facts) {
  facts.registry_seen = true;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].ident) continue;
    const bool ev = t[i].text == "EventType";
    const bool mod = t[i].text == "ModuleId";
    if (!ev && !mod) continue;
    if (!t[i + 1].ident || !tok_is(t, i + 2, "=")) continue;
    const char* prefix = ev ? "kEv" : "kMod";
    if (t[i + 1].text.rfind(prefix, 0) == 0) facts.registry.insert(t[i + 1].text);
  }
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

struct FileWork {
  std::string rel;
  std::vector<Suppression> sups;
  std::vector<Diagnostic> pending;

  void flag(int line, const std::string& rule, const std::string& message) {
    pending.push_back({rel, line, rule, message, false, ""});
  }
};

void check_hot_rules(FileWork& wk, const std::vector<Token>& toks) {
  static const std::set<std::string> kAllocCalls = {"malloc", "calloc",
                                                    "realloc"};
  const std::set<std::string> readers = var_names(toks, "ByteReader");
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tk = toks[i];
    if (!tk.ident) continue;
    const std::string& s = tk.text;
    if (s == "new" || s == "make_shared" || s == "make_unique") {
      wk.flag(tk.line, "hot.alloc",
              s + " in a hot-path file — per-message heap allocation undoes "
                  "the zero-copy fan-out");
    } else if (kAllocCalls.count(s) && tok_is(toks, i + 1, "(")) {
      wk.flag(tk.line, "hot.alloc",
              s + "() in a hot-path file — per-message heap allocation");
    } else if (s == "function" && std_qualified(toks, i)) {
      wk.flag(tk.line, "hot.function",
              "std::function in a hot-path file — each construction may "
              "allocate; use util::InlineFn or a plain pointer");
    } else if ((s == "to_bytes" || s == "detach") && member_access(toks, i) &&
               tok_is(toks, i + 1, "(")) {
      wk.flag(tk.line, "hot.copy",
              s + "() deep-copies the payload in a hot-path file — pass the "
                  "ref-counted Payload view instead");
    } else if (readers.count(s) && tok_is(toks, i + 1, ".") &&
               i + 4 < toks.size() && tok_is(toks, i + 3, "(")) {
      // Owned-copy decodes: r.blob(), r.raw(n), Bytes(r.rest().begin(), …).
      const std::string& m = toks[i + 2].text;
      const bool no_args = tok_is(toks, i + 4, ")");
      if (m == "blob" && no_args) {
        wk.flag(tk.line, "hot.copy",
                "blob() decodes into an owned copy in a hot-path file — use "
                "blob_payload() for a slice of the frame");
      } else if (m == "raw") {
        wk.flag(tk.line, "hot.copy",
                "raw(n) decodes into an owned copy in a hot-path file — "
                "slice the frame instead");
      } else if (m == "rest" && no_args && tok_is(toks, i + 5, ".") &&
                 tok_is(toks, i + 6, "begin")) {
        wk.flag(tk.line, "hot.copy",
                "rest().begin() copies the unread bytes in a hot-path file — "
                "use rest_payload() for a slice of the frame");
      }
    }
  }
}

void check_tag_contracts(FileWork& wk, const std::vector<Token>& toks,
                         const std::vector<int>& depth) {
  const std::map<std::string, int> tags = tag_constants(toks);
  if (tags.empty()) return;
  const std::set<std::string> writers = var_names(toks, "ByteWriter");
  const std::set<std::string> readers = var_names(toks, "ByteReader");

  std::map<std::string, std::vector<OpSeq>> enc, dec;
  if (!writers.empty()) extract_tag_encoders(toks, depth, writers, tags, enc);
  if (!readers.empty()) extract_tag_decoders(toks, depth, readers, tags, dec);

  for (const auto& [tag, line] : tags) {
    const auto ei = enc.find(tag);
    const auto di = dec.find(tag);
    const bool has_enc = ei != enc.end() && !ei->second.empty();
    const bool has_dec = di != dec.end() && !di->second.empty();
    if (has_enc && !has_dec) {
      wk.flag(ei->second.front().line, "wire.unhandled",
              "wire tag '" + tag +
                  "' is sent but has no decoder branch in this file — every "
                  "receiver drops it");
      continue;
    }
    if (has_dec && !has_enc) {
      wk.flag(di->second.front().line, "wire.dead",
              "wire tag '" + tag +
                  "' has a decoder branch but is never sent — dead protocol "
                  "surface");
      continue;
    }
    if (!has_enc || !has_dec) continue;  // unused constant: not a wire tag
    const OpSeq& d0 = di->second.front();
    for (const OpSeq& e : ei->second) {
      if (!ops_match(e.ops, d0.ops)) {
        wk.flag(e.line, "wire.asym",
                "message kind '" + tag + "': encoder writes " +
                    join_ops(e.ops) + " but decoder (line " +
                    std::to_string(d0.line) + ") reads " + join_ops(d0.ops));
      }
    }
    for (std::size_t k = 1; k < di->second.size(); ++k) {
      const OpSeq& d = di->second[k];
      if (!ops_match(d.ops, d0.ops) &&
          !ops_match(d.ops, ei->second.front().ops)) {
        wk.flag(d.line, "wire.asym",
                "message kind '" + tag + "': decoder reads " +
                    join_ops(d.ops) + " but encoder (line " +
                    std::to_string(ei->second.front().line) + ") writes " +
                    join_ops(ei->second.front().ops));
      }
    }
  }
}

void check_formats(FileWork& wk, const std::vector<Token>& toks,
                   const std::vector<int>& depth, const Manifest& manifest) {
  const std::set<std::string> writers = var_names(toks, "ByteWriter");
  const std::set<std::string> readers = var_names(toks, "ByteReader");
  for (const Format& f : manifest.formats) {
    if (f.file != wk.rel) continue;
    std::size_t eb, ee, db, de;
    int eline = 1, dline = 1;
    const bool enc_found =
        find_function_body(toks, depth, f.encoder, eb, ee, eline);
    const bool dec_found =
        find_function_body(toks, depth, f.decoder, db, de, dline);
    if (!enc_found || !dec_found) {
      wk.flag(1, "wire.asym",
              "format '" + f.name + "': " +
                  (!enc_found ? "encoder '" + f.encoder + "'"
                              : "decoder '" + f.decoder + "'") +
                  " has no definition in this file — fix the wire.toml entry");
      continue;
    }
    OpSeq enc, dec;
    enc.line = eline;
    dec.line = dline;
    collect_writer_ops(toks, eb, ee, writers, enc.ops);
    collect_reader_ops(toks, db, de, readers, dec.ops);
    normalize_ops(enc.ops);
    normalize_ops(dec.ops);
    if (!ops_match(enc.ops, dec.ops)) {
      wk.flag(eline, "wire.asym",
              "format '" + f.name + "': encoder '" + f.encoder + "' writes " +
                  join_ops(enc.ops) + " but decoder '" + f.decoder +
                  "' (line " + std::to_string(dline) + ") reads " +
                  join_ops(dec.ops));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

Report analyze(const fs::path& root, const Manifest& manifest,
               const analyzer::SourceTree* tree) {
  analyzer::SourceTree local;
  if (!tree) {
    local = analyzer::load_tree(root);
    tree = &local;
  }

  Report report;
  std::vector<FileWork> works;
  works.reserve(tree->files.size());
  CrossFacts facts;

  // Pass 1: per-file contracts; cross-file facts are only collected here.
  for (const analyzer::SourceFile& src : tree->files) {
    const std::string& rel = src.rel;

    FileWork wk;
    wk.rel = rel;
    // Malformed allows go straight to the report: they are never
    // suppressible and never participate in matching.
    wk.sups = analyzer::collect_suppressions("wirecheck", kKnownRules, rel,
                                             src.lines, report.diagnostics);

    const std::vector<Token>& toks = src.tokens;
    const std::vector<int> depth = brace_depth(toks);

    check_tag_contracts(wk, toks, depth);
    check_formats(wk, toks, depth, manifest);
    if (manifest.is_hot(rel)) check_hot_rules(wk, toks);

    collect_cross_facts(toks, works.size(), facts);
    if (!manifest.events_registry.empty() && rel == manifest.events_registry)
      parse_registry(toks, facts);

    works.push_back(std::move(wk));
    ++report.files_scanned;
  }

  // Pass 2: whole-tree send/handler cross-reference. When the registry
  // header was scanned, facts are restricted to its declared names so
  // unrelated kEv*/kMod*-looking identifiers cannot misfire.
  auto in_registry = [&](const std::string& name) {
    return !facts.registry_seen || facts.registry.count(name) != 0;
  };
  auto cross = [&](const std::map<std::string, Site>& have,
                   const std::map<std::string, Site>& want,
                   const std::string& rule, const std::string& what,
                   const std::string& did, const std::string& missing) {
    for (const auto& [name, site] : have) {
      if (!in_registry(name) || manifest.is_app_event(name)) continue;
      if (want.count(name)) continue;
      works[site.file_idx].flag(site.line, rule,
                                what + " '" + name + "' " + did + " but " +
                                    missing);
    }
  };
  cross(facts.raised_events, facts.bound_events, "wire.unhandled", "event",
        "is raised", "no composition binds a handler for it");
  cross(facts.bound_events, facts.raised_events, "wire.dead", "event",
        "has a bound handler", "nothing ever raises it");
  cross(facts.sent_modules, facts.bound_modules, "wire.unhandled",
        "module id", "is sent to the wire",
        "no composition binds a demux handler for it");
  cross(facts.bound_modules, facts.sent_modules, "wire.dead", "module id",
        "has a bound demux handler", "nothing ever sends to it");

  // Pass 3: suppression lifecycle, per file.
  for (FileWork& wk : works) {
    analyzer::dedupe_by_line_rule(wk.pending);
    analyzer::apply_suppressions("wirecheck", wk.rel, wk.sups, wk.pending,
                                 report.diagnostics);
  }
  report.sort_stable();
  return report;
}

}  // namespace wirecheck
