#include "modcheck.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "lexer.hpp"
#include "manifest.hpp"
#include "suppress.hpp"

namespace modcheck {
namespace fs = std::filesystem;

using analyzer::member_access;
using analyzer::skip_template_args;
using analyzer::split_lines;
using analyzer::split_ws;
using analyzer::std_qualified;
using analyzer::strip_comments;
using analyzer::Suppression;
using analyzer::Token;
using analyzer::tok_is;
using analyzer::tokenize;
using analyzer::trim;

namespace {

const std::set<std::string> kKnownRules = {
    "layer.forbidden",     "layer.private-header", "layer.unmapped",
    "det.rand",            "det.random-device",    "det.wall-clock",
    "det.unordered-iter",  "det.pointer-order",    "det.thread",
    "meta.bad-suppression", "meta.unused-suppression",
};

}  // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

const Layer* Manifest::find(const std::string& name) const {
  for (const Layer& l : layers)
    if (l.name == name) return &l;
  return nullptr;
}

bool Manifest::deterministic(const std::string& layer_name) const {
  return std::find(determinism_layers.begin(), determinism_layers.end(),
                   layer_name) != determinism_layers.end();
}

Manifest parse_manifest(std::istream& in) {
  Manifest m;
  for (const analyzer::ManifestSection& sec : analyzer::read_manifest(in)) {
    if (sec.kind == "determinism" && sec.arg.empty()) {
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key != "layers")
          analyzer::manifest_error(e.line, "unknown determinism key " + e.key);
        m.determinism_layers = split_ws(e.value);
      }
    } else if (sec.kind == "layer") {
      if (sec.arg.empty())
        analyzer::manifest_error(sec.line, "[layer] needs a name");
      if (m.find(sec.arg))
        analyzer::manifest_error(sec.line, "duplicate layer " + sec.arg);
      Layer& l = m.layers.emplace_back();
      l.name = sec.arg;
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key == "path") {
          l.path = e.value;
        } else if (e.key == "deps") {
          l.deps = split_ws(e.value);
        } else if (e.key == "public") {
          l.public_headers = split_ws(e.value);
        } else {
          analyzer::manifest_error(e.line, "unknown key " + e.key +
                                               " in [layer " + l.name + "]");
        }
      }
    } else {
      analyzer::manifest_error(sec.line,
                               "unknown section [" + sec.header() + "]");
    }
  }

  // Validate: paths present, dep names known, determinism names known.
  for (const Layer& l : m.layers) {
    if (l.path.empty())
      throw std::runtime_error("layer " + l.name + " has no path");
    for (const std::string& d : l.deps)
      if (!m.find(d))
        throw std::runtime_error("layer " + l.name +
                                 " depends on unknown layer " + d);
  }
  for (const std::string& d : m.determinism_layers)
    if (!m.find(d))
      throw std::runtime_error("determinism scope names unknown layer " + d);

  // Validate: the declared edges form a DAG (depth-first cycle check).
  std::map<std::string, int> state;  // 0 unseen, 1 on stack, 2 done
  std::function<void(const Layer&)> visit = [&](const Layer& l) {
    state[l.name] = 1;
    for (const std::string& d : l.deps) {
      const Layer* dep = m.find(d);
      if (state[dep->name] == 1)
        throw std::runtime_error("layer cycle through " + l.name + " -> " +
                                 dep->name);
      if (state[dep->name] == 0) visit(*dep);
    }
    state[l.name] = 2;
  };
  for (const Layer& l : m.layers)
    if (state[l.name] == 0) visit(l);
  return m;
}

Manifest load_manifest(const fs::path& file) {
  return analyzer::load_manifest(file, parse_manifest);
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

namespace {

struct FileContext {
  std::string file;  ///< relative path used in diagnostics
  const Manifest* manifest;
  const Layer* layer;            ///< owning layer (may be null)
  bool det;                      ///< determinism rules apply
  std::vector<Suppression> sups;
  std::vector<Diagnostic> pending;

  void flag(int line, const std::string& rule, const std::string& message) {
    pending.push_back({file, line, rule, message, false, ""});
  }
};

/// Resolves the layer owning `path` (relative to root) by longest prefix.
const Layer* layer_of(const Manifest& m, const std::string& path) {
  const Layer* best = nullptr;
  std::size_t best_len = 0;
  for (const Layer& l : m.layers) {
    const std::string prefix = l.path + "/";
    if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
        prefix.size() > best_len) {
      best = &l;
      best_len = prefix.size();
    }
  }
  return best;
}

/// Include scanning reads the RAW lines (the include path is a string
/// literal, which the code view blanks out); the code view only gates out
/// includes sitting inside comments.
void check_includes(FileContext& ctx, const std::vector<std::string>& raw,
                    const std::vector<std::string>& code,
                    const fs::path& root) {
  const Manifest& m = *ctx.manifest;
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const std::string& line = raw[li];
    int lineno = static_cast<int>(li) + 1;
    std::string gate = trim(code[li]);
    if (gate.empty() || gate[0] != '#') continue;
    std::string t = trim(line);
    if (t.empty() || t[0] != '#') continue;
    std::string directive = trim(t.substr(1));
    if (directive.rfind("include", 0) != 0) continue;
    std::string rest = trim(directive.substr(7));
    if (rest.empty()) continue;
    if (rest[0] == '<') {
      if (!ctx.det) continue;
      std::size_t close = rest.find('>');
      if (close == std::string::npos) continue;
      std::string header = rest.substr(1, close - 1);
      if (header == "thread") {
        ctx.flag(lineno, "det.thread",
                 "<thread> in determinism scope — threads only in the sweep "
                 "runner");
      } else if (header == "random") {
        ctx.flag(lineno, "det.rand",
                 "<random> in determinism scope — use util/rng.hpp streams");
      } else if (header == "ctime" || header == "time.h" ||
                 header == "sys/time.h") {
        ctx.flag(lineno, "det.wall-clock",
                 "<" + header + "> in determinism scope — use virtual time");
      }
      continue;
    }
    if (rest[0] != '"') continue;
    std::size_t close = rest.find('"', 1);
    if (close == std::string::npos) continue;
    std::string inc = rest.substr(1, close - 1);
    // Resolve: project includes are root-relative ("util/bytes.hpp"); a
    // bare name ("foo.hpp") refers to the including file's own directory.
    std::string resolved = inc;
    if (!fs::exists(root / resolved)) {
      fs::path sibling = fs::path(ctx.file).parent_path() / inc;
      if (fs::exists(root / sibling)) resolved = sibling.generic_string();
    }
    const Layer* target = layer_of(m, resolved);
    if (!target || !ctx.layer) continue;  // unmapped handled elsewhere
    if (target == ctx.layer) continue;
    bool allowed =
        std::find(ctx.layer->deps.begin(), ctx.layer->deps.end(),
                  target->name) != ctx.layer->deps.end();
    if (!allowed) {
      ctx.flag(lineno, "layer.forbidden",
               "layer '" + ctx.layer->name + "' must not include '" +
                   resolved + "' (layer '" + target->name +
                   "' is not a declared dependency)");
      continue;
    }
    if (!target->public_headers.empty()) {
      std::string within = resolved.substr(target->path.size() + 1);
      bool is_public =
          std::find(target->public_headers.begin(),
                    target->public_headers.end(),
                    within) != target->public_headers.end();
      if (!is_public)
        ctx.flag(lineno, "layer.private-header",
                 "'" + resolved + "' is internal to layer '" + target->name +
                     "' (public: its declared interface headers only)");
    }
  }
}

void check_determinism(FileContext& ctx, const std::vector<Token>& toks) {
  static const std::set<std::string> kUnorderedTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::set<std::string> kOrderedTypes = {
      "map", "set", "multimap", "multiset", "less", "greater"};
  static const std::set<std::string> kWallClock = {
      "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime", "localtime", "gmtime"};
  static const std::set<std::string> kRand = {"rand", "srand", "rand_r",
                                             "drand48", "mrand48", "lrand48"};

  // Pass 1: names declared as unordered containers in this file.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident || !kUnorderedTypes.count(toks[i].text)) continue;
    std::size_t j = skip_template_args(toks, i + 1);
    if (j > i + 1 && j < toks.size() && toks[j].ident)
      unordered_names.insert(toks[j].text);
  }

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tk = toks[i];
    if (!tk.ident) continue;
    const std::string& s = tk.text;

    if (kRand.count(s) && tok_is(toks, i + 1, "(") && !member_access(toks, i)) {
      ctx.flag(tk.line, "det.rand",
               s + "() draws from ambient process state — use the seeded "
                   "util::Rng streams");
    }
    if (s == "random_device") {
      ctx.flag(tk.line, "det.random-device",
               "std::random_device is nondeterministic — derive seeds from "
               "the world seed");
    }
    if (kWallClock.count(s)) {
      ctx.flag(tk.line, "det.wall-clock",
               s + " reads the host clock — result-affecting code must use "
                   "virtual time (util::TimePoint)");
    }
    if ((s == "time" || s == "clock") && tok_is(toks, i + 1, "(") &&
        !member_access(toks, i)) {
      // Allow `obj.time()` accessors and non-std qualified names; flag bare
      // and std:: calls of the C library functions.
      bool qualified = i >= 2 && toks[i - 1].text == ":" &&
                       toks[i - 2].text == ":";
      if (!qualified || std_qualified(toks, i))
        ctx.flag(tk.line, "det.wall-clock",
                 s + "() reads the host clock — use virtual time");
    }
    if ((s == "thread" || s == "jthread") && std_qualified(toks, i)) {
      ctx.flag(tk.line, "det.thread",
               "std::" + s + " in determinism scope — threads only in the "
                             "sweep runner");
    }
    if (s == "async" && std_qualified(toks, i)) {
      ctx.flag(tk.line, "det.thread",
               "std::async in determinism scope — threads only in the sweep "
               "runner");
    }
    if (s == "hardware_concurrency") {
      ctx.flag(tk.line, "det.thread",
               "hardware_concurrency() makes behaviour depend on the host — "
               "take explicit job counts");
    }
    if (kOrderedTypes.count(s) && std_qualified(toks, i) &&
        tok_is(toks, i + 1, "<")) {
      // Inspect the first template argument; a trailing '*' means the
      // container is keyed (or the comparator ordered) by pointer value.
      int depth = 0;
      std::string last;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        const std::string& u = toks[j].text;
        if (u == "<") {
          ++depth;
          continue;
        }
        if (u == ">" && --depth == 0) break;
        if (u == "," && depth == 1) break;
        last = u;
      }
      if (last == "*")
        ctx.flag(tk.line, "det.pointer-order",
                 "std::" + s + " keyed by pointer — iteration order depends "
                               "on allocation addresses");
    }
    if (s == "for" && tok_is(toks, i + 1, "(")) {
      // Range-for over an unordered container: for (decl : expr).
      int depth = 0;
      std::size_t colon = 0, end = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        const std::string& u = toks[j].text;
        if (u == "(") ++depth;
        if (u == ")" && --depth == 0) {
          end = j;
          break;
        }
        if (u == ":" && depth == 1 && !tok_is(toks, j + 1, ":") &&
            !(j > 0 && toks[j - 1].text == ":"))
          if (!colon) colon = j;
      }
      if (colon && end) {
        for (std::size_t j = colon + 1; j < end; ++j)
          if (toks[j].ident && unordered_names.count(toks[j].text)) {
            ctx.flag(toks[j].line, "det.unordered-iter",
                     "range-for over unordered container '" + toks[j].text +
                         "' — iteration order is unspecified");
            break;
          }
      }
    }
    if ((s == "begin" || s == "end" || s == "cbegin" || s == "cend") &&
        member_access(toks, i) && i >= 2 && toks[i - 2].ident &&
        unordered_names.count(toks[i - 2].text)) {
      ctx.flag(tk.line, "det.unordered-iter",
               "iterating unordered container '" + toks[i - 2].text +
                   "' — iteration order is unspecified");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

void analyze_source(const analyzer::SourceFile& src, const Manifest& manifest,
                    const fs::path& root, std::vector<Diagnostic>& out) {
  FileContext ctx;
  ctx.file = src.rel;
  ctx.manifest = &manifest;
  ctx.layer = layer_of(manifest, src.rel);
  ctx.det = ctx.layer && manifest.deterministic(ctx.layer->name);
  ctx.sups = analyzer::collect_suppressions("modcheck", kKnownRules, src.rel,
                                            src.lines, out);

  if (!ctx.layer) {
    ctx.flag(1, "layer.unmapped",
             "file is under no declared layer — add it to the manifest");
  }

  check_includes(ctx, src.lines, src.code, root);
  if (ctx.det) check_determinism(ctx, src.tokens);

  analyzer::dedupe_by_line_rule(ctx.pending);
  analyzer::apply_suppressions("modcheck", src.rel, ctx.sups, ctx.pending,
                               out);
}

void analyze_file(const std::string& relative_path, const std::string& text,
                  const Manifest& manifest, const fs::path& root,
                  std::vector<Diagnostic>& out) {
  analyze_source(analyzer::make_source_file(relative_path, text), manifest,
                 root, out);
}

Report analyze(const fs::path& root, const Manifest& manifest,
               const analyzer::SourceTree* tree) {
  analyzer::SourceTree local;
  if (!tree) {
    local = analyzer::load_tree(root);
    tree = &local;
  }
  Report report;
  for (const analyzer::SourceFile& src : tree->files) {
    analyze_source(src, manifest, root, report.diagnostics);
    ++report.files_scanned;
  }
  report.sort_stable();
  return report;
}

}  // namespace modcheck
