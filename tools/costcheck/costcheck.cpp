#include "costcheck.hpp"

#include <algorithm>
#include <stdexcept>

#include "lexer.hpp"
#include "manifest.hpp"
#include "suppress.hpp"

namespace fs = std::filesystem;

namespace costcheck {

using analyzer::Suppression;
using analyzer::Token;
using analyzer::member_access;
using analyzer::tok_is;

namespace {

const std::set<std::string> kKnownRules = {
    "cost.model_mismatch",   "cost.unbudgeted_send",
    "quorum.threshold",      "quorum.overlap",
    "meta.bad-suppression",  "meta.unused-suppression"};

}  // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

namespace {

std::vector<std::string> split_on(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(analyzer::trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(analyzer::trim(cur));
  return out;
}

Phase parse_phase_value(const std::string& value, int lineno) {
  // phase = <name> | module <kMod> | tags <t...> | fns <f...> | count <expr>
  Phase p;
  const std::vector<std::string> parts = split_on(value, '|');
  if (parts.empty() || parts.front().empty())
    analyzer::manifest_error(lineno, "phase needs a name");
  p.name = parts.front();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    const std::size_t sp = part.find(' ');
    const std::string key = part.substr(0, sp);
    const std::string rest =
        sp == std::string::npos ? "" : analyzer::trim(part.substr(sp + 1));
    if (key == "module") {
      p.module = rest;
    } else if (key == "tags") {
      p.tags = analyzer::split_ws(rest);
    } else if (key == "fns") {
      p.functions = analyzer::split_ws(rest);
    } else if (key == "count") {
      p.count = rest;
    } else {
      analyzer::manifest_error(lineno, "unknown phase field '" + key + "'");
    }
  }
  if (p.module.empty())
    analyzer::manifest_error(lineno, "phase '" + p.name + "' needs a module");
  if (p.count.empty())
    analyzer::manifest_error(lineno, "phase '" + p.name + "' needs a count");
  return p;
}

}  // namespace

Manifest parse_manifest(std::istream& in) {
  Manifest m;
  auto bad_key = [](const analyzer::ManifestEntry& e) {
    analyzer::manifest_error(e.line,
                             "unknown key '" + e.key + "' in this section");
  };
  for (const analyzer::ManifestSection& sec : analyzer::read_manifest(in)) {
    const bool named = !sec.arg.empty();
    if (sec.kind == "model" && !named) {
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key == "file") m.model_file = e.value;
        else bad_key(e);
      }
    } else if (sec.kind == "flow" && !named) {
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key == "registry") m.flow_registry = e.value;
        else bad_key(e);
      }
    } else if (sec.kind == "stack" && named) {
      StackSpec& st = m.stacks.emplace_back();
      st.name = sec.arg;
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key == "modules") st.modules = analyzer::split_ws(e.value);
        else if (e.key == "model") st.model = e.value;
        else if (e.key == "symbols") st.symbols = analyzer::split_ws(e.value);
        else if (e.key == "cold") st.cold = analyzer::split_ws(e.value);
        else if (e.key == "phase")
          st.phases.push_back(parse_phase_value(e.value, e.line));
        else bad_key(e);
      }
    } else if (sec.kind == "quorum" && named) {
      QuorumSpec& q = m.quorums.emplace_back();
      q.unit = sec.arg;
      for (const analyzer::ManifestEntry& e : sec.entries) {
        if (e.key == "counters") q.counters = analyzer::split_ws(e.value);
        else if (e.key == "threshold") q.threshold = e.value;
        else if (e.key == "quorum") q.quorum = e.value;
        else if (e.key == "allow") q.allow = analyzer::split_ws(e.value);
        else if (e.key == "odd_n") q.odd_n = (e.value == "true");
        else if (e.key == "count") {
          const std::size_t sp = e.value.find(' ');
          if (sp == std::string::npos)
            analyzer::manifest_error(e.line, "count needs '<var> <expr>'");
          q.count_vars.emplace_back(e.value.substr(0, sp),
                                    analyzer::trim(e.value.substr(sp + 1)));
        } else {
          bad_key(e);
        }
      }
    } else {
      analyzer::manifest_error(sec.line,
                               "unknown section [" + sec.header() + "]");
    }
  }
  for (const StackSpec& st : m.stacks) {
    if (st.modules.empty() || st.model.empty() || st.phases.empty())
      throw std::runtime_error("stack '" + st.name +
                               "' needs modules, model, and phases");
  }
  for (const QuorumSpec& q : m.quorums) {
    if (q.quorum.empty())
      throw std::runtime_error("quorum '" + q.unit + "' needs a quorum expr");
  }
  return m;
}

Manifest load_manifest(const fs::path& file) {
  return analyzer::load_manifest(file, parse_manifest);
}

// ---------------------------------------------------------------------------
// Symbolic polynomials
// ---------------------------------------------------------------------------
//
// Message costs are polynomials over the atoms `n` (group size) and `F0`
// (⌊n/2⌋; ⌊(n+1)/2⌋ is normalized to n − F0) plus the manifest's free
// symbols. That closed family is exactly what integer division by 2 of a
// linear-in-n expression produces, which is all the paper's closed forms
// and the code's quorum arithmetic ever need.

namespace {

using Mono = std::map<std::string, int>;   ///< atom -> exponent
using Poly = std::map<Mono, long long>;    ///< monomial -> coefficient

Poly p_const(long long c) {
  Poly p;
  if (c != 0) p[Mono{}] = c;
  return p;
}

Poly p_atom(const std::string& name) {
  Poly p;
  p[Mono{{name, 1}}] = 1;
  return p;
}

void p_acc(Poly& a, const Poly& b, long long scale) {
  for (const auto& [m, c] : b) {
    auto it = a.emplace(m, 0).first;
    it->second += c * scale;
    if (it->second == 0) a.erase(it);
  }
}

Poly p_add(const Poly& a, const Poly& b) {
  Poly r = a;
  p_acc(r, b, 1);
  return r;
}

Poly p_sub(const Poly& a, const Poly& b) {
  Poly r = a;
  p_acc(r, b, -1);
  return r;
}

Poly p_mul(const Poly& a, const Poly& b) {
  Poly r;
  for (const auto& [ma, ca] : a) {
    for (const auto& [mb, cb] : b) {
      Mono m = ma;
      for (const auto& [atom, e] : mb) m[atom] += e;
      auto it = r.emplace(std::move(m), 0).first;
      it->second += ca * cb;
      if (it->second == 0) r.erase(it);
    }
  }
  return r;
}

long long floor2(long long x) { return x >= 0 ? x / 2 : -((-x + 1) / 2); }

/// Floor-divides a·n + b by 2. ⌊(n+r)/2⌋ for the odd-slope remainder is F0
/// (r = 0) or n − F0 (r = 1). Fails on anything not linear in bare n.
bool p_div2(const Poly& p, Poly& out) {
  long long a = 0, b = 0;
  for (const auto& [m, c] : p) {
    if (m.empty()) {
      b = c;
    } else if (m.size() == 1 && m.count("n") && m.at("n") == 1) {
      a = c;
    } else {
      return false;
    }
  }
  out.clear();
  if (a % 2 == 0) {
    p_acc(out, p_atom("n"), a / 2);
    p_acc(out, p_const(1), floor2(b));
  } else {
    const long long c = floor2(a - 1);       // a = 2c + 1
    const long long r = ((b % 2) + 2) % 2;   // b = 2d + r
    const long long d = (b - r) / 2;
    p_acc(out, p_atom("n"), c);
    p_acc(out, p_const(1), d);
    if (r == 0) {
      p_acc(out, p_atom("F0"), 1);
    } else {
      p_acc(out, p_atom("n"), 1);
      p_acc(out, p_atom("F0"), -1);
    }
  }
  return true;
}

/// Evaluates at a concrete group size; fails on free symbols.
bool p_eval(const Poly& p, long long n, long long& out) {
  out = 0;
  for (const auto& [m, c] : p) {
    long long v = c;
    for (const auto& [atom, e] : m) {
      long long base;
      if (atom == "n") base = n;
      else if (atom == "F0") base = n / 2;
      else return false;
      for (int k = 0; k < e; ++k) v *= base;
    }
    out += v;
  }
  return true;
}

std::string mono_str(const Mono& m) {
  std::string s;
  for (const auto& [atom, e] : m) {
    if (!s.empty()) s += "*";
    s += atom == "F0" ? "floor(n/2)" : atom;
    if (e != 1) s += "^" + std::to_string(e);
  }
  return s;
}

std::string p_str(const Poly& p) {
  if (p.empty()) return "0";
  std::string s;
  for (const auto& [m, c] : p) {
    const long long a = c < 0 ? -c : c;
    if (s.empty()) {
      if (c < 0) s += "-";
    } else {
      s += c < 0 ? " - " : " + ";
    }
    const std::string ms = mono_str(m);
    if (ms.empty()) {
      s += std::to_string(a);
    } else {
      if (a != 1) s += std::to_string(a) + "*";
      s += ms;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Expression parsing (manifest counts, model bodies, quorum arithmetic)
// ---------------------------------------------------------------------------

struct ModelFn {
  std::vector<std::string> params;
  std::size_t body_begin = 0, body_end = 0;  ///< return-expression tokens
  int line = 0;
  bool opaque = true;  ///< body is not a single integer return
};

struct ModelIndex {
  const std::vector<Token>* toks = nullptr;
  std::map<std::string, ModelFn> fns;
};

bool is_keyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof";
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

bool is_int_literal(const Token& tok) {
  if (tok.ident || tok.text.empty()) return false;
  for (char c : tok.text)
    if (c < '0' || c > '9') return false;
  return true;
}

struct EvalError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Recursive-descent parser producing a Poly from a token range.
///  * `env` binds identifiers (manifest symbols, model-fn parameters).
///  * bare `n` is the group size; call chains ending in group_size() are n
///    when `group_size_is_n` (source-code mode).
///  * calls to `model` functions are inlined recursively.
class ExprParser {
 public:
  ExprParser(const std::vector<Token>& t, std::size_t begin, std::size_t end,
             const std::map<std::string, Poly>& env, const ModelIndex* model,
             bool group_size_is_n, int depth)
      : t_(t), i_(begin), end_(end), env_(env), model_(model),
        group_size_is_n_(group_size_is_n), depth_(depth) {
    if (depth_ > 16) throw EvalError("model call inlining too deep");
  }

  Poly parse() {
    const Poly p = expr();
    if (i_ != end_) throw EvalError("trailing tokens in expression");
    return p;
  }

 private:
  const std::vector<Token>& t_;
  std::size_t i_, end_;
  const std::map<std::string, Poly>& env_;
  const ModelIndex* model_;
  bool group_size_is_n_;
  int depth_;

  bool at(const char* s) const { return i_ < end_ && t_[i_].text == s; }

  Poly expr() {
    Poly p = term();
    while (at("+") || at("-")) {
      const bool add = t_[i_].text == "+";
      ++i_;
      const Poly rhs = term();
      p = add ? p_add(p, rhs) : p_sub(p, rhs);
    }
    return p;
  }

  Poly term() {
    Poly p = unary();
    while (at("*") || at("/")) {
      const bool mul = t_[i_].text == "*";
      ++i_;
      const Poly rhs = unary();
      if (mul) {
        p = p_mul(p, rhs);
      } else {
        if (rhs != p_const(2))
          throw EvalError("only division by the literal 2 is supported");
        Poly q;
        if (!p_div2(p, q))
          throw EvalError("division of a non-linear expression");
        p = std::move(q);
      }
    }
    return p;
  }

  Poly unary() {
    if (at("-")) {
      ++i_;
      Poly p = unary();
      Poly r;
      p_acc(r, p, -1);
      return r;
    }
    if (at("+")) {
      ++i_;
      return unary();
    }
    return primary();
  }

  Poly primary() {
    if (i_ >= end_) throw EvalError("unexpected end of expression");
    if (at("(")) {
      ++i_;
      Poly p = expr();
      if (!at(")")) throw EvalError("missing ')'");
      ++i_;
      return p;
    }
    if (is_int_literal(t_[i_])) return p_const(std::stoll(t_[i_++].text));
    if (!t_[i_].ident) throw EvalError("unexpected token '" + t_[i_].text + "'");

    // Consume a member/scope chain; the last name decides the meaning.
    std::string name = t_[i_].text;
    std::size_t j = i_ + 1;
    bool chained = false;
    while (j + 1 < end_) {
      if (t_[j].text == "." && t_[j + 1].ident) {
        name = t_[j + 1].text;
        j += 2;
        chained = true;
      } else if (j + 2 < end_ && t_[j].text == "-" && t_[j + 1].text == ">" &&
                 t_[j + 2].ident) {
        name = t_[j + 2].text;
        j += 3;
        chained = true;
      } else if (j + 2 < end_ && t_[j].text == ":" && t_[j + 1].text == ":" &&
                 t_[j + 2].ident) {
        name = t_[j + 2].text;
        j += 3;
        chained = true;
      } else {
        break;
      }
    }
    if (j < end_ && t_[j].text == "(") {
      const std::size_t close = match_paren(t_, j);
      if (close >= end_) throw EvalError("unterminated call");
      if (group_size_is_n_ && name == "group_size" && close == j + 1) {
        i_ = close + 1;
        return p_atom("n");
      }
      if (model_ && model_->fns.count(name))
        return inline_call(name, j, close);
      throw EvalError("call to unknown function '" + name + "'");
    }
    if (chained) throw EvalError("opaque member chain ending in '" + name + "'");
    ++i_;
    auto it = env_.find(name);
    if (it != env_.end()) return it->second;
    if (name == "n") return p_atom("n");
    throw EvalError("unknown identifier '" + name + "'");
  }

  Poly inline_call(const std::string& name, std::size_t open,
                   std::size_t close) {
    const ModelFn& fn = model_->fns.at(name);
    if (fn.opaque)
      throw EvalError("model function '" + name +
                      "' is not a single integer return");
    // Split [open+1, close) at top-level commas and evaluate each argument
    // in the current environment.
    std::vector<Poly> args;
    std::size_t begin = open + 1;
    int pd = 0;
    for (std::size_t k = open + 1; k <= close; ++k) {
      if (t_[k].text == "(") ++pd;
      else if (t_[k].text == ")" && k != close) --pd;
      if ((k == close && k > begin) || (pd == 0 && t_[k].text == ",")) {
        args.push_back(ExprParser(t_, begin, k, env_, model_,
                                  group_size_is_n_, depth_ + 1)
                           .parse());
        begin = k + 1;
      }
    }
    if (args.size() != fn.params.size())
      throw EvalError("call to '" + name + "' with " +
                      std::to_string(args.size()) + " args, expected " +
                      std::to_string(fn.params.size()));
    std::map<std::string, Poly> bound;
    for (std::size_t k = 0; k < args.size(); ++k)
      bound[fn.params[k]] = args[k];
    i_ = close + 1;
    return ExprParser(*model_->toks, fn.body_begin, fn.body_end, bound, model_,
                      false, depth_ + 1)
        .parse();
  }
};

Poly parse_expr_string(const std::string& expr,
                       const std::map<std::string, Poly>& env,
                       const ModelIndex* model, const std::string& what) {
  const std::vector<Token> toks = analyzer::tokenize({expr});
  try {
    return ExprParser(toks, 0, toks.size(), env, model, false, 0).parse();
  } catch (const EvalError& e) {
    throw std::runtime_error(what + " '" + expr + "': " + e.what());
  }
}

/// Indexes `name(params) { return <expr>; }` definitions in the analytical
/// model file. Non-integer bodies are kept opaque: referencing one from the
/// manifest is an error, ignoring it is not.
ModelIndex build_model_index(const std::vector<Token>& t) {
  ModelIndex idx;
  idx.toks = &t;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].ident || is_keyword(t[i].text) || t[i + 1].text != "(") continue;
    const std::size_t close = match_paren(t, i + 1);
    if (close + 1 >= t.size() || t[close + 1].text != "{") continue;
    ModelFn fn;
    fn.line = t[i].line;
    int pd = 0;
    std::string last_ident;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (t[k].text == "(") ++pd;
      else if (t[k].text == ")") --pd;
      if (t[k].ident) last_ident = t[k].text;
      if (pd == 1 && t[k].text == "," && !last_ident.empty()) {
        fn.params.push_back(last_ident);
        last_ident.clear();
      }
    }
    if (!last_ident.empty()) fn.params.push_back(last_ident);
    if (tok_is(t, close + 2, "return")) {
      std::size_t semi = close + 3;
      while (semi < t.size() && t[semi].text != ";") ++semi;
      if (semi < t.size()) {
        fn.body_begin = close + 3;
        fn.body_end = semi;
        fn.opaque = false;
      }
    }
    idx.fns.emplace(t[i].text, std::move(fn));
  }
  return idx;
}

// ---------------------------------------------------------------------------
// Token helpers: enclosing functions, loops, send sites
// ---------------------------------------------------------------------------

/// Per-token name of the innermost *named* function body (lambdas and plain
/// blocks inherit their enclosing function; tokens at class/namespace scope
/// get ""). A body is named when its '{' follows `)` [const|noexcept|
/// override|final]* and the token before the matching '(' is a non-keyword
/// identifier.
std::vector<std::string> function_frames(const std::vector<Token>& t) {
  std::vector<std::string> fn(t.size());
  std::vector<std::string> frames;  // "" = anonymous, inherits
  std::string effective;
  auto recompute = [&] {
    effective.clear();
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (!it->empty()) {
        effective = *it;
        break;
      }
    }
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "{") {
      std::string name;
      std::size_t j = i;
      while (j > 0) {
        const std::string& s = t[j - 1].text;
        if (s == "const" || s == "noexcept" || s == "override" || s == "final")
          --j;
        else
          break;
      }
      if (j > 0 && t[j - 1].text == ")") {
        int pd = 0;
        std::size_t k = j - 1;
        for (;; --k) {
          if (t[k].text == ")") ++pd;
          else if (t[k].text == "(" && --pd == 0) break;
          if (k == 0) break;
        }
        if (k > 0 && t[k].text == "(" && t[k - 1].ident &&
            !is_keyword(t[k - 1].text))
          name = t[k - 1].text;
      }
      fn[i] = effective;
      frames.push_back(name);
      if (!name.empty()) recompute();
      continue;
    }
    if (t[i].text == "}") {
      if (!frames.empty()) {
        const bool named = !frames.back().empty();
        frames.pop_back();
        if (named) recompute();
      }
      fn[i] = effective;
      continue;
    }
    fn[i] = effective;
  }
  return fn;
}

struct LoopExtent {
  std::size_t hbegin = 0, hend = 0;  ///< header token range
  std::size_t bbegin = 0, bend = 0;  ///< body token range
};

std::vector<LoopExtent> collect_for_loops(const std::vector<Token>& t) {
  std::vector<LoopExtent> loops;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!tok_is(t, i, "for") || t[i + 1].text != "(") continue;
    const std::size_t close = match_paren(t, i + 1);
    if (close >= t.size()) continue;
    LoopExtent l;
    l.hbegin = i + 2;
    l.hend = close;
    if (close + 1 < t.size() && t[close + 1].text == "{") {
      int bd = 0;
      std::size_t k = close + 1;
      for (; k < t.size(); ++k) {
        if (t[k].text == "{") ++bd;
        else if (t[k].text == "}" && --bd == 0) break;
      }
      l.bbegin = close + 2;
      l.bend = k;
    } else {
      std::size_t k = close + 1;
      int pd = 0;
      for (; k < t.size(); ++k) {
        if (t[k].text == "(") ++pd;
        else if (t[k].text == ")") --pd;
        else if (t[k].text == ";" && pd == 0) break;
      }
      l.bbegin = close + 1;
      l.bend = k;
    }
    loops.push_back(l);
  }
  return loops;
}

bool range_mentions(const std::vector<Token>& t, std::size_t a, std::size_t b,
                    const std::string& name) {
  for (std::size_t j = a; j < b && j < t.size(); ++j)
    if (t[j].ident && t[j].text == name) return true;
  return false;
}

struct SendSite {
  std::size_t file_idx = 0;
  int line = 0;
  std::string module;  ///< kMod* routing constant in the call
  std::string tag;     ///< first u8 after the nearest in-function ByteWriter
  std::string fn;      ///< enclosing named function
  Poly mult;
  std::string mult_str;
};

void collect_send_sites(const std::vector<Token>& t, std::size_t file_idx,
                        std::vector<SendSite>& out) {
  const std::vector<std::string> frames = function_frames(t);
  const std::vector<LoopExtent> loops = collect_for_loops(t);
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident ||
        (t[i].text != "send_wire" && t[i].text != "send_wire_to_others"))
      continue;
    if (t[i + 1].text != "(" || !member_access(t, i)) continue;
    const std::size_t close = match_paren(t, i + 1);
    SendSite site;
    site.file_idx = file_idx;
    site.line = t[i].line;
    site.fn = frames[i];
    for (std::size_t j = i + 2; j < close; ++j) {
      if (t[j].ident && t[j].text.rfind("kMod", 0) == 0) {
        site.module = t[j].text;
        break;
      }
    }
    if (site.module.empty()) continue;  // forwarding wrapper, not a site

    // Tag: nearest preceding ByteWriter constructor in the same function,
    // then the first u8() written to it.
    for (std::size_t j = i; j-- > 0;) {
      if (frames[j] != site.fn) break;
      if (!t[j].ident || t[j].text != "ByteWriter") continue;
      for (std::size_t k = j; k + 2 < i; ++k) {
        if (t[k].ident && t[k].text == "u8" && t[k + 1].text == "(") {
          if (t[k + 2].ident && t[k + 2].text.rfind('k', 0) == 0)
            site.tag = t[k + 2].text;
          break;
        }
      }
      break;
    }

    if (t[i].text == "send_wire_to_others") {
      site.mult = p_sub(p_atom("n"), p_const(1));
      site.mult_str = "(n - 1)";
    } else {
      // Unicast — unless the site sits in a for loop over the whole group
      // (header mentions n or group_size), which makes it a fan-out that
      // skips self when the loop tests it.
      const LoopExtent* inner = nullptr;
      for (const LoopExtent& l : loops) {
        if (i < l.bbegin || i >= l.bend) continue;
        if (!range_mentions(t, l.hbegin, l.hend, "n") &&
            !range_mentions(t, l.hbegin, l.hend, "group_size"))
          continue;
        if (!inner || l.bbegin > inner->bbegin) inner = &l;
      }
      if (inner) {
        if (range_mentions(t, inner->hbegin, inner->bend, "self")) {
          site.mult = p_sub(p_atom("n"), p_const(1));
          site.mult_str = "(n - 1)";
        } else {
          site.mult = p_atom("n");
          site.mult_str = "n";
        }
      } else {
        site.mult = p_const(1);
        site.mult_str = "1";
      }
    }
    out.push_back(std::move(site));
  }
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

struct FileWork {
  std::string rel;
  std::vector<Suppression> sups;
  std::vector<Diagnostic> pending;

  void flag(int line, const std::string& rule, const std::string& message) {
    pending.push_back({rel, line, rule, message, false, ""});
  }
};

// ---------------------------------------------------------------------------
// Quorum scanning
// ---------------------------------------------------------------------------

bool in_set(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// True when [a, b) measures a declared quorum counter: the counter's
/// .size() (with one optional [index]) somewhere in the range, or bare
/// counter arithmetic (counter ± integer literals only).
bool is_counter_side(const std::vector<Token>& t, std::size_t a, std::size_t b,
                     const std::vector<std::string>& counters) {
  for (std::size_t j = a; j < b; ++j) {
    if (!t[j].ident || !in_set(counters, t[j].text)) continue;
    std::size_t m = j + 1;
    if (m < b && t[m].text == "[") {
      int sd = 0;
      for (; m < b; ++m) {
        if (t[m].text == "[") ++sd;
        else if (t[m].text == "]" && --sd == 0) break;
      }
      ++m;
    }
    if (m + 3 < b + 1 && t[m].text == "." && t[m + 1].text == "size" &&
        t[m + 2].text == "(" && t[m + 3].text == ")")
      return true;
  }
  bool saw_counter = false;
  for (std::size_t j = a; j < b; ++j) {
    if (t[j].ident) {
      if (!in_set(counters, t[j].text)) return false;
      saw_counter = true;
    } else if (t[j].text != "+" && t[j].text != "-" && t[j].text != "(" &&
               t[j].text != ")" && !is_int_literal(t[j])) {
      return false;
    }
  }
  return saw_counter;
}

/// Callee name when [a, b) is exactly a chain call `x.y::z()`; "" otherwise.
std::string bare_call_name(const std::vector<Token>& t, std::size_t a,
                           std::size_t b) {
  if (b < a + 3 || t[b - 1].text != ")" || t[b - 2].text != "(") return "";
  if (!t[b - 3].ident) return "";
  for (std::size_t j = a; j + 3 < b; ++j) {
    const std::string& s = t[j].text;
    if (!(t[j].ident || s == "." || s == "-" || s == ">" || s == ":"))
      return "";
  }
  return t[b - 3].text;
}

bool range_has_ident(const std::vector<Token>& t, std::size_t a, std::size_t b,
                     const std::string& name) {
  return !name.empty() && range_mentions(t, a, b, name);
}

std::string mirror_op(const std::string& op) {
  if (op == "<") return ">";
  if (op == ">") return "<";
  if (op == "<=") return ">=";
  if (op == ">=") return "<=";
  return op;  // == and != are symmetric
}

}  // namespace

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

Report analyze(const fs::path& root, const Manifest& manifest,
               const lifecheck::FlowGraph& flow, CostReport* cost,
               const analyzer::SourceTree* tree) {
  analyzer::SourceTree local;
  if (!tree) {
    local = analyzer::load_tree(root);
    tree = &local;
  }

  Report report;
  std::vector<FileWork> works;
  works.reserve(tree->files.size());
  std::vector<SendSite> sites;
  const analyzer::SourceFile* model_src = nullptr;

  for (const analyzer::SourceFile& src : tree->files) {
    FileWork wk;
    wk.rel = src.rel;
    wk.sups = analyzer::collect_suppressions("costcheck", kKnownRules, src.rel,
                                             src.lines, report.diagnostics);
    collect_send_sites(src.tokens, works.size(), sites);
    if (src.rel == manifest.model_file) model_src = &src;
    ++report.files_scanned;
    works.push_back(std::move(wk));
  }

  if (!model_src)
    throw std::runtime_error("model file '" + manifest.model_file +
                             "' not found under root");
  const ModelIndex model = build_model_index(model_src->tokens);
  const std::size_t model_file_idx =
      static_cast<std::size_t>(model_src - tree->files.data());

  // --- per-stack cost derivation -------------------------------------------
  if (cost) *cost = CostReport{};
  for (const StackSpec& st : manifest.stacks) {
    // A manifest naming modules or tags the flow graph does not know is
    // stale with respect to the tree: hard error, not a vacuous pass.
    std::set<std::string> stack_tags;
    for (const std::string& mod : st.modules) {
      auto it = flow.modules.find(mod);
      if (it == flow.modules.end())
        throw std::runtime_error("stack '" + st.name + "': module '" + mod +
                                 "' is not in the flow graph (stale manifest "
                                 "or flow pass?)");
      stack_tags.insert(it->second.tags.begin(), it->second.tags.end());
    }
    for (const Phase& ph : st.phases) {
      if (!in_set(st.modules, ph.module))
        throw std::runtime_error("stack '" + st.name + "': phase '" + ph.name +
                                 "' uses undeclared module '" + ph.module +
                                 "'");
      for (const std::string& tag : ph.tags)
        if (!flow.modules.at(ph.module).tags.count(tag))
          throw std::runtime_error(
              "stack '" + st.name + "': phase '" + ph.name + "' tag '" + tag +
              "' is not a wire tag of " + ph.module + " in the flow graph");
    }
    for (const std::string& tag : st.cold)
      if (tag != "untagged" && !stack_tags.count(tag))
        throw std::runtime_error("stack '" + st.name + "': cold tag '" + tag +
                                 "' is not a wire tag of any stack module");

    std::map<std::string, Poly> env;
    for (const std::string& sym : st.symbols) env[sym] = p_atom(sym);

    std::vector<Poly> counts;
    for (const Phase& ph : st.phases)
      counts.push_back(parse_expr_string(
          ph.count, env, nullptr,
          "stack '" + st.name + "' phase '" + ph.name + "' count"));

    std::vector<std::vector<const SendSite*>> phase_sites(st.phases.size());
    const SendSite* first_site = nullptr;
    for (const SendSite& site : sites) {
      if (!in_set(st.modules, site.module)) continue;
      if (!first_site) first_site = &site;
      bool matched = false;
      for (std::size_t pi = 0; pi < st.phases.size(); ++pi) {
        const Phase& ph = st.phases[pi];
        if (site.module != ph.module) continue;
        if (!ph.tags.empty() && !in_set(ph.tags, site.tag)) continue;
        if (!ph.functions.empty() && !in_set(ph.functions, site.fn)) continue;
        phase_sites[pi].push_back(&site);
        matched = true;
        break;
      }
      if (matched) continue;
      if (!site.tag.empty() && in_set(st.cold, site.tag)) continue;
      if (site.tag.empty() && in_set(st.cold, "untagged")) continue;
      works[site.file_idx].flag(
          site.line, "cost.unbudgeted_send",
          "send site in " + site.module + " (" +
              (site.tag.empty() ? std::string("untagged") : site.tag) + ", x" +
              site.mult_str + ", in " +
              (site.fn.empty() ? std::string("file scope") : site.fn + "()") +
              ") is attributed to no phase of stack '" + st.name +
              "' and its tag is not declared cold: the message cost has "
              "diverged from the model");
    }

    Poly derived;
    std::vector<Poly> terms(st.phases.size());
    for (std::size_t pi = 0; pi < st.phases.size(); ++pi) {
      Poly mults;
      for (const SendSite* site : phase_sites[pi]) p_acc(mults, site->mult, 1);
      terms[pi] = p_mul(counts[pi], mults);
      p_acc(derived, terms[pi], 1);
    }

    const Poly analytical = parse_expr_string(
        st.model, env, &model, "stack '" + st.name + "' model");

    CostReport::StackCost sc;
    sc.name = st.name;
    sc.model_call = st.model;
    sc.analytical = p_str(analytical);
    sc.derived = p_str(derived);
    sc.match = derived == analytical;
    for (std::size_t pi = 0; pi < st.phases.size(); ++pi) {
      CostReport::PhaseCost pc;
      pc.name = st.phases[pi].name;
      pc.count = st.phases[pi].count;
      pc.term = p_str(terms[pi]);
      // Keyed by enclosing function, not line, so the committed report
      // moves only when a send site does; diagnostics keep line numbers.
      for (const SendSite* site : phase_sites[pi])
        pc.sites.push_back(tree->files[site->file_idx].rel + ":" +
                           (site->fn.empty() ? std::string("(file scope)")
                                             : site->fn) +
                           " " +
                           (site->tag.empty() ? std::string("untagged")
                                              : site->tag) +
                           " x" + site->mult_str);
      sc.phases.push_back(std::move(pc));
    }
    if (cost) cost->stacks.push_back(sc);

    if (!sc.match) {
      const Poly diff = p_sub(derived, analytical);
      std::string involved;
      const SendSite* anchor = nullptr;
      for (std::size_t pi = 0; pi < st.phases.size(); ++pi) {
        bool shares = false;
        for (const auto& [m, c] : terms[pi])
          if (diff.count(m)) shares = true;
        if (!shares) continue;
        if (!involved.empty()) involved += ", ";
        involved += st.phases[pi].name + " (" + p_str(terms[pi]) + ")";
        if (!anchor && !phase_sites[pi].empty()) anchor = phase_sites[pi][0];
      }
      if (!anchor) anchor = first_site;
      const std::string msg =
          "stack '" + st.name + "': derived messages per instance [" +
          sc.derived + "] != analytical model " + st.model + " = [" +
          sc.analytical + "]; difference [" + p_str(diff) +
          "] involves phase(s) " +
          (involved.empty() ? std::string("(none — model-side term)")
                            : involved);
      if (anchor)
        works[anchor->file_idx].flag(anchor->line, "cost.model_mismatch", msg);
      else
        works[model_file_idx].flag(1, "cost.model_mismatch", msg);
    }
  }

  // --- quorum rules ---------------------------------------------------------
  for (const QuorumSpec& qs : manifest.quorums) {
    std::vector<std::size_t> unit_files;
    for (std::size_t fi = 0; fi < tree->files.size(); ++fi)
      if (path_stem(tree->files[fi].rel) == qs.unit) unit_files.push_back(fi);
    if (unit_files.empty())
      throw std::runtime_error("quorum unit '" + qs.unit +
                               "' matches no file under root");

    const Poly declared_q = parse_expr_string(
        qs.quorum, {}, nullptr, "quorum '" + qs.unit + "' declared quorum");
    std::map<std::string, Poly> count_decls;
    for (const auto& [var, expr] : qs.count_vars)
      count_decls[var] = parse_expr_string(
          expr, {}, nullptr, "quorum '" + qs.unit + "' count '" + var + "'");

    std::size_t anchor_file = unit_files.front();
    int anchor_line = 1;
    bool anchored = false;

    for (std::size_t fi : unit_files) {
      const std::vector<Token>& t = tree->files[fi].tokens;

      // Threshold definition: its body must compute the declared quorum.
      if (!qs.threshold.empty()) {
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
          if (!t[i].ident || t[i].text != qs.threshold ||
              t[i + 1].text != "(")
            continue;
          std::size_t close = match_paren(t, i + 1);
          if (close >= t.size()) continue;
          std::size_t b = close + 1;
          if (tok_is(t, b, "const")) ++b;
          if (!tok_is(t, b, "{") || !tok_is(t, b + 1, "return")) continue;
          std::size_t semi = b + 2;
          while (semi < t.size() && t[semi].text != ";") ++semi;
          if (!anchored) {
            anchor_file = fi;
            anchor_line = t[i].line;
            anchored = true;
          }
          try {
            const Poly body = ExprParser(t, b + 2, semi, {}, nullptr,
                                         /*group_size_is_n=*/true, 0)
                                  .parse();
            if (body != declared_q)
              works[fi].flag(
                  t[i].line, "quorum.threshold",
                  qs.threshold + "() returns [" + p_str(body) +
                      "] but the manifest declares the quorum as [" +
                      p_str(declared_q) + "]");
          } catch (const EvalError&) {
            // Opaque body: nothing to compare.
          }
        }
      }

      // Resender/count variable initializations.
      for (std::size_t i = 1; i + 2 < t.size(); ++i) {
        if (!t[i].ident || !count_decls.count(t[i].text)) continue;
        if (t[i + 1].text != "=" || t[i + 2].text == "=") continue;
        const std::string& prev = t[i - 1].text;
        if (prev == "<" || prev == ">" || prev == "!" || prev == "=") continue;
        std::size_t semi = i + 2;
        while (semi < t.size() && t[semi].text != ";") ++semi;
        if (!anchored) {
          anchor_file = fi;
          anchor_line = t[i].line;
          anchored = true;
        }
        try {
          const Poly rhs = ExprParser(t, i + 2, semi, {}, nullptr,
                                      /*group_size_is_n=*/true, 0)
                               .parse();
          if (rhs != count_decls.at(t[i].text))
            works[fi].flag(
                t[i].line, "quorum.threshold",
                "'" + t[i].text + "' is initialized to [" + p_str(rhs) +
                    "] but the manifest declares it as [" +
                    p_str(count_decls.at(t[i].text)) + "]");
        } catch (const EvalError&) {
        }
      }

      // Counter comparisons.
      for (std::size_t i = 1; i < t.size(); ++i) {
        std::string op;
        std::size_t oplen = 1;
        const std::string& s = t[i].text;
        const std::string& nx = i + 1 < t.size() ? t[i + 1].text : s;
        if (s == "<" && nx == "<") { ++i; continue; }      // stream/shift
        if (s == ">" && nx == ">") { ++i; continue; }
        if (s == ">" && t[i - 1].text == "-") continue;    // arrow
        if (s == "<" && nx == "=") { op = "<="; oplen = 2; }
        else if (s == ">" && nx == "=") { op = ">="; oplen = 2; }
        else if (s == "=" && nx == "=") { op = "=="; oplen = 2; }
        else if (s == "!" && nx == "=") { op = "!="; oplen = 2; }
        else if (s == "<") op = "<";
        else if (s == ">") op = ">";
        else continue;

        // Side extents: stop at statement/expression boundaries.
        auto is_boundary = [](const std::string& x) {
          return x == ";" || x == "{" || x == "}" || x == "," || x == "?" ||
                 x == ":" || x == "=" || x == "<" || x == ">" || x == "!" ||
                 x == "&" || x == "|" || x == "return";
        };
        std::size_t lbegin = i;
        {
          int pd = 0;
          std::size_t j = i;
          while (j-- > 0) {
            const std::string& x = t[j].text;
            // `->` and `::` are member chains, not boundaries.
            if (j > 0 && ((x == ">" && t[j - 1].text == "-") ||
                          (x == ":" && t[j - 1].text == ":"))) {
              lbegin = --j;
              continue;
            }
            if (x == ")") { ++pd; lbegin = j; continue; }
            if (x == "(") {
              if (pd == 0) break;
              --pd;
              lbegin = j;
              continue;
            }
            if (pd == 0 && is_boundary(x)) break;
            lbegin = j;
          }
        }
        std::size_t rend = i + oplen;
        {
          int pd = 0;
          for (std::size_t j = i + oplen; j < t.size(); ++j) {
            const std::string& x = t[j].text;
            if (j + 1 < t.size() && ((x == "-" && t[j + 1].text == ">") ||
                                     (x == ":" && t[j + 1].text == ":"))) {
              rend = ++j + 1;
              continue;
            }
            if (x == "(") { ++pd; rend = j + 1; continue; }
            if (x == ")") {
              if (pd == 0) break;
              --pd;
              rend = j + 1;
              continue;
            }
            if (pd == 0 && is_boundary(x)) break;
            rend = j + 1;
          }
        }

        const bool lc = is_counter_side(t, lbegin, i, qs.counters);
        const bool rc = is_counter_side(t, i + oplen, rend, qs.counters);
        std::string callee, norm_op;
        if (lc && !rc) {
          callee = bare_call_name(t, i + oplen, rend);
          norm_op = op;
          if (callee.empty() &&
              range_has_ident(t, i + oplen, rend, qs.threshold)) {
            works[fi].flag(t[i].line, "quorum.threshold",
                           "quorum counter compared against an expression "
                           "that wraps " +
                               qs.threshold +
                               "() instead of the bare threshold: the "
                               "declared quorum cannot be verified");
            i += oplen - 1;
            continue;
          }
        } else if (rc && !lc) {
          callee = bare_call_name(t, lbegin, i);
          norm_op = mirror_op(op);
          if (callee.empty() && range_has_ident(t, lbegin, i, qs.threshold)) {
            works[fi].flag(t[i].line, "quorum.threshold",
                           "quorum counter compared against an expression "
                           "that wraps " +
                               qs.threshold +
                               "() instead of the bare threshold: the "
                               "declared quorum cannot be verified");
            i += oplen - 1;
            continue;
          }
        }
        if (!callee.empty() && !in_set(qs.allow, callee) &&
            callee == qs.threshold && norm_op != "<" && norm_op != ">=") {
          works[fi].flag(
              t[i].line, "quorum.threshold",
              "quorum counter compared with '" + norm_op + "' against " +
                  qs.threshold +
                  "(): a reached-quorum check must use '>=' and a pending "
                  "check '<'; anything else is off by one");
        }
        i += oplen - 1;
      }
    }

    // Overlap: 2q > n must hold symbolically over the unit's domain.
    long long viol = 0;
    bool evaluable = true;
    auto violated_at = [&](long long n) {
      long long q = 0;
      if (!p_eval(declared_q, n, q)) {
        evaluable = false;
        return false;
      }
      return 2 * q <= n;
    };
    for (long long n = 3; n <= 129 && viol == 0 && evaluable; n += 2)
      if (violated_at(n)) viol = n;
    if (!qs.odd_n)
      for (long long n = 2; n <= 128 && viol == 0 && evaluable; n += 2)
        if (violated_at(n)) viol = n;
    if (viol != 0 && evaluable) {
      works[anchor_file].flag(
          anchor_line, "quorum.overlap",
          "declared quorum [" + p_str(declared_q) + "] gives 2q <= n at n = " +
              std::to_string(viol) +
              (qs.odd_n ? " (odd group sizes)" : "") +
              ": two quorums may fail to intersect, so agreement is unsafe");
    }
  }

  for (FileWork& wk : works) {
    analyzer::dedupe_by_line_rule(wk.pending);
    analyzer::apply_suppressions("costcheck", wk.rel, wk.sups, wk.pending,
                                 report.diagnostics);
  }
  report.sort_stable();
  return report;
}

std::string cost_to_json(const CostReport& cost) {
  std::string out = "{\n  \"version\": 1,\n  \"tool\": \"costcheck\",\n";
  out += "  \"stacks\": [";
  bool first_stack = true;
  for (const CostReport::StackCost& sc : cost.stacks) {
    out += first_stack ? "\n" : ",\n";
    first_stack = false;
    out += "    {\n";
    out += "      \"analytical\": \"" + analyzer::json_escape(sc.analytical) +
           "\",\n";
    out += "      \"derived\": \"" + analyzer::json_escape(sc.derived) +
           "\",\n";
    out += std::string("      \"match\": ") + (sc.match ? "true" : "false") +
           ",\n";
    out += "      \"model_call\": \"" + analyzer::json_escape(sc.model_call) +
           "\",\n";
    out += "      \"name\": \"" + analyzer::json_escape(sc.name) + "\",\n";
    out += "      \"phases\": [";
    bool first_phase = true;
    for (const CostReport::PhaseCost& pc : sc.phases) {
      out += first_phase ? "\n" : ",\n";
      first_phase = false;
      out += "        {\n";
      out += "          \"count\": \"" + analyzer::json_escape(pc.count) +
             "\",\n";
      out += "          \"name\": \"" + analyzer::json_escape(pc.name) +
             "\",\n";
      out += "          \"sites\": [";
      bool first_site = true;
      for (const std::string& s : pc.sites) {
        if (!first_site) out += ", ";
        first_site = false;
        out += "\"" + analyzer::json_escape(s) + "\"";
      }
      out += "],\n";
      out += "          \"term\": \"" + analyzer::json_escape(pc.term) +
             "\"\n        }";
    }
    out += first_phase ? "]\n    }" : "\n      ]\n    }";
  }
  out += first_stack ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace costcheck
