#include "gka_lint/model.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

namespace gka_lint {

namespace {

void split_lines(const std::string& content, std::vector<std::string>& out) {
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
}

void place(std::vector<std::string>& lines, int line, std::size_t col,
           const std::string& text) {
  if (line < 1) return;
  const std::size_t idx = static_cast<std::size_t>(line - 1);
  if (idx >= lines.size()) return;
  std::string& l = lines[idx];
  if (l.size() < col) l.resize(col, ' ');
  l += text;
}

/// Appends comment text (which may span lines for block comments) to the
/// per-line comment map starting at `line`.
void place_comment(std::vector<std::string>& comments, int line,
                   const std::string& text) {
  std::vector<std::string> parts;
  split_lines(text + "\n", parts);
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const std::size_t idx = static_cast<std::size_t>(line - 1) + k;
    if (idx >= comments.size()) break;
    if (!comments[idx].empty()) comments[idx] += ' ';
    comments[idx] += parts[k];
  }
}

void parse_allows(const std::vector<std::string>& comments,
                  std::vector<Allow>& out) {
  const std::string marker = "gka-lint: allow(";
  for (std::size_t li = 0; li < comments.size(); ++li) {
    const std::string& text = comments[li];
    std::size_t at = 0;
    while ((at = text.find(marker, at)) != std::string::npos) {
      const std::size_t open = at + marker.size();
      const std::size_t close = text.find(')', open);
      if (close == std::string::npos) break;
      Allow a;
      a.line = static_cast<int>(li) + 1;
      std::stringstream list(text.substr(open, close - open));
      std::string id;
      while (std::getline(list, id, ',')) {
        id.erase(std::remove_if(
                     id.begin(), id.end(),
                     [](unsigned char c) { return std::isspace(c); }),
                 id.end());
        if (!id.empty()) a.ids.push_back(id);
      }
      // A reason is any text after the ')' beyond whitespace and the
      // conventional "--" / ":" separator.
      std::size_t r = close + 1;
      while (r < text.size() &&
             (std::isspace(static_cast<unsigned char>(text[r])) ||
              text[r] == '-' || text[r] == ':'))
        ++r;
      a.has_reason = r < text.size();
      if (!a.ids.empty()) out.push_back(a);
      at = close;
    }
  }
}

void parse_include(const Tok& pp, std::vector<Include>& out) {
  // Directive text is the whole logical line including '#'.
  std::size_t i = pp.text.find_first_not_of(" \t", 1);
  if (i == std::string::npos) return;
  if (pp.text.compare(i, 7, "include") != 0) return;
  const std::size_t open = pp.text.find('"', i + 7);
  if (open == std::string::npos) return;
  const std::size_t close = pp.text.find('"', open + 1);
  if (close == std::string::npos) return;
  out.push_back({pp.text.substr(open + 1, close - open - 1), pp.line});
}

bool is_code(const Tok& t) {
  return t.kind != TokKind::kComment && t.kind != TokKind::kPp;
}

const char* const kKeywordsNotCalls[] = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "static_assert", "new", "delete", "throw",
};

bool keyword_not_call(const std::string& s) {
  for (const char* k : kKeywordsNotCalls)
    if (s == k) return true;
  return false;
}

bool secure_type(const std::string& s) {
  return s == "SecureBytes" || s == "SecureBigInt";
}

/// Extracts identifiers declared with a Secure* type: the next identifier
/// after the type name, skipping `>`, `&`, `*` and `const` (covers plain
/// fields, references, and `std::map<K, SecureBigInt> m` /
/// `std::optional<SecureBytes> o` where the declared name follows the
/// closing `>`). A `(` right after the type is a constructor call, not a
/// declaration. A declared name directly followed by `(` is a function
/// returning a Secure* type — also recorded: calling it yields secret
/// material, so it seeds taint the same way a variable does.
void extract_secure_idents(const std::vector<Tok>& code_toks,
                           std::vector<std::string>& out) {
  for (std::size_t i = 0; i < code_toks.size(); ++i) {
    if (code_toks[i].kind != TokKind::kIdent || !secure_type(code_toks[i].text))
      continue;
    std::size_t j = i + 1;
    while (j < code_toks.size()) {
      const Tok& t = code_toks[j];
      if (t.kind == TokKind::kPunct &&
          (t.text == ">" || t.text == "&" || t.text == "*")) {
        ++j;
        continue;
      }
      if (t.kind == TokKind::kIdent && t.text == "const") {
        ++j;
        continue;
      }
      break;
    }
    if (j >= code_toks.size() || code_toks[j].kind != TokKind::kIdent) continue;
    const std::string& name = code_toks[j].text;
    if (!keyword_not_call(name) &&
        std::find(out.begin(), out.end(), name) == out.end())
      out.push_back(name);
  }
}

/// Heuristic function-definition finder: `name ( ... ) [qualifiers] {`.
/// Constructors with init lists (`) : a_(x), b_(y) {`) are followed through
/// the init list; `name (...)` followed by `;` is a declaration and skipped.
void extract_functions(const std::vector<Tok>& code_toks,
                       std::vector<Function>& out) {
  const std::size_t n = code_toks.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Tok& name = code_toks[i];
    if (name.kind != TokKind::kIdent || keyword_not_call(name.text)) continue;
    const Tok& open = code_toks[i + 1];
    if (open.kind != TokKind::kPunct || open.text != "(") continue;
    // `std::move(x)` in a lambda capture list can look like `name (...) {`
    // once the capture's `] ( ) mutable {` tail is reached; std-qualified
    // names are never project definitions, so drop them up front.
    if (i >= 2 && code_toks[i - 1].kind == TokKind::kPunct &&
        code_toks[i - 1].text == "::" &&
        code_toks[i - 2].kind == TokKind::kIdent &&
        code_toks[i - 2].text == "std")
      continue;

    // Find the matching ')'.
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < n; ++j) {
      if (code_toks[j].kind != TokKind::kPunct) continue;
      if (code_toks[j].text == "(") ++depth;
      if (code_toks[j].text == ")" && --depth == 0) break;
    }
    if (j >= n) break;

    // Parameter names: split [i+2, j) on top-level commas (angle brackets
    // tracked loosely so `std::map<K, V> m` stays one parameter); each
    // parameter's name is its last identifier before a default-argument '='.
    std::vector<std::string> params;
    {
      int pd = 1, ad = 0;
      std::string last_ident;
      bool past_default = false;
      bool any_tok = false;
      auto flush = [&] {
        if (any_tok) params.push_back(last_ident);
        last_ident.clear();
        past_default = false;
        any_tok = false;
      };
      for (std::size_t q = i + 2; q < j; ++q) {
        const Tok& t = code_toks[q];
        any_tok = true;
        if (t.kind == TokKind::kPunct) {
          if (t.text == "(") ++pd;
          if (t.text == ")") --pd;
          if (t.text == "<") ++ad;
          if (t.text == ">" && ad > 0) --ad;
          if (t.text == "=" && pd == 1 && ad == 0) past_default = true;
          if (t.text == "," && pd == 1 && ad == 0) flush();
          continue;
        }
        if (t.kind == TokKind::kIdent && !past_default) last_ident = t.text;
      }
      flush();
    }

    // After the parameter list: qualifiers, trailing return, init list —
    // anything but ';', '}' or a second unbalanced construct — then '{'.
    std::size_t k = j + 1;
    int paren = 0;
    bool is_def = false;
    for (; k < n; ++k) {
      const Tok& t = code_toks[k];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") ++paren;
        if (t.text == ")") --paren;
        if (paren == 0 && t.text == ";") break;          // declaration
        if (paren == 0 && t.text == "=") continue;        // = default/delete
        if (paren == 0 && t.text == "{") {
          is_def = true;
          break;
        }
        // A bare ']' can't appear in a function header between the parameter
        // list and the body — it means the candidate was a call inside a
        // lambda capture list, e.g. `[k = f(k)] () {`.
        if (paren == 0 && t.text == "]") break;
        if (paren < 0) break;  // we were inside an argument list, not params
        continue;
      }
      continue;
    }
    if (!is_def) continue;
    // `= default {` can't happen; `= delete` ends in ';' and was skipped.

    // Body range: match braces from code_toks[k].
    int braces = 0;
    std::size_t b = k;
    for (; b < n; ++b) {
      if (code_toks[b].kind != TokKind::kPunct) continue;
      if (code_toks[b].text == "{") ++braces;
      if (code_toks[b].text == "}" && --braces == 0) break;
    }
    if (b >= n) break;

    Function f;
    f.name = name.text;
    f.signature_line = name.line;
    f.body_begin = code_toks[k].line;
    f.body_end = code_toks[b].line;
    f.params = std::move(params);

    // Return type: walk back over the qualified-name prefix (`A::B::name`),
    // then collect the preceding type tokens up to a statement boundary.
    std::size_t start = i;
    while (start >= 2 && code_toks[start - 1].kind == TokKind::kPunct &&
           code_toks[start - 1].text == ":" &&
           code_toks[start - 2].kind == TokKind::kPunct &&
           code_toks[start - 2].text == ":") {
      start -= 2;
      if (start >= 1 && code_toks[start - 1].kind == TokKind::kIdent)
        --start;
    }
    std::vector<std::string> type_parts;
    for (std::size_t p = start; p-- > 0;) {
      const Tok& t = code_toks[p];
      if (t.kind == TokKind::kPunct) {
        if (t.text == ";" || t.text == "{" || t.text == "}" ||
            t.text == "(" || t.text == ")" || t.text == ",")
          break;
        type_parts.push_back(t.text);
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        type_parts.push_back(t.text);
        continue;
      }
      break;
    }
    std::reverse(type_parts.begin(), type_parts.end());
    std::string type;
    for (const std::string& part : type_parts) {
      if (!type.empty()) type += ' ';
      type += part;
    }
    f.return_type = type;

    out.push_back(f);
    i = k;  // continue the scan inside the body (nested definitions: rare,
            // and their lines are already covered by the enclosing range)
  }
}

bool lock_type(const std::string& s) {
  return s == "mutex" || s == "shared_mutex" || s == "recursive_mutex" ||
         s == "timed_mutex" || s == "shared_timed_mutex" ||
         s == "condition_variable" || s == "condition_variable_any";
}

/// Finds class/struct/union definitions and classifies their members:
/// mutable data members and the SGK_CONFINED_TO_RUN marker (what GKA504
/// keys on), and mutex/condition-variable members (a GKA504 finding of their
/// own). std::atomic members and const/constexpr ones are exempt.
void extract_records(const std::vector<Tok>& pure,
                     std::vector<Record>& records) {
  const std::size_t n = pure.size();
  struct Range {
    std::size_t open, close;
  };
  std::vector<Range> ranges;

  for (std::size_t i = 0; i < n; ++i) {
    const Tok& kw = pure[i];
    if (kw.kind != TokKind::kIdent ||
        (kw.text != "class" && kw.text != "struct" && kw.text != "union"))
      continue;
    if (i > 0 && pure[i - 1].kind == TokKind::kIdent &&
        pure[i - 1].text == "enum")
      continue;  // `enum class`
    if (i + 1 >= n || pure[i + 1].kind != TokKind::kIdent) continue;
    const Tok& name = pure[i + 1];
    // Forward to the body '{'; a ';', '(', ')' or '=' first means a forward
    // declaration or an elaborated type in some other construct.
    std::size_t k = i + 2;
    bool has_body = false;
    for (; k < n; ++k) {
      const Tok& t = pure[k];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "{") {
        has_body = true;
        break;
      }
      if (t.text == ";" || t.text == "(" || t.text == ")" || t.text == "=" ||
          t.text == "}")
        break;
    }
    if (!has_body) continue;
    int depth = 0;
    std::size_t c = k;
    for (; c < n; ++c) {
      if (pure[c].kind != TokKind::kPunct) continue;
      if (pure[c].text == "{") ++depth;
      if (pure[c].text == "}" && --depth == 0) break;
    }
    if (c >= n) continue;

    Record rec;
    rec.name = name.text;
    rec.line = name.line;

    // Member statements directly in the body: skip nested `{...}` blocks
    // (method bodies, nested records, brace-inits).
    std::vector<const Tok*> stmt;
    auto flush = [&] {
      if (stmt.empty()) return;
      bool has_paren = false, immutable = false, skip = false,
           confined = false, is_lock = false, is_atomic = false;
      for (const Tok* t : stmt) {
        if (t->kind == TokKind::kPunct && t->text == "(") has_paren = true;
        if (t->kind != TokKind::kIdent) continue;
        const std::string& s = t->text;
        if (s == "using" || s == "typedef" || s == "friend" ||
            s == "static_assert" || s == "template" || s == "operator" ||
            s == "enum" || s == "class" || s == "struct" || s == "union" ||
            s == "namespace" || s == "public" || s == "private" ||
            s == "protected")
          skip = true;
        if (s == "const" || s == "constexpr" || s == "constinit")
          immutable = true;
        if (s == "SGK_CONFINED_TO_RUN") confined = true;
        if (lock_type(s)) is_lock = true;
        if (s == "atomic") is_atomic = true;
      }
      // The declared name: the last identifier before any initializer.
      int idents = 0;
      std::string last;
      for (const Tok* t : stmt) {
        if (t->kind == TokKind::kPunct && t->text == "=") break;
        if (t->kind == TokKind::kIdent) {
          ++idents;
          last = t->text;
        }
      }
      if (confined) {
        rec.has_confined_marker = true;
      } else if (skip || has_paren || idents < 2) {
        // not a data member
      } else if (is_lock) {
        if (rec.lock_member.empty()) rec.lock_member = last;
      } else if (!immutable && !is_atomic) {
        if (rec.first_mutable.empty()) rec.first_mutable = last;
      }
      stmt.clear();
    };
    std::size_t idx = k + 1;
    while (idx < c) {
      const Tok& t = pure[idx];
      if (t.kind == TokKind::kPunct && t.text == "{") {
        int d = 0;
        std::size_t m2 = idx;
        for (; m2 < c; ++m2) {
          if (pure[m2].kind != TokKind::kPunct) continue;
          if (pure[m2].text == "{") ++d;
          if (pure[m2].text == "}" && --d == 0) break;
        }
        // A block followed by ';' is a brace-init: keep the statement. A
        // block followed by anything else was a method body or nested
        // record: discard what we collected.
        if (!(m2 + 1 < c && pure[m2 + 1].kind == TokKind::kPunct &&
              pure[m2 + 1].text == ";"))
          stmt.clear();
        idx = m2 + 1;
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == ";") {
        flush();
        ++idx;
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == ":" && stmt.size() == 1 &&
          stmt[0]->kind == TokKind::kIdent &&
          (stmt[0]->text == "public" || stmt[0]->text == "private" ||
           stmt[0]->text == "protected")) {
        stmt.clear();
        ++idx;
        continue;
      }
      stmt.push_back(&t);
      ++idx;
    }
    flush();
    records.push_back(rec);
    ranges.push_back({k, c});
  }

  for (std::size_t a = 0; a < records.size(); ++a)
    for (std::size_t b = 0; b < records.size(); ++b)
      if (a != b && ranges[b].open < ranges[a].open &&
          ranges[a].close < ranges[b].close)
        records[a].nested = true;
}

/// Classifies each pure-code token with its innermost syntactic scope via a
/// brace-context walk. Heuristics (documented in docs/static_analysis.md as
/// known over-approximations):
///   - `namespace ... {`                       -> namespace frame
///   - `class/struct/union/enum ... {`         -> type frame
///   - `...) {`, blocks inside functions, and
///     lambda bodies                           -> function frame
///   - `= {`, `, {`, `( {`, `return {`, and
///     `ident{` brace-init                     -> initializer frame
///     (transparent: tokens inside keep the enclosing kind but are NOT
///     namespace-only, so initializer contents never look like globals)
void classify_scopes(const std::vector<Tok>& code_toks,
                     std::vector<ScopedTok>& out) {
  struct Frame {
    TokScope kind;
    bool is_init;
  };
  std::vector<Frame> stack;
  bool saw_namespace = false, saw_type_kw = false, saw_paren_close = false;
  int paren_depth = 0;
  std::string prev_text;

  auto reset_pending = [&] {
    saw_namespace = saw_type_kw = saw_paren_close = false;
  };
  auto current_kind = [&]() -> TokScope {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      if (!it->is_init) return it->kind;
    return TokScope::kNamespace;
  };
  auto at_ns_only = [&]() -> bool {
    for (const Frame& f : stack)
      if (f.is_init || f.kind != TokScope::kNamespace) return false;
    return true;
  };

  out.reserve(code_toks.size());
  for (const Tok& t : code_toks) {
    // Record the token against the scope it sits in (the '{' / '}' tokens
    // themselves belong to the outer scope).
    if (t.kind == TokKind::kPunct && t.text == "}") {
      if (!stack.empty()) stack.pop_back();
      reset_pending();
      out.push_back({t.kind, t.text, t.line, current_kind(), at_ns_only()});
      prev_text = t.text;
      continue;
    }
    out.push_back({t.kind, t.text, t.line, current_kind(), at_ns_only()});

    if (t.kind == TokKind::kIdent) {
      if (t.text == "namespace") saw_namespace = true;
      if (t.text == "class" || t.text == "struct" || t.text == "union" ||
          t.text == "enum")
        saw_type_kw = true;
    } else if (t.kind == TokKind::kPunct) {
      if (t.text == "(") ++paren_depth;
      if (t.text == ")") {
        if (paren_depth > 0) --paren_depth;
        saw_paren_close = true;
      }
      if (t.text == ";") reset_pending();
      if (t.text == "{") {
        Frame f{TokScope::kFunction, false};
        if (saw_namespace) {
          f = {TokScope::kNamespace, false};
        } else if (saw_type_kw && paren_depth == 0) {
          f = {TokScope::kType, false};
        } else if (prev_text == "=" || prev_text == "," || prev_text == "(" ||
                   prev_text == "{" || prev_text == "return") {
          f = {current_kind(), true};
        } else if (saw_paren_close || current_kind() == TokScope::kFunction) {
          f = {TokScope::kFunction, false};
        } else if (!prev_text.empty() &&
                   (std::isalnum(static_cast<unsigned char>(prev_text[0])) ||
                    prev_text[0] == '_')) {
          // `ident{...}` with no parens in sight: brace-init of a variable.
          f = {current_kind(), true};
        } else {
          f = {current_kind(), false};
        }
        stack.push_back(f);
        reset_pending();
      }
    }
    prev_text = t.text;
  }
}

}  // namespace

FileModel build_model(const std::string& path, const std::string& content) {
  FileModel m;
  m.path = path;
  split_lines(content, m.raw);
  m.code.assign(m.raw.size(), std::string());
  m.comments.assign(m.raw.size(), std::string());
  m.tokens = lex(content);

  std::vector<Tok> code_toks;
  code_toks.reserve(m.tokens.size());
  for (const Tok& t : m.tokens) {
    switch (t.kind) {
      case TokKind::kComment:
        place_comment(m.comments, t.line, t.text);
        break;
      case TokKind::kPp:
        parse_include(t, m.includes);
        break;
      case TokKind::kString:
        place(m.code, t.line, t.col, "\"\"");
        code_toks.push_back(t);
        break;
      case TokKind::kChar:
        place(m.code, t.line, t.col, "''");
        code_toks.push_back(t);
        break;
      default:
        place(m.code, t.line, t.col, t.text);
        code_toks.push_back(t);
        break;
    }
  }

  parse_allows(m.comments, m.allows);
  for (const std::string& c : m.comments)
    if (c.find("gka-lint: skip-file") != std::string::npos) m.skip_file = true;

  std::vector<Tok> pure_code;
  pure_code.reserve(code_toks.size());
  for (const Tok& t : code_toks)
    if (is_code(t) && t.kind != TokKind::kString && t.kind != TokKind::kChar)
      pure_code.push_back(t);
  extract_secure_idents(pure_code, m.secure_idents);
  extract_functions(pure_code, m.functions);
  extract_records(pure_code, m.records);
  classify_scopes(pure_code, m.scoped_tokens);
  return m;
}

}  // namespace gka_lint
