// GKA201..GKA203: secret-taint dataflow, interprocedural since v3.
// GKA601..GKA603 (v4): the same taint engine with *control-flow* sinks —
// a secret-derived value in an if/while/switch condition or a ternary
// (GKA601), a loop bound or an early-return/break guard (GKA602), or an
// array/Bytes subscript (GKA603) is a data-dependent timing channel: the
// branchy-crypto leak class docs/hardening.md calls out. Reporting is scoped
// to src/ (test bodies branch on test vectors all the time); the summaries
// still propagate everywhere, and a new param_to_branch summary bit fires
// GKA601 at the call site when a tainted argument reaches a branch inside a
// callee defined in another TU. Public-length accessors (`k.size()`,
// `k.empty()`, `k.bit_length()`) are declassified: message and key lengths
// are public protocol metadata here, so branching on them leaks nothing
// secret. The remaining sanctioned secret-dependent loops (bignum limb
// kernels) carry audited allow() suppressions with reasons.
//
// Taint sources are identifiers declared with a zeroizing Secure* type
// (fields, locals, parameters, and functions *returning* a Secure* type —
// the model extracts them; in project mode the seed set spans the include
// closure so a field declared in a header taints its uses in the .cpp) plus
// any call to `reveal(...)`, the explicit SecureBytes escape hatch, plus —
// new in v3 — any call to a project function whose taint summary says its
// return value derives from secret material.
//
// Taint propagates through raw-byte locals: a line that declares a
// std::vector<uint8_t> / std::string / Bytes local (or `auto` initialized
// from reveal()) from a tainted expression both fires GKA201 and marks the
// new name tainted, so a later `std::cout << to_hex(buf)` fires GKA203 even
// though `buf` is not a secret-ish *name* — exactly the laundering the
// name-based GKA002/GKA006 heuristics cannot see.
//
// An approved boundary absorbs taint: a tainted value used as an argument
// of ct_equal / key_fingerprint / the HKDF-MAC-cipher APIs / a Secure*
// constructor / ScopedSubkey / secure_zero / exp is considered properly
// handed over (the result is a fingerprint, ciphertext, a wiped copy, or a
// blinded public value), and the destination is not tainted.
//
// The interprocedural layer (v3): every project function gets a
// TaintSummary — for each parameter, whether taint entering through it
// reaches a log/trace/metric sink or the return value, and whether the
// return value derives from the function's own Secure* seeds — computed to
// a fixpoint over the cross-TU call graph (callgraph.h). The per-file pass
// then consults the summaries at every call site, so a secret laundered
// through a helper defined in ANOTHER file still fires:
//
//     // a.cpp                              // b.cpp
//     void stash(const Bytes& data) {       void f(const SecureBytes& k) {
//       std::cout << to_hex(data);            stash(k.reveal());   // GKA203
//     }                                     }
//
// Function-local v2 sees nothing wrong with either file in isolation.
#include <algorithm>
#include <cctype>
#include <cstring>
#include <set>

#include "gka_lint/callgraph.h"
#include "gka_lint/rules_internal.h"

namespace gka_lint {

namespace {

/// Call names that absorb taint. Deliberately explicit rather than
/// pattern-based: growing this list is a reviewed decision.
const char* const kBoundaries[] = {
    "ct_equal",       "key_fingerprint",    "secure_zero",
    "hkdf_sha256",    "hmac_sha256",        "aes128_cbc_encrypt",
    "aes128_cbc_decrypt", "ChaCha20",       "Sha256",
    "SecureBytes",    "SecureBigInt",       "ScopedSubkey",
    "Drbg",           "wipe",
    // The modular-exponentiation kernels (Montgomery::exp, the
    // CryptoContext::exp/exp_g wrappers): passing a secret exponent into
    // modexp is the *intended* use of the secret, and the kernel's interior
    // square-and-multiply loop is the audited constant-time boundary — the
    // GKA6xx rules stop at its signature rather than flagging every
    // protocol-layer exp(g, secret) call.
    "exp",            "exp_g",
};

/// Logging + obs sinks (the GKA002 and GKA006 lists combined): a tainted
/// value reaching one of these is an exfiltration regardless of its name.
const char* const kTaintSinks[] = {
    "to_hex",     "printf",     "fprintf",    "report",     "cout",
    "cerr",       "clog",       "attr",       "event_attr", "instant",
    "phase",      "mark_phase", "mark_point", "begin_event",
    "begin_span_at", "observe", "counter",    "histogram",
    "set_track_name"};

bool is_boundary(const std::string& name) {
  for (const char* b : kBoundaries)
    if (name == b) return true;
  return false;
}

bool is_taint_sink(const std::string& name) {
  for (const char* s : kTaintSinks)
    if (name == s) return true;
  return false;
}

/// Sanctioned files: the Secure* wrappers implement the boundary (reveal(),
/// wiping internals), and the symmetric primitives below them take raw key
/// bytes by design — their bodies ARE the approved boundary interior. They
/// are exempt from the GKA2xx findings and contribute no taint summaries.
bool taint_exempt_path(const std::string& path) {
  return path_contains(path, "util/secure_bytes") ||
         path_contains(path, "bignum/secure_bigint") ||
         path_contains(path, "crypto/aes") ||
         path_contains(path, "crypto/hmac") ||
         path_contains(path, "crypto/hkdf") ||
         path_contains(path, "crypto/chacha20") ||
         path_contains(path, "crypto/sha256") ||
         path_contains(path, "crypto/drbg");
}

/// Raw byte/string storage per the rule text. `Bytes` is this repo's alias
/// for std::vector<uint8_t>.
bool raw_byte_type(const std::string& type) {
  if (type.find("Secure") != std::string::npos) return false;
  return type.find("vector") != std::string::npos ||
         type.find("string") != std::string::npos ||
         type.find("Bytes") != std::string::npos;
}

/// Return types that can carry secret bytes out of a function. Scalar
/// returns (sizes, bools, ids) cannot, so a helper like
/// `std::size_t key_size() { return key_.size(); }` does not mint taint at
/// its call sites even though its return expression touches `key_`.
bool carrier_return_type(const std::string& type) {
  return type.find("vector") != std::string::npos ||
         type.find("string") != std::string::npos ||
         type.find("Bytes") != std::string::npos ||
         type.find("Secure") != std::string::npos ||
         type.find("auto") != std::string::npos;
}

/// True when the identifier occurrence at `pos` is wrapped by an approved
/// boundary call somewhere up its enclosing-call chain on this line.
bool wrapped_by_boundary(const std::string& code,
                         const std::vector<LineTok>& ids, std::size_t pos) {
  for (const std::string& call : enclosing_calls(code, ids, pos))
    if (is_boundary(call)) return true;
  return false;
}

struct TaintHit {
  const LineTok* tok;  // the tainted identifier, `reveal`, or a call whose
                       // summary says it returns tainted bytes
  bool via_reveal;
  bool via_summary;
};

/// Tainted, non-boundary-wrapped occurrences within [begin,end) of the
/// line: directly tainted identifiers, `reveal(...)` calls, and — when an
/// interprocedural view is available — calls of project functions whose
/// summary says the return value is secret-derived. `skip_call`, when
/// non-null, names a callee not to treat as a summary source (the scanned
/// function itself, on its signature line — a definition is not a call).
std::vector<TaintHit> region_hits(const std::string& code,
                                  const std::vector<LineTok>& ids,
                                  const std::set<std::string>& tainted,
                                  std::size_t begin, std::size_t end,
                                  const InterprocView* iv,
                                  const std::string* skip_call = nullptr) {
  std::vector<TaintHit> hits;
  for (const LineTok& t : ids) {
    if (t.pos < begin || t.pos >= end) continue;
    const bool reveal = t.text == "reveal";
    bool summary_source = false;
    if (!reveal && tainted.count(t.text) == 0) {
      if (iv == nullptr) continue;
      const std::size_t after = t.pos + t.text.size();
      if (after >= code.size() || code[after] != '(') continue;
      if (is_boundary(t.text) || is_taint_sink(t.text)) continue;
      if (skip_call != nullptr && t.text == *skip_call) continue;
      if (!iv->returns_tainted(t.text)) continue;
      summary_source = true;
    }
    if (wrapped_by_boundary(code, ids, t.pos)) continue;
    hits.push_back({&t, reveal, summary_source});
  }
  return hits;
}

/// Parses a local declaration with an initializer on a stripped code line:
/// `[const] Type name = expr;` or `[const] Type name(expr);` /
/// `Type name{expr};`. Returns true and fills the out-params when the line
/// looks like one; `init_begin` is where the initializer text starts.
bool parse_decl(const std::string& code, const std::vector<LineTok>& ids,
                std::string* type, const LineTok** name,
                std::size_t* init_begin) {
  if (ids.empty()) return false;
  const std::size_t eq = code.find('=');
  if (eq != std::string::npos &&
      (eq + 1 >= code.size() || code[eq + 1] != '=') &&
      (eq == 0 || (code[eq - 1] != '=' && code[eq - 1] != '!' &&
                   code[eq - 1] != '<' && code[eq - 1] != '>' &&
                   code[eq - 1] != '+' && code[eq - 1] != '-' &&
                   code[eq - 1] != '|' && code[eq - 1] != '&'))) {
    // `Type name = init` needs >= 2 identifiers left of '='; a plain
    // assignment `name = init` has one and is not a declaration.
    const LineTok* last = nullptr;
    std::size_t count = 0;
    for (const LineTok& t : ids) {
      if (t.pos + t.text.size() <= eq) {
        last = &t;
        ++count;
      }
    }
    if (last == nullptr || count < 2) return false;
    *name = last;
    *type = code.substr(0, last->pos);
    *init_begin = eq + 1;
    return true;
  }
  // Constructor-style: `Type name(init);` — the name is the identifier
  // right before the first '(' and must have type text before it.
  const std::size_t open = code.find('(');
  if (open == std::string::npos) return false;
  const LineTok* before = nullptr;
  for (const LineTok& t : ids)
    if (t.pos + t.text.size() == open) before = &t;
  if (before == nullptr || before->pos == 0) return false;
  const std::string head = code.substr(0, before->pos);
  // Type text must contain another identifier (calls like `foo(x)` have
  // only whitespace or punctuation before the name).
  bool has_type_ident = false;
  for (const LineTok& t : ids)
    if (t.pos + t.text.size() <= before->pos && &t != before &&
        t.text != "const" && t.text != "static")
      has_type_ident = true;
  (void)head;
  if (!has_type_ident) return false;
  *name = before;
  *type = code.substr(0, before->pos);
  *init_begin = open + 1;
  return true;
}

/// True when the tainted identifier occurrence is used only through a
/// public-metadata accessor: its length/emptiness (`k.size()`, `k.empty()`,
/// `k.bit_length()`) or container *structure* (`keys_.count(e)`,
/// `keys_.find(e)`, `keys_.end()`): lengths and which-epochs-exist are
/// public protocol metadata in this codebase — the secret is the mapped
/// value, not the shape of the map — so a branch on one is not a
/// secret-dependent branch. Applied to the GKA6xx control-flow sinks and to
/// taint propagation through locals (`auto it = keys_.find(e)` yields a
/// public position, not secret bytes); the escape rules (GKA201/202/203)
/// keep their stricter view of direct uses.
bool public_accessor_use(const std::string& code, const LineTok& t) {
  std::size_t i = t.pos + t.text.size();
  while (i < code.size() && code[i] == ' ') ++i;
  if (i < code.size() && code[i] == '.') {
    ++i;
  } else if (i + 1 < code.size() && code[i] == '-' && code[i + 1] == '>') {
    i += 2;
  } else {
    return false;
  }
  while (i < code.size() && code[i] == ' ') ++i;
  static const char* const kPublicAccessors[] = {
      "size", "empty",    "length", "bit_length", "bits",
      "count", "find",    "contains", "begin",    "end"};
  for (const char* a : kPublicAccessors) {
    const std::size_t len = std::strlen(a);
    if (code.compare(i, len, a) == 0 && i + len < code.size() &&
        code[i + len] == '(')
      return true;
  }
  return false;
}

/// True when `line` (or the line above it) carries an `allow()` listing a
/// GKA6xx rule. Summary-mode scans consult this so an *audited* secret-
/// dependent branch (the bignum square-and-multiply kernels) does not set
/// param_to_branch and re-fire GKA601 at every call site — the allow() marks
/// the reviewed constant-time boundary, exactly like the data-flow
/// boundaries in kBoundaries. Reporting mode ignores it: findings are still
/// emitted there and eaten by the normal suppression pass, which keeps the
/// GKA007 stale-allow bookkeeping honest.
bool ct_allowed(const FileModel& m, int line) {
  for (const Allow& a : m.allows) {
    if (a.line != line && a.line != line - 1) continue;
    for (const std::string& id : a.ids)
      if (id.rfind("GKA6", 0) == 0) return true;
  }
  return false;
}

struct ScanOutcome {
  bool reached_sink = false;    // taint reached a log/trace/metric sink
                                // (directly or through a summarized callee)
  bool reached_return = false;  // taint reached a return expression
  bool reached_branch = false;  // taint reached a control-flow decision
                                // (condition, loop bound, subscript)
};

/// Scans one function body with the given initial taint set. In reporting
/// mode (`report` != nullptr) emits GKA201/202/203 findings; in summary
/// mode (`report` == nullptr) only records the outcome. Both modes
/// propagate taint through raw/auto locals and consult the interprocedural
/// view (when present) for summary-known callees.
ScanOutcome scan_body(const FileModel& m, const Function& fn,
                      std::set<std::string> tainted, const InterprocView* iv,
                      const Sink* report) {
  ScanOutcome out;
  const bool raw_return = raw_byte_type(fn.return_type);

  for (int line = fn.body_begin; line <= fn.body_end; ++line) {
    const std::size_t li = static_cast<std::size_t>(line - 1);
    if (li >= m.code.size()) break;
    const std::string& c = m.code[li];
    if (c.empty()) continue;
    const std::vector<LineTok> ids = line_identifiers(c);
    // On the signature line(s), an occurrence of the function's own name
    // followed by '(' is the definition, not a recursive call site.
    const std::string* self =
        line <= fn.body_begin ? &fn.name : nullptr;

    // --- GKA202: tainted return ------------------------------------------
    for (const LineTok& t : ids) {
      if (t.text != "return") continue;
      const auto hits = region_hits(c, ids, tainted,
                                    t.pos + t.text.size(), c.size(), iv, self);
      if (!hits.empty()) {
        out.reached_return = true;
        if (report != nullptr && raw_return) {
          const LineTok* h = hits.front().tok;
          (*report)({"GKA202", m.path, line,
                     "function '" + fn.name + "' returns secret-derived '" +
                         h->text + "' as raw '" + fn.return_type +
                         "'; return a Secure* wrapper or pass through an "
                         "approved boundary"});
        }
      }
      break;
    }

    // --- GKA601/602/603: secret-dependent control flow (constant-time
    // discipline). Findings are scoped to src/ — test and bench bodies
    // branch on test vectors by design — but the summary bit is recorded
    // everywhere so cross-TU propagation works. ---------------------------
    const bool ct_report = report != nullptr && path_has_prefix(m.path, "src/");
    auto ct_hits = [&](std::size_t b, std::size_t e) {
      std::vector<TaintHit> hs = region_hits(c, ids, tainted, b, e, iv, self);
      hs.erase(std::remove_if(hs.begin(), hs.end(),
                              [&](const TaintHit& h) {
                                return public_accessor_use(c, *h.tok);
                              }),
               hs.end());
      return hs;
    };
    auto ct_fire = [&](const char* rule, const TaintHit& h,
                       const std::string& what) {
      if (report == nullptr && ct_allowed(m, line)) return;  // audited
      out.reached_branch = true;
      if (!ct_report) return;
      (*report)({rule, m.path, line,
                 "secret-derived '" + h.tok->text + "' " + what +
                     "; execution time becomes key-dependent — use ct_equal "
                     "/ a fixed iteration count / a masked select, or "
                     "justify with an audited allow()"});
    };

    for (const LineTok& t : ids) {
      const bool is_loop = t.text == "for";
      const bool is_cond =
          t.text == "if" || t.text == "while" || t.text == "switch";
      if (!is_loop && !is_cond) continue;
      std::size_t open = t.pos + t.text.size();
      while (open < c.size() && c[open] == ' ') ++open;
      if (open >= c.size() || c[open] != '(') continue;
      int d = 0;
      std::size_t close = open;
      for (; close < c.size(); ++close) {
        if (c[close] == '(') ++d;
        if (c[close] == ')' && --d == 0) break;
      }
      // An unterminated condition (it continues on the next source line) is
      // scanned to end-of-line; continuation lines are a documented
      // under-approximation.
      const std::size_t cond_end = close < c.size() ? close : c.size();
      if (is_loop) {
        // Ranged-for iterates a container: the trip count is the container
        // *length*, which is public, so `for (auto b : key)` is fine.
        bool range_for = false;
        for (std::size_t q = open + 1; q < cond_end; ++q)
          if (c[q] == ':' && (q + 1 >= c.size() || c[q + 1] != ':') &&
              (q == 0 || c[q - 1] != ':'))
            range_for = true;
        if (range_for) continue;
      }
      const auto hs = ct_hits(open + 1, cond_end);
      if (hs.empty()) continue;
      bool early_exit = false;
      if (t.text == "if") {
        for (const LineTok& r : ids)
          if (r.pos > cond_end &&
              (r.text == "return" || r.text == "break" ||
               r.text == "continue" || r.text == "goto"))
            early_exit = true;
      }
      if (is_loop)
        ct_fire("GKA602", hs.front(), "used as a loop bound/condition");
      else if (early_exit)
        ct_fire("GKA602", hs.front(), "guards an early return/break");
      else
        ct_fire("GKA601", hs.front(),
                "used in a '" + t.text + "' condition");
    }

    // Ternary `cond ? a : b`: the condition part runs from the last
    // statement/grouping boundary to the '?'.
    {
      const std::size_t q = c.find('?');
      if (q != std::string::npos && c.find(':', q) != std::string::npos) {
        std::size_t b = 0;
        for (std::size_t i2 = 0; i2 < q; ++i2) {
          const char ch = c[i2];
          if (ch == ';' || ch == '{') b = i2 + 1;
          if (ch == '=') {
            // Assignment '=' starts the expression; comparison operators
            // (==, !=, <=, >=) do not.
            const bool cmp = (i2 + 1 < q && c[i2 + 1] == '=') ||
                             (i2 > 0 && (c[i2 - 1] == '=' || c[i2 - 1] == '!' ||
                                         c[i2 - 1] == '<' || c[i2 - 1] == '>'));
            if (!cmp) b = i2 + 1;
            if (i2 + 1 < q && c[i2 + 1] == '=') ++i2;
          }
        }
        const auto hs = ct_hits(b, q);
        if (!hs.empty())
          ct_fire("GKA601", hs.front(), "used in a ternary condition");
      }
    }

    // --- GKA603: secret-tainted subscript. The char before '[' must end an
    // indexable expression, which filters lambda captures and attributes. --
    for (std::size_t i2 = 0; i2 < c.size(); ++i2) {
      if (c[i2] != '[') continue;
      std::size_t p2 = i2;
      while (p2 > 0 && c[p2 - 1] == ' ') --p2;
      if (p2 == 0) continue;
      const char before = c[p2 - 1];
      if (!(std::isalnum(static_cast<unsigned char>(before)) ||
            before == '_' || before == ']' || before == ')'))
        continue;
      int d = 0;
      std::size_t close = i2;
      for (; close < c.size(); ++close) {
        if (c[close] == '[') ++d;
        if (c[close] == ']' && --d == 0) break;
      }
      if (close >= c.size()) break;
      const auto hs = ct_hits(i2 + 1, close);
      if (!hs.empty())
        ct_fire("GKA603", hs.front(), "used as an array/Bytes index");
      i2 = close;
    }

    // Interprocedural: a tainted argument passed to a callee whose summary
    // says that parameter reaches a branch inside (possibly in another TU).
    if (iv != nullptr) {
      for (const LineTok& t : ids) {
        const std::size_t open = t.pos + t.text.size();
        if (open >= c.size() || c[open] != '(') continue;
        if (is_boundary(t.text) || is_taint_sink(t.text)) continue;
        if (self != nullptr && t.text == *self) continue;
        if (!iv->known(t.text)) continue;
        if (wrapped_by_boundary(c, ids, t.pos)) continue;
        const auto args = call_args(c, open);
        for (std::size_t k = 0; k < args.size(); ++k) {
          if (!iv->param_to_branch(t.text, k)) continue;
          const auto hs = ct_hits(args[k].first, args[k].second);
          if (hs.empty()) continue;
          if (report == nullptr && ct_allowed(m, line)) break;  // audited
          out.reached_branch = true;
          if (ct_report) {
            (*report)({"GKA601", m.path, line,
                       "secret-derived '" + hs.front().tok->text +
                           "' passed to '" + t.text +
                           "', which branches on argument " +
                           std::to_string(k) +
                           " (interprocedural summary); make the callee "
                           "constant-time or pass a fingerprint"});
          }
          break;
        }
      }
    }

    if (!ids.empty() && ids.front().text == "return") continue;

    // --- GKA203 (direct): tainted value reaching a sink -------------------
    // Scanned before the declaration handling: member-call lines like
    // `tr->attr(...)` parse as constructor-style declarations, and the
    // sink scan must not be gated behind that misparse.
    // Stream sinks (cout/cerr/clog) take everything to their right; call
    // sinks take their parenthesized arguments.
    for (const LineTok& t : ids) {
      if (!is_taint_sink(t.text)) continue;
      const std::size_t open = t.pos + t.text.size();
      const bool is_call = open < c.size() && c[open] == '(';
      const bool is_stream =
          t.text == "cout" || t.text == "cerr" || t.text == "clog";
      if (!is_call && !is_stream) continue;
      std::vector<TaintHit> hits;
      if (is_call) {
        for (const auto& [ab, ae] : call_args(c, open)) {
          const auto h = region_hits(c, ids, tainted, ab, ae, iv, self);
          hits.insert(hits.end(), h.begin(), h.end());
        }
      } else {
        hits = region_hits(c, ids, tainted, open, c.size(), iv, self);
      }
      for (const TaintHit& h : hits) {
        out.reached_sink = true;
        if (report == nullptr) break;
        // Name-based rules already cover secret-ish names; GKA203 exists
        // for the laundered ones they cannot see.
        if (!h.via_reveal && !h.via_summary && is_secretish(h.tok->text))
          continue;
        (*report)({"GKA203", m.path, line,
                   "secret-derived '" + h.tok->text + "' reaches sink '" +
                       t.text + "'; log a fingerprint or a size instead"});
        break;
      }
    }

    // --- GKA203 (interprocedural): tainted argument to a callee whose
    // summary says that parameter reaches a sink inside ---------------------
    if (iv != nullptr) {
      for (const LineTok& t : ids) {
        const std::size_t open = t.pos + t.text.size();
        if (open >= c.size() || c[open] != '(') continue;
        if (is_boundary(t.text) || is_taint_sink(t.text)) continue;
        if (self != nullptr && t.text == *self) continue;
        if (!iv->known(t.text)) continue;
        if (wrapped_by_boundary(c, ids, t.pos)) continue;
        const auto args = call_args(c, open);
        for (std::size_t k = 0; k < args.size(); ++k) {
          if (!iv->param_to_sink(t.text, k)) continue;
          const auto hits = region_hits(c, ids, tainted, args[k].first,
                                        args[k].second, iv, self);
          if (hits.empty()) continue;
          out.reached_sink = true;
          if (report != nullptr) {
            (*report)({"GKA203", m.path, line,
                       "secret-derived '" + hits.front().tok->text +
                           "' passed to '" + t.text +
                           "', which forwards argument " + std::to_string(k) +
                           " to a logging/trace sink (interprocedural "
                           "summary); log a fingerprint or a size instead"});
          }
          break;
        }
      }
    }

    // --- GKA201: tainted value into a raw byte/string local --------------
    std::string type;
    const LineTok* name = nullptr;
    std::size_t init_begin = 0;
    if (parse_decl(c, ids, &type, &name, &init_begin)) {
      // `auto it = keys_.find(epoch)` initializes from public container
      // structure, not from the secret mapped values — such declarations
      // neither escape secret bytes nor taint the new name.
      auto hits = region_hits(c, ids, tainted, init_begin, c.size(), iv, self);
      hits.erase(std::remove_if(hits.begin(), hits.end(),
                                [&](const TaintHit& h) {
                                  return public_accessor_use(c, *h.tok);
                                }),
                 hits.end());
      if (!hits.empty()) {
        const bool is_auto = type.find("auto") != std::string::npos;
        const bool reveal_init =
            std::any_of(hits.begin(), hits.end(),
                        [](const TaintHit& h) { return h.via_reveal; });
        if (raw_byte_type(type) || (is_auto && reveal_init)) {
          if (report != nullptr) {
            (*report)({"GKA201", m.path, line,
                       "secret-derived value escapes into raw '" +
                           (is_auto
                                ? std::string("auto (reveal)")
                                : type.substr(type.find_first_not_of(" \t"))) +
                           "' local '" + name->text +
                           "'; keep it in Secure* storage or wrap the use in "
                           "an approved boundary"});
          }
          tainted.insert(name->text);  // follow the laundered copy
        } else if (is_auto) {
          tainted.insert(name->text);  // auto from tainted expr: propagate
        }
      }
    }
  }
  return out;
}

/// Seed names for a taint scan. Single-letter names are too generic to
/// taint by name: the seed set is file-global (no per-function scoping), so
/// a `SecureBytes b` in one test body must not taint an unrelated `b`
/// elsewhere. An escape of a single-letter secret is still caught at its
/// reveal() call.
std::set<std::string> filtered_seed(const std::vector<std::string>& names) {
  std::set<std::string> seed;
  for (const std::string& n : names)
    if (n.size() > 1) seed.insert(n);
  return seed;
}

}  // namespace

SummaryMap compute_taint_summaries(
    const std::vector<FileModel>& models, const CallGraph& cg,
    const std::map<const FileModel*, std::vector<std::string>>& seeds_of) {
  (void)models;
  SummaryMap sums;
  for (const FunctionRef& ref : cg.all()) {
    if (taint_exempt_path(ref.file->path)) continue;
    // Boundary and sink names have fixed semantics; a project-local
    // redefinition must not widen or narrow them.
    if (is_boundary(ref.fn->name) || is_taint_sink(ref.fn->name)) continue;
    TaintSummary s;
    s.param_to_sink.assign(ref.fn->params.size(), false);
    s.param_to_return.assign(ref.fn->params.size(), false);
    s.param_to_branch.assign(ref.fn->params.size(), false);
    sums[ref.fn] = std::move(s);
  }

  // Fixpoint: bits only ever turn on, so this converges; the iteration cap
  // is a safety net (summary depth beyond it would need a call chain of
  // more than kMaxIters summary-relevant hops).
  constexpr int kMaxIters = 12;
  for (int iter = 0; iter < kMaxIters; ++iter) {
    bool changed = false;
    const InterprocView iv(cg, sums);
    for (const FunctionRef& ref : cg.all()) {
      const auto it = sums.find(ref.fn);
      if (it == sums.end()) continue;
      TaintSummary& sum = it->second;
      const Function& fn = *ref.fn;

      for (std::size_t p = 0; p < fn.params.size(); ++p) {
        if (fn.params[p].empty()) continue;
        if (sum.param_to_sink[p] && sum.param_to_return[p] &&
            sum.param_to_branch[p])
          continue;
        const ScanOutcome o =
            scan_body(*ref.file, fn, {fn.params[p]}, &iv, nullptr);
        if (o.reached_sink && !sum.param_to_sink[p]) {
          sum.param_to_sink[p] = true;
          changed = true;
        }
        if (o.reached_return && !sum.param_to_return[p]) {
          sum.param_to_return[p] = true;
          changed = true;
        }
        if (o.reached_branch && !sum.param_to_branch[p]) {
          sum.param_to_branch[p] = true;
          changed = true;
        }
      }

      if (!sum.returns_tainted && carrier_return_type(fn.return_type)) {
        const auto seeds = seeds_of.find(ref.file);
        const ScanOutcome o = scan_body(
            *ref.file, fn,
            seeds == seeds_of.end() ? std::set<std::string>{}
                                    : filtered_seed(seeds->second),
            &iv, nullptr);
        if (o.reached_return) {
          sum.returns_tainted = true;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return sums;
}

void run_taint_rules(const FileModel& m,
                     const std::vector<std::string>& secure_idents,
                     const InterprocView* iv, const Sink& sink) {
  if (taint_exempt_path(m.path)) return;

  const std::set<std::string> seed = filtered_seed(secure_idents);
  for (const Function& fn : m.functions)
    scan_body(m, fn, seed, iv, &sink);
}

}  // namespace gka_lint
