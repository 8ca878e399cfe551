// Per-file analysis model for gka_lint: the lexed token stream digested into
// the structures the rule families consume.
//
//   - `code`:     a per-line view with comments blanked and string/char
//                 literal contents emptied (only the quotes remain), so line
//                 rules never match inside literals — including raw strings
//                 and multi-line block comments, which the v1 line stripper
//                 got wrong.
//   - `comments`: per-line comment text, for suppression markers and
//                 TODO/FIXME scanning.
//   - includes:   every `#include "..."` with its line, for the GKA1xx
//                 layering rules.
//   - functions:  heuristic function-definition extraction (name, return
//                 type, body line range), for the GKA2xx taint rules.
//   - secure_idents: identifiers declared with a zeroizing Secure* type —
//                 fields, locals, parameters, and functions *returning* a
//                 Secure* type. These seed the taint analysis.
//   - records:    class/struct records with their mutable-member, lock-member
//                 and SGK_CONFINED_TO_RUN classification status, for GKA504.
#pragma once

#include <string>
#include <vector>

#include "gka_lint/lexer.h"

namespace gka_lint {

struct Include {
  std::string target;  // the path between the quotes
  int line = 0;        // 1-based
};

/// One `gka-lint: allow(...)` marker.
struct Allow {
  int line = 0;                   // 1-based line the marker sits on
  std::vector<std::string> ids;   // rule ids listed in the parentheses
  bool has_reason = false;        // non-empty text followed the ')'
};

struct Function {
  std::string name;
  std::string return_type;  // token spelling, space-joined; empty if unknown
  int signature_line = 0;   // line of the name
  int body_begin = 0;       // line of the opening '{'
  int body_end = 0;         // line of the matching '}'
  std::vector<std::string> params;  // declared parameter names, in order
                                    // (empty string for unnamed parameters)
};

/// Innermost syntactic scope of a code token, classified by a brace-context
/// walk (see classify_scopes in model.cpp). Initializer braces (`= {...}`,
/// brace-init arguments) do not open a new scope kind — their tokens keep
/// the enclosing classification.
enum class TokScope {
  kNamespace,  // namespace scope (incl. the global namespace)
  kType,       // inside a class/struct/union/enum body
  kFunction,   // inside a function body (incl. nested blocks and lambdas)
};

/// A pure-code token (no comments, strings, or preprocessor lines) with its
/// scope classification. `ns_only` is true when every enclosing brace is a
/// namespace — i.e. the token sits at namespace scope, which is what the
/// GKA401 mutable-global rule keys on.
struct ScopedTok {
  TokKind kind;
  std::string text;
  int line = 0;
  TokScope scope = TokScope::kNamespace;
  bool ns_only = true;
};

/// A class/struct/union definition, with the mutable-member, lock-member and
/// classification summary the GKA504 rule keys on. Nested records are
/// extracted too but flagged, since classification of the enclosing record
/// covers them.
struct Record {
  std::string name;
  int line = 0;  // line of the record name
  bool nested = false;
  std::string first_mutable;  // first mutable data member; empty if none
  std::string lock_member;    // first mutex/condition-variable member, if any
  bool has_confined_marker = false;  // SGK_CONFINED_TO_RUN classification
};

struct FileModel {
  std::string path;
  bool skip_file = false;
  std::vector<std::string> raw;       // raw source lines
  std::vector<std::string> code;      // stripped code view, same line count
  std::vector<std::string> comments;  // per-line comment text
  std::vector<Include> includes;
  std::vector<Allow> allows;
  std::vector<Function> functions;
  std::vector<std::string> secure_idents;
  std::vector<Record> records;
  std::vector<Tok> tokens;
  std::vector<ScopedTok> scoped_tokens;  // pure code tokens, scope-classified
};

FileModel build_model(const std::string& path, const std::string& content);

}  // namespace gka_lint
