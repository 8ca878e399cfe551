// gka_lint v4: project-specific static analysis for key-handling hygiene,
// architecture discipline, determinism, shared-state classification, and
// constant-time secret handling.
//
// Built on a real (comment/string/raw-string aware) lexer with per-file
// include, symbol and function extraction — see lexer.h and model.h — plus,
// since v3, a cross-translation-unit call graph with per-function taint
// summaries computed to a fixpoint (callgraph.h), which lifts the GKA2xx
// dataflow from function-local to interprocedural. v4 reuses the same
// summary machinery for GKA6xx secret-dependent control flow, and adds
// GKA504's classification of every sim/gcs/server structure
// (src/util/thread_annotations.h). Seven rule families:
//
// Key-handling rules (per file):
//   GKA001 (error)   raw equality on secret material: memcmp / operator== /
//                    EXPECT_EQ-style macros where an operand names a key,
//                    secret, exponent or share. Use ct_equal.
//   GKA002 (error)   secret material passed to a logging / formatting sink
//                    (to_hex, printf, std::cout, report, ...). Log a
//                    key_fingerprint() instead.
//   GKA003 (error)   ambient randomness (std::rand, std::random_device,
//                    std::mt19937, ...) outside the sanctioned sources
//                    (util/random_source.h and the DRBG implementation).
//   GKA004 (warning) field named like secret material (key / secret /
//                    exponent / share) whose declared type is not a
//                    zeroizing Secure* wrapper.
//   GKA005 (warning) TODO / FIXME comment in a crypto path (src/crypto,
//                    src/bignum, src/core).
//   GKA006 (error)   secret material passed into a trace/metric attribute
//                    sink; record a fingerprint or a size instead.
//
// Suppression-hygiene rules (per file, not themselves suppressible):
//   GKA007 (warning) stale suppression: an `allow(GKAnnn)` that no longer
//                    suppresses anything.
//   GKA008 (warning) suppression without a reason: every `allow()` must
//                    carry explanatory text after the closing paren, e.g.
//                    `// gka-lint: allow(GKA002) -- public test vector`.
//   GKA009 (error)   wire Reader constructed outside a validate_and_decode
//                    entrypoint in src/core or src/gcs: untrusted bytes must
//                    only be parsed behind the typed reject path, never via a
//                    bare Reader that can throw past the message handler.
//
// Architecture rules (whole project, src/ only):
//   GKA101 (error)   include edge that violates the subsystem layering DAG
//                    util -> bignum -> crypto -> core -> {sim, gcs} ->
//                    harness, with obs includable from core upward only.
//   GKA102 (error)   cycle in the file-level include graph.
//
// Secret-taint rules (interprocedural dataflow over the call graph):
//   GKA201 (error)   a value derived from SecureBytes / SecureBigInt (or
//                    from reveal(), or from a call whose taint summary says
//                    it returns secret-derived bytes) stored in a raw
//                    std::vector<uint8_t> / std::string / Bytes local
//                    without passing through an approved boundary (ct_equal,
//                    key_fingerprint, HKDF / cipher / MAC APIs,
//                    ScopedSubkey, secure_zero).
//   GKA202 (error)   a secret-derived value returned from a function whose
//                    return type is a raw byte/string type.
//   GKA203 (error)   a secret-derived value reaching a logging / trace /
//                    metric sink under a name the GKA002/GKA006 heuristics
//                    would not catch — directly, or passed into a project
//                    function (possibly defined in another file) whose
//                    summary says that parameter reaches a sink inside.
//
// Determinism rules (per file, deterministic subsystems):
//   GKA301 (error)   unordered_map/unordered_set in src/core|sim|gcs|fault;
//                    iteration order is not reproducible across runs.
//   GKA302 (warning) pointer-keyed ordered container or std::hash over a
//                    pointer type: address-dependent order (ASLR).
//   GKA303 (error)   system_clock outside the wallclock boundary (exactly
//                    src/obs/wallclock.{h,cpp}); scope is src/ and bench/.
//   GKA304 (error)   steady_clock / high_resolution_clock outside the
//                    wallclock boundary; virtual time is Simulator::now()
//                    and host ns/op comes through obs::WallScope.
//   GKA305 (error)   ambient time/env entropy — time(nullptr), clock(),
//                    getpid(), getenv() — outside util/random_source and
//                    the DRBG (complements GKA003's engine-name list).
//   GKA306 (warning) reinterpret_cast of a pointer to uintptr_t/intptr_t in
//                    a deterministic subsystem.
//
// Shared-state rules (per file, src/core|sim|gcs):
//   GKA401 (error)   mutable namespace-scope state; couples simulation runs.
//   GKA402 (error)   mutable function-local static; hidden shared state and
//                    an init race once runs go parallel.
//
// Lock-discipline rule (per file, src/sim|gcs|server; groups share no
// mutable state, so these subsystems take no locks):
//   GKA504 (error)   mutable top-level structure without the
//                    SGK_CONFINED_TO_RUN classification marker, or one
//                    holding a mutex / condition-variable member.
//
// Constant-time rules (src/ only; the GKA2xx taint engine with control-flow
// sinks and a param_to_branch interprocedural summary bit; `k.size()`-style
// public-length accessors are declassified):
//   GKA601 (error)   secret-derived value in an if/while/switch/ternary
//                    condition, directly or through a summarized callee.
//   GKA602 (error)   secret-derived loop bound or early-return/break guard.
//   GKA603 (error)   secret-derived array/Bytes subscript (cache-timing
//                    channel).
//
// Suppressions:
//   - `// gka-lint: allow(GKAnnn) -- reason` on the same or the previous
//     line suppresses that rule for the line (comma-separate several IDs).
//     The reason text is mandatory (GKA008) and a suppression that stops
//     matching anything is flagged (GKA007).
//   - `gka-lint: skip-file` in a comment anywhere in a file skips the whole
//     file (for lint-rule test fixtures).
#pragma once

#include <string>
#include <vector>

namespace gka_lint {

enum class Severity { kWarning, kError };

struct Finding {
  std::string rule;  // "GKA001" ... "GKA203"
  Severity severity;
  std::string path;  // as passed to lint_source / lint_project
  int line;          // 1-based
  std::string message;
};

struct Rule {
  const char* id;
  Severity severity;
  const char* summary;
};

/// The rule table (for --list-rules, the SARIF catalog, and the tests).
const std::vector<Rule>& rules();

/// True when `ident` names secret material per the component heuristic.
bool is_secretish(const std::string& ident);

/// Lints one file in isolation: all per-file rules (GKA0xx, GKA2xx), with
/// the taint analysis seeded only from this file's Secure*-typed symbols.
/// `path` is used for findings and for the path-scoped rules — use
/// repo-relative paths like "src/crypto/dh.cpp".
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content);

/// A file handed to the whole-project analysis.
struct SourceFile {
  std::string path;     // repo-relative
  std::string content;
};

/// Timing/size counters from one lint run, for --stats and the CI wall-time
/// budget.
struct LintStats {
  std::size_t files = 0;    // models built
  long long model_ms = 0;   // lexing + model extraction (parallel under jobs)
  long long analyze_ms = 0; // call graph, summaries, rules, suppressions
};

/// Lints a whole project: per-file rules with taint seeded from every
/// file's Secure*-typed symbols along the include graph (so a field
/// declared in a header taints its uses in the .cpp), the interprocedural
/// taint summaries over the cross-TU call graph, plus the GKA1xx
/// include-graph rules.
///
/// `jobs` parallelizes the per-file lexing/model extraction (the dominant
/// cost; the merge and rule phases stay serial so output is byte-identical
/// for any jobs value). Values < 1 mean 1. `stats`, when non-null, receives
/// phase timings.
std::vector<Finding> lint_project(const std::vector<SourceFile>& files,
                                  int jobs, LintStats* stats);
std::vector<Finding> lint_project(const std::vector<SourceFile>& files);

/// Formats a finding as "path:line: [RULE] severity: message".
std::string format(const Finding& f);

/// Machine-readable output for CI: a stable JSON object, and SARIF 2.1.0
/// for code-scanning annotation upload. Every SARIF rule carries a helpUri
/// into the docs/static_analysis.md catalog (rule_help_uri), and every
/// result echoes it in its property bag plus a ruleIndex into the catalog.
std::string to_json(const std::vector<Finding>& findings,
                    std::size_t files_scanned);
std::string to_sarif(const std::vector<Finding>& findings);

/// The docs/static_analysis.md catalog anchor for a rule id, e.g.
/// "docs/static_analysis.md#lock-discipline-rules-gka5xx" for GKA504.
std::string rule_help_uri(const std::string& id);

/// The rule table as JSON (`--list-rules --format=json`): id, severity,
/// summary, and helpUri per rule — what the fixture-coverage meta-test
/// iterates.
std::string rules_to_json();

}  // namespace gka_lint
