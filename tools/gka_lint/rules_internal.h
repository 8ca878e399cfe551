// Internal interface between the gka_lint engine (lint.cpp) and the rule
// family implementations (rules_core.cpp, rules_arch.cpp, rules_taint.cpp).
// Not part of the public API.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gka_lint/lint.h"
#include "gka_lint/model.h"

namespace gka_lint {

class InterprocView;  // callgraph.h

/// A finding before suppression filtering and severity assignment (the
/// engine derives severity from the rule table).
struct RawFinding {
  const char* rule;
  std::string path;
  int line;  // 1-based
  std::string message;
};

using Sink = std::function<void(RawFinding)>;

// --- shared line-lexing helpers (operate on a FileModel `code` line) ------

struct LineTok {
  std::string text;
  std::size_t pos;
};

/// All identifiers on a stripped code line, with their positions.
std::vector<LineTok> line_identifiers(const std::string& code);

/// Splits the top-level comma-separated arguments of a call whose opening
/// paren is at `open`. Returns the [begin,end) ranges of each argument.
std::vector<std::pair<std::size_t, std::size_t>> call_args(
    const std::string& code, std::size_t open);

/// Heuristic "name of the operand" in [begin,end): the last identifier not
/// inside a `[...]` subscript (so `keys_.end()` names `end`, not an index).
const LineTok* operand_name(const std::string& code,
                            const std::vector<LineTok>& ids,
                            std::size_t begin, std::size_t end);

bool path_has_prefix(const std::string& path, const std::string& prefix);
bool path_contains(const std::string& path, const std::string& needle);
bool ends_with(const std::string& s, const std::string& suffix);

/// Innermost-to-outermost names of the calls enclosing position `pos` on a
/// stripped code line: for `a(b(x))` at x, returns {"b", "a"}.
std::vector<std::string> enclosing_calls(const std::string& code,
                                         const std::vector<LineTok>& ids,
                                         std::size_t pos);

// --- rule families --------------------------------------------------------

/// GKA001..GKA006 on one file.
void run_core_rules(const FileModel& m, const Sink& sink);

/// GKA201..GKA203 on one file. `secure_idents` seeds the taint analysis —
/// pass the include-closure set in project mode so fields declared in
/// headers taint their uses in the .cpp. `iv` (may be null) supplies the
/// interprocedural taint summaries; with it, calls of project functions are
/// checked against their summaries (tainted arg into a sinking param,
/// secret-derived return values).
void run_taint_rules(const FileModel& m,
                     const std::vector<std::string>& secure_idents,
                     const InterprocView* iv, const Sink& sink);

/// GKA301..GKA306 (determinism) + GKA401/GKA402 (shared state) on one file.
void run_determinism_rules(const FileModel& m, const Sink& sink);

/// GKA504 (every sim/gcs/server structure classified, none holding a lock)
/// on one file.
void run_lock_rules(const FileModel& m, const Sink& sink);

/// GKA101/GKA102 over the whole project's include graph (src/ files only).
void run_arch_rules(const std::vector<FileModel>& files, const Sink& sink);

}  // namespace gka_lint
