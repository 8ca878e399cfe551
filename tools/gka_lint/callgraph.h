// Cross-translation-unit call graph for gka_lint, built from the per-file
// function extraction in model.cpp.
//
// Call sites are linked to definitions by *name*: an identifier followed by
// '(' inside a function body is a call of every project function with that
// name. This deliberately over-approximates — overloads are merged (a
// summary bit is set if it holds for ANY overload), member calls match every
// class's method of that name, and calls into code the scanner cannot see
// (the standard library, system headers) resolve to nothing and contribute
// no edges. Over-approximating keeps the interprocedural taint pass sound
// for the flows it models at the cost of occasional conservative fires;
// docs/static_analysis.md lists the known consequences.
//
// The graph feeds the GKA2xx interprocedural taint pass: per-function taint
// summaries (params-in -> return/sink-out, see TaintSummary) are computed to
// a fixpoint over this graph by compute_taint_summaries (rules_taint.cpp,
// which owns the boundary and sink tables).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gka_lint/model.h"

namespace gka_lint {

/// One function definition: the file it lives in plus the extracted model.
struct FunctionRef {
  const FileModel* file;
  const Function* fn;
};

class CallGraph {
 public:
  /// Builds the name -> definitions map and per-definition callee sets over
  /// every function of every model. The models vector must outlive the
  /// graph (FunctionRef points into it).
  void build(const std::vector<FileModel>& models);

  /// All definitions of `name` across the project (nullptr when the name is
  /// not defined in the scanned tree — e.g. a standard-library call).
  const std::vector<FunctionRef>* definitions(const std::string& name) const;

  /// Names called from `fn`'s body (project-defined or not).
  const std::set<std::string>& callees(const Function* fn) const;

  /// Every definition, in deterministic (file, body order) traversal order.
  const std::vector<FunctionRef>& all() const { return order_; }

 private:
  std::map<std::string, std::vector<FunctionRef>> defs_;
  std::map<const Function*, std::set<std::string>> callees_;
  std::vector<FunctionRef> order_;
  std::set<std::string> no_callees_;
};

/// Per-function taint summary: how taint entering through each parameter
/// leaves the function. Computed to a fixpoint, so mutually recursive
/// helpers converge (bits only ever turn on).
struct TaintSummary {
  std::vector<bool> param_to_sink;    // param i reaches a log/trace/metric
                                      // sink inside (transitively)
  std::vector<bool> param_to_return;  // param i flows into the return value
                                      // without an approved boundary
  std::vector<bool> param_to_branch;  // param i reaches a control-flow
                                      // decision inside (if/while/for/switch
                                      // condition, ternary, subscript) —
                                      // the GKA6xx constant-time sinks
  bool returns_tainted = false;       // the return value derives from the
                                      // function's own Secure* seeds
};

using SummaryMap = std::map<const Function*, TaintSummary>;

/// Call-site view of the summaries: queries are by callee *name* and merge
/// every overload (true if true for any definition).
class InterprocView {
 public:
  InterprocView(const CallGraph& cg, const SummaryMap& summaries)
      : cg_(&cg), summaries_(&summaries) {}

  /// True when the project defines at least one function named `callee`.
  bool known(const std::string& callee) const;
  bool param_to_sink(const std::string& callee, std::size_t arg) const;
  bool param_to_return(const std::string& callee, std::size_t arg) const;
  bool param_to_branch(const std::string& callee, std::size_t arg) const;
  bool returns_tainted(const std::string& callee) const;

 private:
  const CallGraph* cg_;
  const SummaryMap* summaries_;
};

/// Computes every function's TaintSummary to a fixpoint over the call
/// graph. `seeds_of` maps each model to the Secure*-identifier seed set to
/// use for its functions' `returns_tainted` bit (the include-closure seeds
/// in project mode). Implemented in rules_taint.cpp.
SummaryMap compute_taint_summaries(
    const std::vector<FileModel>& models, const CallGraph& cg,
    const std::map<const FileModel*, std::vector<std::string>>& seeds_of);

}  // namespace gka_lint
