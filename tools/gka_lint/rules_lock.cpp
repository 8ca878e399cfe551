// GKA504: every mutable structure under src/sim, src/gcs and src/server is
// classified, and none of them holds a lock.
//
// Groups share no mutable state (docs/multi_group.md): each one's replay is
// owned by one run and advanced by one worker at a time, with the executor's
// epoch barrier ordering the hand-offs. So a mutable top-level class/struct
// there must carry the SGK_CONFINED_TO_RUN marker
// (src/util/thread_annotations.h), and a mutex or condition-variable member
// is a finding whatever the classification: a reintroduced lock means a
// group has started sharing state. This is the escape-analysis complement to
// GKA401/402. Atomic members, const members, nested records (covered by the
// enclosing record's classification) and function-local records (run-confined
// by construction) are exempt.
#include "gka_lint/rules_internal.h"

namespace gka_lint {

void run_lock_rules(const FileModel& m, const Sink& sink) {
  if (!path_has_prefix(m.path, "src/sim") &&
      !path_has_prefix(m.path, "src/gcs") &&
      !path_has_prefix(m.path, "src/server"))
    return;
  for (const Record& r : m.records) {
    if (r.nested) continue;
    bool function_local = false;
    for (const Function& fn : m.functions)
      if (r.line >= fn.body_begin && r.line <= fn.body_end)
        function_local = true;
    if (function_local) continue;
    if (!r.lock_member.empty()) {
      sink({"GKA504", m.path, r.line,
            "structure '" + r.name + "' holds lock member '" + r.lock_member +
                "'; groups share no mutable state, so sim/gcs/server code "
                "takes no locks: give each group its own copy, and let the "
                "epoch barrier order hand-offs (docs/multi_group.md)"});
      continue;
    }
    if (r.first_mutable.empty() || r.has_confined_marker) continue;
    sink({"GKA504", m.path, r.line,
          "mutable structure '" + r.name + "' (e.g. member '" +
              r.first_mutable +
              "') has no concurrency classification; mark the type "
              "SGK_CONFINED_TO_RUN (src/util/thread_annotations.h) if one "
              "run owns it, or give each group its own copy"});
  }
}

}  // namespace gka_lint
