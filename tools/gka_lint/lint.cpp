// gka_lint engine: orchestrates the rule families over file models, applies
// inline suppressions, and implements the suppression-hygiene meta rules
// (GKA007 stale allow, GKA008 missing reason).
#include "gka_lint/lint.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "gka_lint/callgraph.h"
#include "gka_lint/model.h"
#include "gka_lint/rules_internal.h"

namespace gka_lint {

namespace {

// ---------------------------------------------------------------------------
// identifier classification

const char* const kSecretComponents[] = {
    "key",    "keys",   "secret", "secrets", "exponent",
    "share",  "shares", "mac",    "tag",
};

// A component that marks a name as public, derived, or merely key-adjacent
// metadata. "bkey" is TGDH/STR's blinded (public) key; epochs, listeners and
// fingerprints are about keys but are not key material. "ms" marks a
// latency/timestamp ("event_to_key_ms") and "installs" an install-event
// count — timing and cardinality metadata about keys, like "time"/"epoch".
const char* const kAllowComponents[] = {
    "bkey",   "bkeys", "bk",          "br",       "pub",    "public",
    "verify", "fingerprint", "fp",    "epoch",    "has",    "listener",
    "time",   "kind",  "confirmation", "agreement", "tree",  "size",
    "len",    "id",    "epochs",      "name",     "schedule", "ms",
    "installs",
};

std::vector<std::string> components(const std::string& ident) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : ident) {
    if (c == '_') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool in_list(const std::string& s, const char* const* list, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (s == list[i]) return true;
  return false;
}

Severity rule_severity(const std::string& id) {
  for (const Rule& r : rules())
    if (id == r.id) return r.severity;
  return Severity::kError;
}

// ---------------------------------------------------------------------------
// suppression resolution

/// Applies a file's allow() markers to its raw findings, records which
/// allows were used, and appends the GKA007/GKA008 meta findings. An allow
/// covers its own line and the following line (matching the established
/// same-line / previous-line comment styles).
void resolve_suppressions(const FileModel& m, std::vector<RawFinding>& raw,
                          std::vector<Finding>& out) {
  std::map<const Allow*, std::set<std::string>> used;  // allow -> ids used
  for (RawFinding& f : raw) {
    bool suppressed = false;
    for (const Allow& a : m.allows) {
      if (a.line != f.line && a.line != f.line - 1) continue;
      if (std::find(a.ids.begin(), a.ids.end(), f.rule) == a.ids.end())
        continue;
      used[&a].insert(f.rule);
      suppressed = true;
    }
    if (!suppressed)
      out.push_back({f.rule, rule_severity(f.rule), f.path, f.line,
                     std::move(f.message)});
  }

  for (const Allow& a : m.allows) {
    for (const std::string& id : a.ids) {
      const auto it = used.find(&a);
      if (it == used.end() || it->second.count(id) == 0) {
        out.push_back({"GKA007", rule_severity("GKA007"), m.path, a.line,
                       "stale suppression: allow(" + id +
                           ") no longer matches any finding; remove it"});
      }
    }
    if (!a.has_reason) {
      out.push_back({"GKA008", rule_severity("GKA008"), m.path, a.line,
                     "suppression without a reason; write `gka-lint: "
                     "allow(...) -- why this is safe`"});
    }
  }
}

/// Per-file rules (GKA0xx + GKA2xx + GKA3xx/4xx + GKA5xx/6xx) into `out`,
/// suppressions applied. `iv` carries the interprocedural taint summaries
/// (may be null).
void lint_one(const FileModel& m, const std::vector<std::string>& taint_seed,
              const InterprocView* iv, std::vector<Finding>& out) {
  if (m.skip_file) return;
  std::vector<RawFinding> raw;
  const Sink sink = [&raw](RawFinding f) { raw.push_back(std::move(f)); };
  run_core_rules(m, sink);
  run_taint_rules(m, taint_seed, iv, sink);
  run_determinism_rules(m, sink);
  run_lock_rules(m, sink);
  resolve_suppressions(m, raw, out);
}

void sort_findings(std::vector<Finding>& fs) {
  std::stable_sort(fs.begin(), fs.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.path != b.path) return a.path < b.path;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
}

}  // namespace

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"GKA001", Severity::kError,
       "raw equality (memcmp / == / EXPECT_EQ) on secret material; use "
       "ct_equal"},
      {"GKA002", Severity::kError,
       "secret material passed to a logging/formatting sink; log "
       "key_fingerprint() instead"},
      {"GKA003", Severity::kError,
       "ambient randomness outside util/random_source.h and the DRBG"},
      {"GKA004", Severity::kWarning,
       "secret-named field not held in zeroizing Secure* storage"},
      {"GKA005", Severity::kWarning, "TODO/FIXME in a crypto path"},
      {"GKA006", Severity::kError,
       "secret material passed into a trace/metric attribute sink; record a "
       "fingerprint or a size instead"},
      {"GKA007", Severity::kWarning,
       "stale allow() suppression that no longer matches any finding"},
      {"GKA008", Severity::kWarning,
       "allow() suppression without a reason string"},
      {"GKA009", Severity::kError,
       "wire Reader constructed outside a validate_and_decode entrypoint in "
       "src/core or src/gcs; parse untrusted bytes only behind the typed "
       "reject path"},
      {"GKA101", Severity::kError,
       "include edge violates the subsystem layering DAG (util -> bignum -> "
       "crypto -> core -> {sim, gcs} -> server -> harness; obs from core "
       "up)"},
      {"GKA102", Severity::kError, "cycle in the file-level include graph"},
      {"GKA201", Severity::kError,
       "secret-derived value escapes into a raw byte/string local without "
       "an approved boundary"},
      {"GKA202", Severity::kError,
       "secret-derived value returned as a raw byte/string type"},
      {"GKA203", Severity::kError,
       "secret-derived value reaches a logging/trace/metric sink "
       "(taint-based, interprocedural over the cross-TU call graph)"},
      {"GKA301", Severity::kError,
       "unordered container in a deterministic subsystem (src/core, src/sim, "
       "src/gcs, src/fault, src/server); iteration order is not reproducible "
       "— use std::map/std::set"},
      {"GKA302", Severity::kWarning,
       "container ordered or hashed by pointer value in a deterministic "
       "subsystem; addresses vary per run (ASLR) — key by a stable id"},
      {"GKA303", Severity::kError,
       "wall-clock read (system_clock) outside the wallclock boundary "
       "(src/obs/wallclock.{h,cpp})"},
      {"GKA304", Severity::kError,
       "host monotonic clock (steady_clock/high_resolution_clock) outside "
       "the wallclock boundary; virtual time comes from Simulator::now(), "
       "host ns/op from obs::WallScope"},
      {"GKA305", Severity::kError,
       "ambient time/env entropy (time(nullptr), clock(), getpid, getenv) "
       "outside util/random_source and the DRBG"},
      {"GKA306", Severity::kWarning,
       "pointer-to-integer reinterpret_cast in a deterministic subsystem; "
       "the value is an address and varies per run"},
      {"GKA401", Severity::kError,
       "mutable namespace-scope state in src/core, src/sim, src/gcs, or "
       "src/server; couples simulation runs — make it const or pass it "
       "through the scenario"},
      {"GKA402", Severity::kError,
       "mutable function-local static in src/core, src/sim, src/gcs, or "
       "src/server; hidden shared state plus an initialization race once "
       "runs go parallel"},
      {"GKA504", Severity::kError,
       "mutable sim/gcs/server structure that is unclassified or holds a "
       "lock; groups share nothing, so mark the type SGK_CONFINED_TO_RUN "
       "and give each group its own copy"},
      {"GKA601", Severity::kError,
       "secret-derived value in an if/while/switch/ternary condition (or "
       "passed to a callee that branches on it, interprocedurally); "
       "execution time becomes key-dependent"},
      {"GKA602", Severity::kError,
       "secret-derived loop bound or early-return/break guard; iteration "
       "count leaks secret structure — use fixed trip counts"},
      {"GKA603", Severity::kError,
       "secret-derived array/Bytes index; memory access pattern leaks the "
       "secret through cache timing — use a masked/constant-time select"},
  };
  return kRules;
}

bool is_secretish(const std::string& ident) {
  bool secret = false;
  for (const std::string& c : components(ident)) {
    if (in_list(c, kAllowComponents,
                sizeof(kAllowComponents) / sizeof(kAllowComponents[0])))
      return false;
    if (in_list(c, kSecretComponents,
                sizeof(kSecretComponents) / sizeof(kSecretComponents[0])))
      secret = true;
  }
  return secret;
}

std::string format(const Finding& f) {
  std::ostringstream os;
  os << f.path << ':' << f.line << ": [" << f.rule << "] "
     << (f.severity == Severity::kError ? "error" : "warning") << ": "
     << f.message;
  return os.str();
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content) {
  std::vector<Finding> out;
  std::vector<FileModel> models;
  models.push_back(build_model(path, content));
  const FileModel& m = models.front();

  // Single-file mode still gets the interprocedural layer, scoped to this
  // translation unit: a helper defined above its caller in the same file is
  // summarized and consulted.
  CallGraph cg;
  cg.build(models);
  std::map<const FileModel*, std::vector<std::string>> seeds;
  seeds[&m] = m.secure_idents;
  const SummaryMap summaries = compute_taint_summaries(models, cg, seeds);
  const InterprocView iv(cg, summaries);

  lint_one(m, m.secure_idents, &iv, out);
  sort_findings(out);
  return out;
}

std::vector<Finding> lint_project(const std::vector<SourceFile>& files) {
  return lint_project(files, 1, nullptr);
}

std::vector<Finding> lint_project(const std::vector<SourceFile>& files,
                                  int jobs, LintStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();

  // Model building (lex + extract) is per-file independent — the only
  // parallel phase. Workers claim indices off an atomic counter and write
  // into pre-sized slots, so the result vector is in input order and every
  // later phase is identical for any jobs value.
  std::vector<FileModel> models(files.size());
  const int workers = std::min<int>(std::max(jobs, 1),
                                    static_cast<int>(files.size()) > 0
                                        ? static_cast<int>(files.size())
                                        : 1);
  if (workers <= 1) {
    for (std::size_t i = 0; i < files.size(); ++i)
      models[i] = build_model(files[i].path, files[i].content);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < files.size();
             i = next.fetch_add(1))
          models[i] = build_model(files[i].path, files[i].content);
      });
    }
    for (std::thread& t : pool) t.join();
  }

  const auto t1 = std::chrono::steady_clock::now();

  // Taint seeds follow the include graph: a file sees the Secure*-typed
  // symbols of every header reachable from it (and its own), mirroring
  // actual visibility — a SecureBytes field declared in gcs/secure_group.h
  // taints uses of that name in gcs/secure_group.cpp, but a secret local
  // named `k` in an unrelated .cpp taints nothing else.
  std::map<std::string, const FileModel*> by_path;
  for (const FileModel& m : models) by_path[m.path] = &m;
  auto resolve = [&](const std::string& target) -> const FileModel* {
    const auto it = by_path.find("src/" + target);
    return it == by_path.end() ? nullptr : it->second;
  };
  std::map<const FileModel*, std::vector<std::string>> seeds;
  for (const FileModel& m : models) {
    std::set<std::string> names(m.secure_idents.begin(),
                                m.secure_idents.end());
    std::set<const FileModel*> visited{&m};
    std::vector<const FileModel*> queue{&m};
    while (!queue.empty()) {
      const FileModel* cur = queue.back();
      queue.pop_back();
      for (const Include& inc : cur->includes) {
        const FileModel* dep = resolve(inc.target);
        if (dep == nullptr || !visited.insert(dep).second) continue;
        names.insert(dep->secure_idents.begin(), dep->secure_idents.end());
        queue.push_back(dep);
      }
    }
    seeds[&m] = std::vector<std::string>(names.begin(), names.end());
  }

  // Interprocedural layer: cross-TU call graph + per-function taint
  // summaries to a fixpoint. Serial — the fixpoint is a whole-program
  // computation and the rule phase is cheap next to model building.
  CallGraph cg;
  cg.build(models);
  const SummaryMap summaries = compute_taint_summaries(models, cg, seeds);
  const InterprocView iv(cg, summaries);

  std::vector<Finding> out;
  for (const FileModel& m : models) lint_one(m, seeds[&m], &iv, out);

  // Project-wide architecture rules (suppressions still apply, resolved
  // against the reporting file's allow markers).
  std::vector<RawFinding> arch_raw;
  run_arch_rules(models, [&](RawFinding f) { arch_raw.push_back(std::move(f)); });
  std::map<std::string, std::vector<RawFinding>> arch_by_file;
  for (RawFinding& f : arch_raw) arch_by_file[f.path].push_back(std::move(f));
  for (const FileModel& m : models) {
    const auto it = arch_by_file.find(m.path);
    if (it == arch_by_file.end() || m.skip_file) continue;
    // Meta findings for these files were already emitted by lint_one; only
    // filter the arch findings against the allows here.
    for (RawFinding& f : it->second) {
      bool suppressed = false;
      for (const Allow& a : m.allows) {
        if (a.line != f.line && a.line != f.line - 1) continue;
        if (std::find(a.ids.begin(), a.ids.end(), f.rule) != a.ids.end())
          suppressed = true;
      }
      if (!suppressed)
        out.push_back({f.rule, rule_severity(f.rule), f.path, f.line,
                       std::move(f.message)});
    }
  }

  sort_findings(out);

  if (stats != nullptr) {
    const auto t2 = std::chrono::steady_clock::now();
    stats->files = files.size();
    stats->model_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0).count();
    stats->analyze_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(t2 - t1).count();
  }
  return out;
}

// ---------------------------------------------------------------------------
// shared line helpers (declared in rules_internal.h)

namespace {
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
}  // namespace

std::vector<LineTok> line_identifiers(const std::string& code) {
  std::vector<LineTok> out;
  std::size_t i = 0;
  while (i < code.size()) {
    if (ident_start(code[i]) && (i == 0 || !ident_char(code[i - 1]))) {
      std::size_t j = i;
      while (j < code.size() && ident_char(code[j])) ++j;
      out.push_back({code.substr(i, j - i), i});
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> call_args(
    const std::string& code, std::size_t open) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) {
        if (i > start) out.push_back({start, i});
        return out;
      }
    } else if (c == ',' && depth == 1) {
      out.push_back({start, i});
      start = i + 1;
    }
  }
  if (code.size() > start) out.push_back({start, code.size()});
  return out;
}

const LineTok* operand_name(const std::string& code,
                            const std::vector<LineTok>& ids,
                            std::size_t begin, std::size_t end) {
  const LineTok* best = nullptr;
  int bracket = 0;
  std::size_t i = begin;
  std::size_t next_id = 0;
  while (next_id < ids.size() && ids[next_id].pos < begin) ++next_id;
  for (; i < end; ++i) {
    if (code[i] == '[') ++bracket;
    if (code[i] == ']' && bracket > 0) --bracket;
    if (next_id < ids.size() && ids[next_id].pos == i) {
      if (bracket == 0 && ids[next_id].pos + ids[next_id].text.size() <= end)
        best = &ids[next_id];
      ++next_id;
    }
  }
  return best;
}

bool path_has_prefix(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<std::string> enclosing_calls(const std::string& code,
                                         const std::vector<LineTok>& ids,
                                         std::size_t pos) {
  std::vector<std::string> out;
  int depth = 0;
  for (std::size_t i = pos; i-- > 0;) {
    const char c = code[i];
    if (c == ')' || c == ']' || c == '}') ++depth;
    if (c == '(' || c == '[' || c == '{') {
      if (depth > 0) {
        --depth;
        continue;
      }
      if (c == '(') {
        // The identifier ending right before this '(' names the call.
        for (const LineTok& t : ids) {
          if (t.pos + t.text.size() == i) {
            out.push_back(t.text);
            break;
          }
        }
      }
      // Keep walking outward (depth stays 0: we are now outside this group).
    }
  }
  return out;
}

}  // namespace gka_lint
