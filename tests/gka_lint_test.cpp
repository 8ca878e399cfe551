// Unit tests for the gka_lint rule engine (tools/gka_lint). Fixtures are
// built from string literals; the real scanner strips literals before
// matching, so this file stays clean when linted itself.
#include "gka_lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace {

using gka_lint::Finding;
using gka_lint::lint_project;
using gka_lint::lint_source;
using gka_lint::Severity;
using gka_lint::SourceFile;

bool has_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

/// Loads one golden-fixture mini-project (tests/gka_lint_fixtures/<name>);
/// file paths relative to the fixture dir are the pretend repo paths.
std::vector<SourceFile> load_fixture(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(GKA_LINT_FIXTURE_DIR) / name;
  std::vector<SourceFile> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back({fs::relative(e.path(), dir).generic_string(), ss.str()});
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.path < b.path; });
  return files;
}

TEST(GkaLintRules, TableIsComplete) {
  const auto& rules = gka_lint::rules();
  ASSERT_EQ(rules.size(), 26u);
  EXPECT_STREQ(rules[0].id, "GKA001");
  EXPECT_STREQ(rules[5].id, "GKA006");
  EXPECT_STREQ(rules[8].id, "GKA009");
  EXPECT_STREQ(rules[9].id, "GKA101");
  EXPECT_STREQ(rules[13].id, "GKA203");
  EXPECT_STREQ(rules[14].id, "GKA301");
  EXPECT_STREQ(rules[19].id, "GKA306");
  EXPECT_STREQ(rules[20].id, "GKA401");
  EXPECT_STREQ(rules[21].id, "GKA402");
  EXPECT_STREQ(rules[22].id, "GKA504");
  EXPECT_STREQ(rules[23].id, "GKA601");
  EXPECT_STREQ(rules[25].id, "GKA603");
}

TEST(GkaLintRules, SeverityAssignments) {
  for (const gka_lint::Rule& r : gka_lint::rules()) {
    const std::string id = r.id;
    if (id == "GKA007" || id == "GKA008") {
      EXPECT_EQ(r.severity, Severity::kWarning) << id;
    }
    if (id[3] == '1' || id[3] == '2') {  // GKA1xx / GKA2xx
      EXPECT_EQ(r.severity, Severity::kError) << id;
    }
    // Determinism family: the heuristic pointer rules are warnings, the
    // rest (and the whole shared-state family) are errors.
    if (id[3] == '3') {
      if (id == "GKA302" || id == "GKA306") {
        EXPECT_EQ(r.severity, Severity::kWarning) << id;
      } else {
        EXPECT_EQ(r.severity, Severity::kError) << id;
      }
    }
    if (id[3] == '4') {
      EXPECT_EQ(r.severity, Severity::kError) << id;
    }
    // Lock discipline and constant-time discipline gate the parallel-runs
    // roadmap: all errors.
    if (id[3] == '5' || id[3] == '6') {
      EXPECT_EQ(r.severity, Severity::kError) << id;
    }
  }
}

TEST(GkaLintClassifier, SecretishNames) {
  EXPECT_TRUE(gka_lint::is_secretish("session_key"));
  EXPECT_TRUE(gka_lint::is_secretish("keys_"));
  EXPECT_TRUE(gka_lint::is_secretish("shared_secret"));
  EXPECT_TRUE(gka_lint::is_secretish("exponent"));
  EXPECT_TRUE(gka_lint::is_secretish("my_share"));
  EXPECT_TRUE(gka_lint::is_secretish("mac"));

  // Public / derived / metadata names must not count.
  EXPECT_FALSE(gka_lint::is_secretish("bkey"));
  EXPECT_FALSE(gka_lint::is_secretish("key_epoch"));
  EXPECT_FALSE(gka_lint::is_secretish("has_key"));
  EXPECT_FALSE(gka_lint::is_secretish("key_fingerprint"));
  EXPECT_FALSE(gka_lint::is_secretish("verify_key"));
  EXPECT_FALSE(gka_lint::is_secretish("public_key"));
  EXPECT_FALSE(gka_lint::is_secretish("counter"));
}

TEST(GkaLint, Gka001FiresOnRawEquality) {
  const std::string src =
      "void f(const Bytes& a, const Bytes& session_key) {\n"
      "  if (a == session_key) abort();\n"
      "}\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  ASSERT_TRUE(has_rule(fs, "GKA001"));
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[0].severity, Severity::kError);
}

TEST(GkaLint, Gka001FiresOnMemcmpAndGtestMacros) {
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp", "int r = memcmp(buf, group_secret, n);\n"),
      "GKA001"));
  EXPECT_TRUE(has_rule(
      lint_source("tests/x.cpp", "EXPECT_EQ(derived_key, expected);\n"),
      "GKA001"));
}

TEST(GkaLint, Gka001IgnoresIteratorAndPublicComparisons) {
  // `it == keys_.end()` is a map-membership test, not a comparison of key
  // material; blinded keys (bkey) are public by construction.
  const std::string src =
      "void f() {\n"
      "  auto it = keys_.find(p);\n"
      "  if (it == keys_.end()) return;\n"
      "  if (bkey == other_bkey) return;\n"
      "  if (epoch == key_epoch) return;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(GkaLint, Gka002FiresOnLoggingSinks) {
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp", "std::cout << to_hex(group_key);\n"),
      "GKA002"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp", "printf(\"%s\", session_key.data());\n"),
      "GKA002"));
  // Fingerprints are the sanctioned way to display keys.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "std::cout << key_fingerprint();\n")
                  .empty());
}

TEST(GkaLint, Gka003FiresOutsideSanctionedFiles) {
  const std::string src = "std::mt19937 gen(std::random_device{}());\n";
  EXPECT_TRUE(has_rule(lint_source("src/core/x.cpp", src), "GKA003"));
  EXPECT_TRUE(has_rule(lint_source("tests/x.cpp", "int x = rand();\n"),
                       "GKA003"));
  // The sanctioned randomness sources may use the primitives.
  EXPECT_TRUE(lint_source("src/util/random_source.h", src).empty());
  EXPECT_TRUE(lint_source("src/crypto/drbg.cpp", src).empty());
}

TEST(GkaLint, Gka004FiresOnPlainSecretFields) {
  const std::string src =
      "class C {\n"
      "  Bytes session_key_;\n"
      "};\n";
  const auto fs = lint_source("src/core/x.h", src);
  ASSERT_TRUE(has_rule(fs, "GKA004"));
  EXPECT_EQ(fs[0].severity, Severity::kWarning);
  // Secure wrappers and public-key types are fine.
  EXPECT_TRUE(lint_source("src/core/x.h",
                          "class C {\n  SecureBytes session_key_;\n};\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.h",
                          "class C {\n  SecureBigInt exponent_;\n};\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.h",
                          "class C {\n  std::map<ProcessId, VerifyKey> keys_;\n};\n")
                  .empty());
}

TEST(GkaLint, Gka005FiresOnlyInCryptoPaths) {
  const std::string src = "int x;  "
                          "// TODO"
                          ": harden\n";
  EXPECT_TRUE(has_rule(lint_source("src/crypto/x.cpp", src), "GKA005"));
  EXPECT_TRUE(has_rule(lint_source("src/bignum/x.cpp", src), "GKA005"));
  EXPECT_TRUE(has_rule(lint_source("src/core/x.cpp", src), "GKA005"));
  EXPECT_TRUE(lint_source("src/sim/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("tests/x.cpp", src).empty());
}

TEST(GkaLint, Gka006FiresOnSecretsInObsSinks) {
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp",
                  "tr->attr(span, \"k\", obs::Json(session_key));\n"),
      "GKA006"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp",
                  "tr->event_attr(\"x\", obs::Json(group_secret.hex()));\n"),
      "GKA006"));
  EXPECT_TRUE(has_rule(
      lint_source("src/harness/x.cpp",
                  "mr->histogram(\"h\").observe(exponent.bits());\n"),
      "GKA006"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp", "mark_point(my_share);\n"), "GKA006"));
}

TEST(GkaLint, Gka006IgnoresMetadataAndNonCalls) {
  // Public / metadata names in obs sinks are fine.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "tr->attr(span, \"epoch\", obs::Json(key_epoch));\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "tr->instant(\"key_install\", key_time_, track);\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/harness/x.cpp",
                          "mr->histogram(name).observe(r.elapsed_ms);\n")
                  .empty());
  // The obs API's own declarations stay clean (parameters are named `name`
  // / `v`, never after key material).
  EXPECT_TRUE(lint_source("src/obs/metrics.h", "void observe(double v);\n")
                  .empty());
  EXPECT_TRUE(
      lint_source("src/obs/trace.h",
                  "void phase(std::string_view name, double clock_now);\n")
          .empty());
}

TEST(GkaLint, StringAndCommentContentsAreIgnored) {
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "const char* s = \"a == session_key\";\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "// if (a == session_key) explain\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "/* if (a == session_key) */ int x;\n")
                  .empty());
}

TEST(GkaLint, SameLineSuppressionWorks) {
  const std::string marker = std::string("gka-lint: ") + "allow(GKA001)";
  const std::string src =
      "if (a == session_key) abort();  // " + marker + " -- test\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(GkaLint, PreviousLineSuppressionWorks) {
  const std::string marker = std::string("gka-lint: ") + "allow(GKA001,GKA002)";
  const std::string src =
      "// " + marker + " -- test\n"
      "if (a == session_key) std::cout << to_hex(session_key);\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(GkaLint, SuppressionIsRuleSpecific) {
  const std::string marker = std::string("gka-lint: ") + "allow(GKA002)";
  const std::string src =
      "if (a == session_key) abort();  // " + marker + " -- test\n";
  EXPECT_TRUE(has_rule(lint_source("src/core/x.cpp", src), "GKA001"));
}

TEST(GkaLint, Gka007FlagsStaleSuppression) {
  const std::string marker = std::string("gka-lint: ") + "allow(GKA003)";
  const std::string src = "// " + marker + " -- obsolete\n"
                          "int x = 1;\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  ASSERT_TRUE(has_rule(fs, "GKA007"));
  EXPECT_EQ(fs[0].severity, Severity::kWarning);
  EXPECT_EQ(fs[0].line, 1);
}

TEST(GkaLint, Gka008FlagsMissingReason) {
  const std::string marker = std::string("gka-lint: ") + "allow(GKA001)";
  const std::string with_reason =
      "if (a == session_key) abort();  // " + marker + " -- fixture key\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", with_reason).empty());
  const std::string without =
      "if (a == session_key) abort();  // " + marker + "\n";
  const auto fs = lint_source("src/core/x.cpp", without);
  EXPECT_TRUE(has_rule(fs, "GKA008"));
  EXPECT_FALSE(has_rule(fs, "GKA001"));  // still suppressed, just flagged
}

TEST(GkaLint, Gka009FiresOnBareReaderInHandlers) {
  const std::string src =
      "void Proto::handle_message(const Bytes& body) {\n"
      "  Reader r(body);\n"
      "  const auto tag = r.u8();\n"
      "}\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  ASSERT_TRUE(has_rule(fs, "GKA009"));
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[0].severity, Severity::kError);
}

TEST(GkaLint, Gka009AllowsValidatedDecodeAndOtherLayers) {
  // The sanctioned entrypoints may construct Readers...
  const std::string entry =
      "Decoded<Wire> Proto::validate_and_decode(const Bytes& body) {\n"
      "  Reader r(body);\n"
      "  return D::accepted(Wire{r.u8()});\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", entry).empty());
  EXPECT_TRUE(lint_source("src/gcs/x.cpp", entry).empty());
  // ...reference parameters are not constructions...
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void parse_node(Reader& r, KeyTree& t);\n")
                  .empty());
  // ...and the rule is scoped to the wire-handling layers.
  const std::string elsewhere =
      "void decode(const Bytes& body) {\n"
      "  Reader r(body);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/crypto/x.cpp", elsewhere).empty());
  EXPECT_TRUE(lint_source("tests/x.cpp", elsewhere).empty());
}

TEST(GkaLintTaint, Gka201FiresOnRevealIntoRawLocal) {
  const std::string src =
      "void f(const SecureBytes& session_key) {\n"
      "  Bytes copy_bytes = session_key.reveal();\n"
      "}\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  ASSERT_TRUE(has_rule(fs, "GKA201"));
  EXPECT_EQ(fs[0].line, 2);
}

TEST(GkaLintTaint, Gka201AllowsBoundaryWrappedUse) {
  const std::string src =
      "void f(const SecureBytes& session_key) {\n"
      "  Bytes ct = aes128_cbc_encrypt(session_key.reveal(), iv, pt);\n"
      "  std::string fp = key_fingerprint(session_key);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(GkaLintTaint, Gka202FiresOnRawReturnOfSecret) {
  const std::string src =
      "Bytes f(const SecureBytes& session_key) {\n"
      "  return session_key.reveal();\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_source("src/core/x.cpp", src), "GKA202"));
  // Returning through the Secure* wrapper is the fix.
  const std::string ok =
      "SecureBytes f(const SecureBytes& session_key) {\n"
      "  return SecureBytes(session_key.reveal());\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", ok).empty());
}

TEST(GkaLintTaint, Gka203TracksLaunderedNamesIntoSinks) {
  // `view` is not a secret-ish *name*; only the taint analysis sees the
  // flow from the SecureBytes parameter into the log sink.
  const std::string src =
      "void f(const SecureBytes& session_key) {\n"
      "  auto view = session_key;\n"
      "  std::cout << to_hex(view);\n"
      "}\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  ASSERT_TRUE(has_rule(fs, "GKA203"));
  EXPECT_EQ(fs[0].line, 3);
  const std::string ok =
      "void f(const SecureBytes& session_key) {\n"
      "  auto view = session_key;\n"
      "  std::cout << key_fingerprint(view);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", ok).empty());
}

TEST(GkaLintArch, Gka101FlagsDagViolationAndGka102FlagsCycles) {
  // util must not reach up into obs; a.h <-> b.h is a cycle.
  const std::vector<SourceFile> bad = {
      {"src/util/clock.h", "#include \"obs/trace.h\"\n"},
      {"src/core/a.h", "#include \"core/b.h\"\n"},
      {"src/core/b.h", "#include \"core/a.h\"\n"},
  };
  const auto fs = lint_project(bad);
  EXPECT_TRUE(has_rule(fs, "GKA101"));
  EXPECT_TRUE(has_rule(fs, "GKA102"));

  const std::vector<SourceFile> good = {
      {"src/core/a.h", "#include \"crypto/sha256.h\"\n"},
      {"src/harness/h.cpp", "#include \"gcs/secure_group.h\"\n"},
  };
  EXPECT_TRUE(lint_project(good).empty());
}

TEST(GkaLintArch, Gka101KnowsTheFaultLayer) {
  // fault sits above core and below sim/gcs: consuming core is fine, and
  // sim/gcs/harness may consume fault — but fault must not reach up.
  const std::vector<SourceFile> good = {
      {"src/fault/plan.h", "#include \"core/view.h\"\n"},
      {"src/sim/fault_adapter.h", "#include \"fault/injector.h\"\n"},
      {"src/gcs/spread.h", "#include \"fault/hooks.h\"\n"},
      {"src/harness/chaos.h", "#include \"fault/plan.h\"\n"},
  };
  EXPECT_TRUE(lint_project(good).empty());

  const std::vector<SourceFile> bad = {
      {"src/fault/bad_sim.h", "#include \"sim/simulator.h\"\n"},
      {"src/fault/bad_gcs.h", "#include \"gcs/spread.h\"\n"},
      {"src/core/bad_core.h", "#include \"fault/plan.h\"\n"},
  };
  const auto fs = lint_project(bad);
  int gka101 = 0;
  for (const Finding& f : fs)
    if (f.rule == "GKA101") ++gka101;
  EXPECT_EQ(gka101, 3);
}

TEST(GkaLintProject, CrossFileTaintSeedsFollowIncludes) {
  // The SecureBytes field is declared in the header; the leak is in the
  // .cpp. Only project mode can connect the two.
  const std::vector<SourceFile> proj = {
      {"src/core/m.h", "class M {\n  SecureBytes session_key_;\n};\n"},
      {"src/core/m.cpp",
       "#include \"core/m.h\"\n"
       "Bytes M::dump() {\n"
       "  Bytes out_bytes = session_key_.reveal();\n"
       "  return out_bytes;\n"
       "}\n"},
  };
  const auto fs = lint_project(proj);
  EXPECT_TRUE(has_rule(fs, "GKA201"));
  EXPECT_TRUE(has_rule(fs, "GKA202"));
}

TEST(GkaLintInterproc, CrossFileSinkLaunderingNeedsTheCallGraph) {
  // The acceptance fixture for the v3 interprocedural pass: a secret
  // reveal()ed in one file, exfiltrated by a helper defined in another.
  const auto caller = load_fixture("xtu_taint_fire");
  ASSERT_EQ(caller.size(), 2u);

  // Each file in isolation is clean — this is exactly the flow the v2
  // function-local pass (and the name heuristics) provably miss.
  for (const SourceFile& f : caller)
    EXPECT_TRUE(lint_source(f.path, f.content).empty())
        << f.path << " should be clean in isolation";

  // Project mode links the call site to the helper's taint summary.
  const auto fs = lint_project(caller);
  ASSERT_TRUE(has_rule(fs, "GKA203"));

  // Same shape, but the helper fingerprints instead of logging: the
  // boundary absorbs the taint inside the summary and nothing fires.
  for (const Finding& f : lint_project(load_fixture("xtu_taint_clean")))
    ADD_FAILURE() << "xtu_taint_clean is not clean: " << gka_lint::format(f);
}

TEST(GkaLintInterproc, SummariesPropagateThroughCallChains) {
  // g leaks its parameter; f only forwards — two summary hops.
  const std::vector<SourceFile> proj = {
      {"src/core/leak.cpp",
       "void g(const Bytes& data) {\n"
       "  std::cout << to_hex(data);\n"
       "}\n"
       "void f(const Bytes& buf) {\n"
       "  g(buf);\n"
       "}\n"},
      {"src/core/use.cpp",
       "void use(const SecureBytes& session_key) {\n"
       "  f(session_key.reveal());\n"
       "}\n"},
  };
  EXPECT_TRUE(has_rule(lint_project(proj), "GKA203"));
}

TEST(GkaLintInterproc, SecretDerivedReturnValuesMintTaint) {
  // derive() returns bytes revealed from its file's own secret; the caller
  // stores them in a raw local (GKA201) and logs them (GKA203) without
  // ever touching a Secure* type or a secret-ish name itself.
  const std::vector<SourceFile> proj = {
      {"src/core/derive.h",
       "class Deriver {\n"
       " public:\n"
       "  Bytes derive() {\n"
       "    return session_key_.reveal();\n"
       "  }\n"
       " private:\n"
       "  SecureBytes session_key_;\n"
       "};\n"},
      {"src/core/consume.cpp",
       "#include \"core/derive.h\"\n"
       "void dump(Deriver& d) {\n"
       "  Bytes material = derive();\n"
       "  std::cout << to_hex(material);\n"
       "}\n"},
  };
  const auto fs = lint_project(proj);
  EXPECT_TRUE(has_rule(fs, "GKA201"));
  EXPECT_TRUE(has_rule(fs, "GKA203"));
}

TEST(GkaLintInterproc, MutuallyRecursiveSummariesConverge) {
  // alpha and beta call each other; alpha also logs. The fixpoint must
  // terminate and give beta a param-to-sink bit through the cycle.
  const std::string src =
      "void alpha(const Bytes& data, int n);\n"
      "void beta(const Bytes& data, int n) {\n"
      "  if (n > 0) alpha(data, n - 1);\n"
      "}\n"
      "void alpha(const Bytes& data, int n) {\n"
      "  if (n > 0) beta(data, n - 1);\n"
      "  std::cout << to_hex(data);\n"
      "}\n"
      "void f(const SecureBytes& session_key) {\n"
      "  beta(session_key.reveal(), 2);\n"
      "}\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  ASSERT_TRUE(has_rule(fs, "GKA203"));
  EXPECT_EQ(fs[0].line, 10);
}

TEST(GkaLintInterproc, BoundariesBeatSummaries) {
  // A summarized leaky helper wrapped in an approved boundary call does not
  // fire: absorption has precedence over summary queries.
  const std::string src =
      "Bytes twiddle(const Bytes& data) {\n"
      "  return data;\n"
      "}\n"
      "void f(const SecureBytes& session_key) {\n"
      "  auto fp = key_fingerprint(twiddle(session_key.reveal()));\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(GkaLintDeterminism, Gka301FlagsUnorderedContainers) {
  const std::string src =
      "class R {\n  std::unordered_map<int, double> m_;\n};\n";
  EXPECT_TRUE(has_rule(lint_source("src/sim/x.h", src), "GKA301"));
  EXPECT_TRUE(has_rule(lint_source("src/core/x.h", src), "GKA301"));
  EXPECT_TRUE(has_rule(lint_source("src/fault/x.h", src), "GKA301"));
  // Ordered containers, and unordered ones outside the deterministic
  // subsystems, are fine.
  EXPECT_TRUE(lint_source("src/sim/x.h",
                          "class R {\n  SGK_CONFINED_TO_RUN;\n"
                          "  std::map<int, double> m_;\n};\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/obs/x.h", src).empty());
  EXPECT_TRUE(lint_source("tests/x.cpp", src).empty());
}

TEST(GkaLintDeterminism, Gka302FlagsPointerKeys) {
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp",
                  "void f() {\n  std::set<Node*> visited;\n}\n"),
      "GKA302"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp",
                  "void f() {\n  std::map<KeyTree*, int> rank;\n}\n"),
      "GKA302"));
  // Pointer *values* are fine — only ordering/hashing by pointer key is
  // address-dependent.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f() {\n  std::map<int, Node*> by_id;\n}\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f() {\n  std::set<int> visited;\n}\n")
                  .empty());
}

TEST(GkaLintDeterminism, Gka303And304ScopeToTheWallclockBoundary) {
  const std::string wall = "auto t = std::chrono::system_clock::now();\n";
  const std::string mono = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(has_rule(lint_source("src/harness/x.cpp", wall), "GKA303"));
  EXPECT_TRUE(has_rule(lint_source("src/sim/x.cpp", mono), "GKA304"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp",
                  "auto t = std::chrono::high_resolution_clock::now();\n"),
      "GKA304"));
  // The wallclock boundary file may read the host clock; tests may too.
  EXPECT_TRUE(lint_source("src/obs/wallclock.h", wall).empty());
  EXPECT_TRUE(lint_source("src/obs/wallclock.h", mono).empty());
  EXPECT_TRUE(lint_source("tests/x.cpp", mono).empty());
}

TEST(GkaLintDeterminism, Gka305FlagsAmbientEntropyOnly) {
  EXPECT_TRUE(has_rule(
      lint_source("src/harness/x.cpp", "auto s = time(nullptr);\n"),
      "GKA305"));
  EXPECT_TRUE(has_rule(lint_source("tests/x.cpp", "auto s = time(0);\n"),
                       "GKA305"));
  EXPECT_TRUE(has_rule(
      lint_source("src/sim/x.cpp", "auto c = clock();\n"), "GKA305"));
  EXPECT_TRUE(has_rule(
      lint_source("src/harness/x.cpp", "const char* e = getenv(\"SEED\");\n"),
      "GKA305"));
  // `time`/`clock` are everyday simulator identifiers — only the C library
  // signatures fire. The sanctioned entropy files are exempt.
  EXPECT_TRUE(
      lint_source("src/sim/x.cpp", "schedule(time(t), ev);\n").empty());
  EXPECT_TRUE(lint_source("src/sim/x.cpp", "auto t = clock(machine);\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/util/random_source.h",
                          "auto s = time(nullptr);\n")
                  .empty());
}

TEST(GkaLintDeterminism, Gka306FlagsPointerIntCasts) {
  EXPECT_TRUE(has_rule(
      lint_source("src/gcs/x.cpp",
                  "auto id = reinterpret_cast<std::uintptr_t>(p);\n"),
      "GKA306"));
  // Non-pointer reinterpret_casts and other subsystems are out of scope.
  EXPECT_TRUE(lint_source("src/gcs/x.cpp",
                          "auto b = reinterpret_cast<const char*>(p);\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/obs/x.cpp",
                          "auto id = reinterpret_cast<std::uintptr_t>(p);\n")
                  .empty());
}

TEST(GkaLintSharedState, Gka401FlagsMutableGlobals) {
  const std::string src =
      "namespace sgk {\n"
      "int g_event_count = 0;\n"
      "}\n";
  const auto fs = lint_source("src/sim/x.cpp", src);
  ASSERT_TRUE(has_rule(fs, "GKA401"));
  EXPECT_EQ(fs[0].line, 2);
}

TEST(GkaLintSharedState, Gka401SkipsConstantsTypesAndMembers) {
  EXPECT_TRUE(lint_source("src/sim/x.cpp",
                          "namespace sgk {\n"
                          "constexpr int kMax = 4;\n"
                          "const double kJitter = 0.5;\n"
                          "using Clock = VirtualClock;\n"
                          "extern int g_declared_elsewhere;\n"
                          "struct S { SGK_CONFINED_TO_RUN; int mutable_member = 0; };\n"
                          "int pure_helper(int x) { int local = x; return local; }\n"
                          "}\n")
                  .empty());
  // Out of scope: harness/obs may keep process-wide state.
  EXPECT_TRUE(
      lint_source("src/harness/x.cpp", "int g_runs = 0;\n").empty());
}

TEST(GkaLintSharedState, Gka402FlagsMutableFunctionStatics) {
  const std::string src =
      "int next_id() {\n"
      "  static int counter = 0;\n"
      "  return ++counter;\n"
      "}\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  ASSERT_TRUE(has_rule(fs, "GKA402"));
  EXPECT_EQ(fs[0].line, 2);
}

TEST(GkaLintSharedState, Gka402SkipsImmutableAndClassStatics) {
  // Immutable locals, and `static` member functions / class-scope statics
  // (type scope, not function scope), stay clean.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "int f() {\n"
                          "  static constexpr int kBase = 7;\n"
                          "  static const int kDerived = kBase + 1;\n"
                          "  return kDerived;\n"
                          "}\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.h",
                          "struct CostModel {\n"
                          "  static CostModel paper2002() { return CostModel{}; }\n"
                          "  static CostModel free();\n"
                          "};\n")
                  .empty());
  EXPECT_TRUE(
      lint_source("src/harness/x.cpp", "int f() {\n  static int n = 0;\n  return ++n;\n}\n")
          .empty());
}

TEST(GkaLintDriver, ParallelModelBuildingIsByteIdentical) {
  // Findings and ordering must not depend on --jobs: the merge and rule
  // phases are serial, only model extraction fans out.
  std::vector<SourceFile> proj;
  for (int i = 0; i < 24; ++i) {
    const std::string tag = std::to_string(i);
    proj.push_back({"src/core/f" + tag + ".cpp",
                    "void f" + tag + "(const SecureBytes& session_key) {\n"
                    "  Bytes copy_bytes = session_key.reveal();\n"
                    "}\n"});
  }
  gka_lint::LintStats serial_stats, parallel_stats;
  const auto serial = lint_project(proj, 1, &serial_stats);
  const auto parallel = lint_project(proj, 8, &parallel_stats);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(gka_lint::format(serial[i]), gka_lint::format(parallel[i]));
  }
  EXPECT_EQ(serial.size(), 24u);
  EXPECT_EQ(serial_stats.files, 24u);
  EXPECT_EQ(parallel_stats.files, 24u);
}

TEST(GkaLintFixtures, EveryRuleFiresOnItsFixtureAndStaysQuietOnClean) {
  for (const gka_lint::Rule& r : gka_lint::rules()) {
    std::string base = r.id;  // "GKA001" -> "gka001"
    std::transform(base.begin(), base.end(), base.begin(),
                   [](unsigned char c) { return std::tolower(c); });

    const auto fire = lint_project(load_fixture(base + "_fire"));
    EXPECT_TRUE(has_rule(fire, r.id)) << base << "_fire did not fire " << r.id;

    const auto clean = lint_project(load_fixture(base + "_clean"));
    for (const Finding& f : clean)
      ADD_FAILURE() << base << "_clean is not clean: " << gka_lint::format(f);
  }
}

TEST(GkaLintOutput, JsonAndSarifContainFindings) {
  const auto fs =
      lint_source("src/core/x.cpp", "if (a == session_key) abort();\n");
  ASSERT_FALSE(fs.empty());
  const std::string json = gka_lint::to_json(fs, 1);
  EXPECT_NE(json.find("\"rule\": \"GKA001\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  const std::string sarif = gka_lint::to_sarif(fs);
  EXPECT_NE(sarif.find("\"ruleId\": \"GKA001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  // The SARIF rule catalog carries every rule.
  for (const gka_lint::Rule& r : gka_lint::rules())
    EXPECT_NE(sarif.find(std::string("\"id\": \"") + r.id + "\""),
              std::string::npos);
}

TEST(GkaLint, SkipFileMarkerSkipsEverything) {
  const std::string marker = std::string("gka-lint: ") + "skip-file";
  const std::string src =
      "// " + marker + "\n"
      "if (a == session_key) std::cout << to_hex(session_key);\n"
      "int x = rand();\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(GkaLint, FormatIncludesLocationRuleAndSeverity) {
  const auto fs =
      lint_source("src/core/x.cpp", "if (a == session_key) abort();\n");
  ASSERT_FALSE(fs.empty());
  const std::string line = gka_lint::format(fs[0]);
  EXPECT_NE(line.find("src/core/x.cpp:1:"), std::string::npos);
  EXPECT_NE(line.find("[GKA001]"), std::string::npos);
  EXPECT_NE(line.find("error"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Lock-discipline rule (GKA504): groups share nothing, so every sim/gcs/
// server structure is classified run-confined and none holds a lock.

TEST(GkaLintLock, Gka504ClassifiesSimAndGcsStructures) {
  const std::string bare = "struct S {\n  int n = 0;\n};\n";
  EXPECT_TRUE(has_rule(lint_source("src/sim/s.h", bare), "GKA504"));
  EXPECT_TRUE(has_rule(lint_source("src/gcs/s.h", bare), "GKA504"));
  EXPECT_TRUE(has_rule(lint_source("src/server/s.h", bare), "GKA504"));
  // Outside sim/gcs/server the rule does not apply.
  EXPECT_FALSE(has_rule(lint_source("src/core/s.h", bare), "GKA504"));
  // Classified: clean.
  EXPECT_FALSE(has_rule(
      lint_source("src/sim/s.h",
                  "struct S {\n  SGK_CONFINED_TO_RUN;\n  int n = 0;\n};\n"),
      "GKA504"));
  // A lock member is a finding whatever the classification, and whether or
  // not anything else in the structure is mutable: it means a group has
  // started sharing state. The message points at the design doc.
  for (const char* lock : {"std::mutex mu_;", "mutable std::shared_mutex mu_;",
                           "std::condition_variable cv_;"}) {
    for (const std::string& body :
         {std::string("  SGK_CONFINED_TO_RUN;\n  int n = 0;\n"),
          std::string("  const int n = 0;\n")}) {
      const auto fs = lint_source(
          "src/gcs/s.h", "struct S {\n" + body + "  " + lock + "\n};\n");
      ASSERT_TRUE(has_rule(fs, "GKA504")) << lock;
      EXPECT_NE(fs.front().message.find("docs/multi_group.md"),
                std::string::npos)
          << fs.front().message;
    }
  }
  // Const-only and atomic-only members are immutable/self-synchronized.
  EXPECT_FALSE(has_rule(
      lint_source("src/sim/s.h",
                  "struct S {\n  const int n = 0;\n  std::atomic<int> a_;\n};\n"),
      "GKA504"));
  // A method that takes a lock parameter is not a lock member.
  EXPECT_FALSE(has_rule(
      lint_source("src/sim/s.h",
                  "struct S {\n  SGK_CONFINED_TO_RUN;\n"
                  "  void wait(std::mutex& m);\n};\n"),
      "GKA504"));
}

// ---------------------------------------------------------------------------
// Constant-time rules (GKA6xx, v4).

TEST(GkaLintCt, Gka601FlagsSecretBranches) {
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp",
                  "int f(const SecureBytes& session_key) {\n"
                  "  int b = 0;\n"
                  "  if (session_key.reveal().front() & 1)\n"
                  "    b = 1;\n"
                  "  return b;\n"
                  "}\n"),
      "GKA601"));
  // Ternary conditions count too.
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp",
                  "int f(const SecureBytes& session_key) {\n"
                  "  int b = session_key.reveal().front() ? 1 : 0;\n"
                  "  return b;\n"
                  "}\n"),
      "GKA601"));
  // Branching on the public length is declassified.
  EXPECT_FALSE(has_rule(
      lint_source("src/core/x.cpp",
                  "int f(const SecureBytes& session_key) {\n"
                  "  int b = 0;\n"
                  "  if (session_key.size() > 16)\n"
                  "    b = 1;\n"
                  "  return b;\n"
                  "}\n"),
      "GKA601"));
  // Container-structure probes (which epochs exist) are public metadata.
  EXPECT_FALSE(has_rule(
      lint_source("src/core/x.cpp",
                  "bool f(int epoch) {\n"
                  "  if (keys_.count(epoch) == 0)\n"
                  "    return false;\n"
                  "  return true;\n"
                  "}\n"),
      "GKA601"));
}

TEST(GkaLintCt, Gka602FlagsSecretLoopBoundsAndEarlyExits) {
  EXPECT_TRUE(has_rule(
      lint_source(
          "src/core/x.cpp",
          "int f(const SecureBigInt& private_exponent) {\n"
          "  int ones = 0;\n"
          "  for (unsigned long w = private_exponent.reveal().limb(0); w != 0; w >>= 1)\n"
          "    ones += static_cast<int>(w & 1);\n"
          "  return ones;\n"
          "}\n"),
      "GKA602"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp",
                  "bool f(const SecureBytes& session_key) {\n"
                  "  if (session_key.reveal().front() == 0) return false;\n"
                  "  return true;\n"
                  "}\n"),
      "GKA602"));
  // Ranged-for visits every element: trip count is the public length.
  EXPECT_FALSE(has_rule(
      lint_source("src/core/x.cpp",
                  "int f(const SecureBytes& session_key) {\n"
                  "  int sum = 0;\n"
                  "  for (unsigned char b : session_key.reveal()) sum += b;\n"
                  "  return sum;\n"
                  "}\n"),
      "GKA602"));
}

TEST(GkaLintCt, Gka603FlagsSecretSubscripts) {
  EXPECT_TRUE(has_rule(
      lint_source("src/core/x.cpp",
                  "int f(const Bytes& table, const SecureBytes& session_key) {\n"
                  "  int v = table[session_key.reveal().front()];\n"
                  "  return v;\n"
                  "}\n"),
      "GKA603"));
  // Public index, public modulus: clean.
  EXPECT_FALSE(has_rule(
      lint_source("src/core/x.cpp",
                  "int f(const Bytes& table, const SecureBytes& session_key,\n"
                  "      std::size_t i) {\n"
                  "  int v = table[i % session_key.size()];\n"
                  "  return v;\n"
                  "}\n"),
      "GKA603"));
}

TEST(GkaLintCt, ReportingIsScopedToSrcButSummariesAreNot) {
  // The same secret branch in a test body is not reported...
  EXPECT_FALSE(has_rule(
      lint_source("tests/x.cpp",
                  "int f(const SecureBytes& session_key) {\n"
                  "  int b = 0;\n"
                  "  if (session_key.reveal().front() & 1)\n"
                  "    b = 1;\n"
                  "  return b;\n"
                  "}\n"),
      "GKA601"));
  // ...but a src/ caller passing a secret into a branchy helper defined in
  // ANOTHER file is, via the param_to_branch summary bit.
  const std::vector<SourceFile> proj = {
      {"src/core/helper.cpp",
       "int classify(const Bytes& material) {\n"
       "  int b = 0;\n"
       "  if (material.front() & 1)\n"
       "    b = 1;\n"
       "  return b;\n"
       "}\n"},
      {"src/core/caller.cpp",
       "int g(const SecureBytes& session_key) {\n"
       "  return classify(session_key.reveal());\n"
       "}\n"},
  };
  for (const SourceFile& f : proj)
    EXPECT_FALSE(has_rule(lint_source(f.path, f.content), "GKA601"))
        << f.path << " must be quiet in isolation";
  EXPECT_TRUE(has_rule(lint_project(proj), "GKA601"));
}

TEST(GkaLintCt, AuditedAllowStopsSummaryPropagation) {
  // The allow() inside the helper marks the audited constant-time boundary:
  // no param_to_branch bit, so the cross-TU call site stays quiet too.
  const std::string marker = std::string("gka-lint: ") + "allow";
  const std::vector<SourceFile> proj = {
      {"src/core/helper.cpp",
       "int classify(const Bytes& material) {\n"
       "  int b = 0;\n"
       "  // " + marker + "(GKA601) -- audited: masked select below\n"
       "  if (material.front() & 1)\n"
       "    b = 1;\n"
       "  return b;\n"
       "}\n"},
      {"src/core/caller.cpp",
       "int g(const SecureBytes& session_key) {\n"
       "  return classify(session_key.reveal());\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(lint_project(proj), "GKA601"));
}

// ---------------------------------------------------------------------------
// Rule catalog / output plumbing for the new families.

TEST(GkaLintOutput, EveryRuleHasAHelpUriIntoTheCatalog) {
  for (const gka_lint::Rule& r : gka_lint::rules()) {
    const std::string uri = gka_lint::rule_help_uri(r.id);
    EXPECT_EQ(uri.rfind("docs/static_analysis.md#", 0), 0u) << r.id;
  }
  EXPECT_EQ(gka_lint::rule_help_uri("GKA504"),
            "docs/static_analysis.md#lock-discipline-rules-gka5xx");
  EXPECT_EQ(gka_lint::rule_help_uri("GKA601"),
            "docs/static_analysis.md#constant-time-rules-gka6xx");
  EXPECT_EQ(gka_lint::rule_help_uri("GKA007"),
            "docs/static_analysis.md#suppression-hygiene-rules-gka0xx-meta");
}

TEST(GkaLintOutput, SarifResultsCarryHelpUriAndRuleIndex) {
  const auto fs =
      lint_source("src/core/x.cpp", "if (a == session_key) abort();\n");
  ASSERT_FALSE(fs.empty());
  const std::string sarif = gka_lint::to_sarif(fs);
  // The catalog entry and the result's property bag both link the docs.
  EXPECT_NE(sarif.find("\"helpUri\": "
                       "\"docs/static_analysis.md#key-handling-rules-gka0xx\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 0"), std::string::npos);
  EXPECT_NE(sarif.find("\"properties\": {\"helpUri\": "), std::string::npos);
}

TEST(GkaLintOutput, RulesToJsonListsEveryRuleWithHelpUri) {
  const std::string json = gka_lint::rules_to_json();
  for (const gka_lint::Rule& r : gka_lint::rules()) {
    EXPECT_NE(json.find(std::string("\"id\": \"") + r.id + "\""),
              std::string::npos)
        << r.id;
  }
  EXPECT_NE(json.find("\"helpUri\": "
                      "\"docs/static_analysis.md#constant-time-rules-gka6xx\""),
            std::string::npos);
}

TEST(GkaLintFixtures, EveryRuleInTheJsonCatalogHasFireAndCleanFixtures) {
  // The coverage gate the --list-rules --format=json output feeds: adding a
  // rule without pinning it to golden fixtures fails here, not in review.
  namespace fs = std::filesystem;
  const fs::path base = fs::path(GKA_LINT_FIXTURE_DIR);
  const std::string json = gka_lint::rules_to_json();
  std::size_t pos = 0, count = 0;
  while ((pos = json.find("\"id\": \"", pos)) != std::string::npos) {
    pos += 7;
    std::string id = json.substr(pos, json.find('"', pos) - pos);
    std::transform(id.begin(), id.end(), id.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    ++count;
    for (const char* suffix : {"_fire", "_clean"}) {
      const fs::path dir = base / (id + suffix);
      EXPECT_TRUE(fs::is_directory(dir)) << dir << " missing";
      bool any_file = false;
      if (fs::is_directory(dir))
        for (const auto& e : fs::recursive_directory_iterator(dir))
          any_file = any_file || e.is_regular_file();
      EXPECT_TRUE(any_file) << dir << " is empty";
    }
  }
  EXPECT_EQ(count, gka_lint::rules().size());
}

}  // namespace
