// Direct unit tests for the cross-TU call graph (tools/gka_lint/callgraph),
// below the rule layer: name-merged definition lookup, callee extraction,
// and the any-overload merge of InterprocView. The rule tests
// (gka_lint_test.cpp) cover the same machinery end-to-end; these pin the
// graph's own contract so a regression is attributed to the right layer.
#include "gka_lint/callgraph.h"

#include <gtest/gtest.h>

#include "gka_lint/model.h"

namespace {

using gka_lint::CallGraph;
using gka_lint::FileModel;
using gka_lint::FunctionRef;
using gka_lint::InterprocView;
using gka_lint::SummaryMap;
using gka_lint::TaintSummary;

std::vector<FileModel> build_models(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<FileModel> models;
  for (const auto& [path, content] : files)
    models.push_back(gka_lint::build_model(path, content));
  return models;
}

TEST(CallGraph, MergesSameNamedDefinitionsAcrossTus) {
  // Two TUs each define `handle` — e.g. two protocol classes with a method
  // of the same name. The graph deliberately merges them by name.
  const auto models = build_models({
      {"src/core/a.cpp", "void A::handle(int x) {\n  route(x);\n}\n"},
      {"src/core/b.cpp", "void B::handle(double y) {\n  drop(y);\n}\n"},
  });
  CallGraph cg;
  cg.build(models);

  const std::vector<FunctionRef>* defs = cg.definitions("handle");
  ASSERT_NE(defs, nullptr);
  EXPECT_EQ(defs->size(), 2u);
  // Both files contribute, in deterministic model order.
  EXPECT_EQ((*defs)[0].file->path, "src/core/a.cpp");
  EXPECT_EQ((*defs)[1].file->path, "src/core/b.cpp");

  // Unknown names (std:: calls, system headers) resolve to nothing.
  EXPECT_EQ(cg.definitions("memcpy"), nullptr);

  // Callee sets are per *definition*, not merged.
  EXPECT_EQ(cg.callees((*defs)[0].fn).count("route"), 1u);
  EXPECT_EQ(cg.callees((*defs)[0].fn).count("drop"), 0u);
  EXPECT_EQ(cg.callees((*defs)[1].fn).count("drop"), 1u);

  EXPECT_EQ(cg.all().size(), 2u);
}

TEST(CallGraph, InterprocViewMergesSummariesTrueIfAny) {
  // With two same-named definitions, a summary bit holds at a call site if
  // it holds for ANY of them — the sound direction for an over-approximate
  // name-matched graph.
  const auto models = build_models({
      {"src/core/a.cpp", "void handle(int x) {\n  route(x);\n}\n"},
      {"src/core/b.cpp", "void handle(double y) {\n  drop(y);\n}\n"},
  });
  CallGraph cg;
  cg.build(models);
  const auto* defs = cg.definitions("handle");
  ASSERT_NE(defs, nullptr);
  ASSERT_EQ(defs->size(), 2u);

  SummaryMap sums;
  TaintSummary quiet;
  quiet.param_to_sink = {false};
  quiet.param_to_branch = {false};
  quiet.param_to_return = {false};
  TaintSummary leaky = quiet;
  leaky.param_to_sink = {true};
  leaky.param_to_branch = {true};
  sums[(*defs)[0].fn] = quiet;
  sums[(*defs)[1].fn] = leaky;

  const InterprocView iv(cg, sums);
  EXPECT_TRUE(iv.known("handle"));
  EXPECT_FALSE(iv.known("memcpy"));
  EXPECT_TRUE(iv.param_to_sink("handle", 0));    // any-overload merge
  EXPECT_TRUE(iv.param_to_branch("handle", 0));  // any-overload merge
  EXPECT_FALSE(iv.param_to_return("handle", 0));
  EXPECT_FALSE(iv.returns_tainted("handle"));
}

}  // namespace
