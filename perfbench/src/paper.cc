#include "paper.h"

#include <string>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"

namespace perfbench {

namespace {

namespace api = factlog::api;
namespace core = factlog::core;

constexpr char kThreeFormTc[] =
    "t(X, Y) :- t(X, W), t(W, Y).\n"
    "t(X, Y) :- e(X, W), t(W, Y).\n"
    "t(X, Y) :- t(X, W), e(W, Y).\n"
    "t(X, Y) :- e(X, Y).\n"
    "?- t(1, Y).\n";

struct Count {
  uint64_t facts = 0;
  size_t answers = 0;
  bool factored = false;
};

Count DerivedFacts(int64_t n, core::Strategy strategy, Report* report) {
  api::Engine engine;
  std::vector<std::pair<int64_t, int64_t>> chain;
  for (int64_t i = 1; i < n; ++i) chain.push_back({i, i + 1});
  Count count;
  if (!engine.LoadFacts(PairFacts("e", chain)).ok()) {
    report->Fail("paper: loading the chain");
    return count;
  }
  api::QueryStats qs;
  auto answers = engine.Query(kThreeFormTc, strategy, &qs);
  if (!answers.ok()) {
    report->Fail("paper: " + answers.status().ToString());
    return count;
  }
  count.facts = qs.eval.total_facts;
  count.answers = answers->size();
  auto parsed = factlog::ast::ParseProgram(kThreeFormTc);
  if (!parsed.ok()) {
    report->Fail("paper: " + parsed.status().ToString());
    return count;
  }
  auto plan = engine.Compile(*parsed, *parsed->query(), strategy);
  count.factored = plan.ok() && (*plan)->factoring_applied;
  return count;
}

}  // namespace

void CheckPaperHeadline(bool emit_metrics, Report* report) {
  const Count magic_short =
      DerivedFacts(kPaperChainShort, core::Strategy::kMagic, report);
  const Count magic_long =
      DerivedFacts(kPaperChainLong, core::Strategy::kMagic, report);
  const Count factored_short =
      DerivedFacts(kPaperChainShort, core::Strategy::kAuto, report);
  const Count factored_long =
      DerivedFacts(kPaperChainLong, core::Strategy::kAuto, report);

  report->Check(factored_short.factored && factored_long.factored,
                "paper: kAuto did not apply factoring to the three-form TC");
  report->Check(magic_short.answers == kPaperChainShort - 1 &&
                    factored_short.answers == kPaperChainShort - 1 &&
                    magic_long.answers == kPaperChainLong - 1 &&
                    factored_long.answers == kPaperChainLong - 1,
                "paper: t(1, Y) on a chain must reach every later node");
  // Doubling n: linear growth at most ~doubles, quadratic ~quadruples.
  const double factored_growth = static_cast<double>(factored_long.facts) /
                                 static_cast<double>(factored_short.facts + 1);
  const double magic_growth = static_cast<double>(magic_long.facts) /
                              static_cast<double>(magic_short.facts + 1);
  report->Check(factored_growth <= 2.5,
                "paper: factored facts grew " +
                    std::to_string(factored_growth) + "x, not linearly");
  report->Check(magic_growth >= 3.5, "paper: magic facts grew " +
                                         std::to_string(magic_growth) +
                                         "x, not quadratically");
  report->Check(factored_long.facts * magic_short.facts <
                    factored_short.facts * magic_long.facts,
                "paper: factored/magic did not fall as n doubled");

  if (!emit_metrics) return;
  const std::string s = std::to_string(kPaperChainShort);
  const std::string l = std::to_string(kPaperChainLong);
  report->Metric("paper.magic_facts.n" + s,
                 static_cast<double>(magic_short.facts), "count");
  report->Metric("paper.magic_facts.n" + l,
                 static_cast<double>(magic_long.facts), "count");
  report->Metric("paper.factored_facts.n" + s,
                 static_cast<double>(factored_short.facts), "count");
  report->Metric("paper.factored_facts.n" + l,
                 static_cast<double>(factored_long.facts), "count");
}

}  // namespace perfbench
