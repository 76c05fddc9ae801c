#include "analysis/lint.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cq.h"
#include "analysis/dependency_graph.h"
#include "ast/binding.h"
#include "ast/special_predicates.h"
#include "plan/join_plan.h"

namespace factlog::analysis {
namespace {

std::string Truncate(std::string s, size_t max = 100) {
  if (s.size() > max) {
    s.resize(max - 3);
    s += "...";
  }
  return s;
}

// ---- L001 / L002: safety and builtin executability ----

void CheckSafety(const ast::Program& program, std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const ast::Rule& rule = program.rules()[i];
    // The schedule's final bound set and unrun builtins are the same under
    // every body order (ast/binding.h), so a variable outside the set cannot
    // be bound, and an unrun builtin cannot run, under ANY body order.
    const ast::BodySchedule schedule = ast::ScheduleBody(rule.body(), {});
    const std::set<std::string>& bound = schedule.bound;
    // Only TOP-LEVEL head variables need a positive binding: a variable
    // nested inside a compound head term (pmem's `pmem(X, [X|T]) :- p(X)`)
    // is bound by the structural predicate standard-form conversion
    // introduces, and the top-down engine resolves it directly.
    for (const ast::Term& t : rule.head().args()) {
      if (!t.IsVariable()) continue;
      if (bound.count(t.var_name()) > 0) continue;
      Diagnostic d;
      d.code = "L001";
      d.severity = Severity::kError;
      d.message = "unsafe rule: head variable '" + t.var_name() +
                  "' is not bound by any positive body literal";
      d.rule_index = static_cast<int>(i);
      d.snippet = Truncate(rule.ToString());
      d.hint = "add a body literal over '" + t.var_name() +
               "' (range restriction is required for bottom-up evaluation)";
      out->push_back(std::move(d));
    }
    for (size_t b : schedule.unrun) {
      const ast::Atom& a = rule.body()[b];
      // A wrong-arity builtin never runs; it is L003's to report.
      if (a.arity() != ast::BuiltinArity(a.predicate())) continue;
      Diagnostic d;
      d.code = "L002";
      d.severity = Severity::kError;
      d.message = "builtin '" + a.ToString() +
                  "' has unbound arguments under every body order";
      d.rule_index = static_cast<int>(i);
      d.snippet = Truncate(rule.ToString());
      if (a.predicate() == ast::kEqualPredicate) {
        d.hint = "equal/2 needs at least one side bound";
      } else if (a.predicate() == ast::kAffinePredicate) {
        d.hint =
            "affine(X, A, B, Z) needs A and B bound plus one of X, Z";
      } else {
        d.hint = "geq(X, C) needs both arguments bound";
      }
      out->push_back(std::move(d));
    }
  }
}

// ---- L003: arity consistency ----

void CheckArities(const ast::Program& program, const LintOptions& options,
                  std::vector<Diagnostic>* out) {
  struct FirstUse {
    size_t arity;
    std::string where;
  };
  std::map<std::string, FirstUse> first;
  for (const char* builtin :
       {ast::kEqualPredicate, ast::kAffinePredicate, ast::kGeqPredicate}) {
    first[builtin] = {ast::BuiltinArity(builtin), "builtin signature"};
  }
  for (const auto& [name, arity] : options.edb_arities) {
    first.emplace(name, FirstUse{arity, "database relation"});
  }
  for (const auto& [name, arity] : program.edb_decls()) {
    first.emplace(name, FirstUse{arity, ".edb declaration"});
  }
  auto check = [&](const std::string& pred, size_t arity,
                   const std::string& where, int rule_index,
                   const std::string& snippet) {
    auto [it, inserted] = first.emplace(pred, FirstUse{arity, where});
    if (inserted || it->second.arity == arity) return;
    Diagnostic d;
    d.code = "L003";
    d.severity = Severity::kError;
    d.message = "predicate '" + pred + "' used with arity " +
                std::to_string(arity) + " in " + where + " but arity " +
                std::to_string(it->second.arity) + " in " + it->second.where;
    d.rule_index = rule_index;
    d.snippet = Truncate(snippet);
    d.hint = "every use of a predicate must have the same argument count";
    out->push_back(std::move(d));
  };
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const ast::Rule& rule = program.rules()[i];
    const std::string where = "rule #" + std::to_string(i + 1);
    check(rule.head().predicate(), rule.head().arity(), where,
          static_cast<int>(i), rule.ToString());
    for (const ast::Atom& a : rule.body()) {
      check(a.predicate(), a.arity(), where, static_cast<int>(i),
            rule.ToString());
    }
  }
  if (program.query().has_value()) {
    check(program.query()->predicate(), program.query()->arity(), "the query",
          -1, "?- " + program.query()->ToString() + ".");
  }
}

// ---- L004: stratification ----

void CheckStratification(const ast::Program& program,
                         const LintOptions& options, LintReport* report) {
  const DependencyGraph graph = DependencyGraph::Build(program);
  StratificationResult strat = graph.Stratify(options.negative_edges);
  report->strata = std::move(strat.stratum);
  report->num_strata = strat.num_strata;
  for (const auto& [head, neg] : strat.violations) {
    Diagnostic d;
    d.code = "L004";
    d.severity = Severity::kError;
    d.message = "recursion through negation: '" + head +
                "' depends negatively on '" + neg +
                "' inside the same recursive component";
    d.snippet = head + " -/-> " + neg;
    d.hint =
        "break the cycle so the negated predicate is fully computed in a "
        "lower stratum";
    report->diagnostics.push_back(std::move(d));
  }
}

// ---- L101: singleton variables ----

void CheckSingletons(const ast::Program& program,
                     std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const ast::Rule& rule = program.rules()[i];
    std::vector<std::string> occurrences;
    rule.head().CollectVars(&occurrences);
    for (const ast::Atom& a : rule.body()) a.CollectVars(&occurrences);
    std::map<std::string, int> counts;
    std::vector<std::string> order;
    for (const std::string& v : occurrences) {
      if (counts[v]++ == 0) order.push_back(v);
    }
    for (const std::string& v : order) {
      if (counts[v] != 1) continue;
      // '_'-prefixed names are the conventional "intentionally unused"
      // spelling; don't nag about them.
      if (!v.empty() && v[0] == '_') continue;
      Diagnostic d;
      d.code = "L101";
      d.severity = Severity::kWarning;
      d.message = "variable '" + v + "' occurs only once";
      d.rule_index = static_cast<int>(i);
      d.snippet = Truncate(rule.ToString());
      d.hint = "prefix with '_' if intentional, or check for a typo";
      out->push_back(std::move(d));
    }
  }
}

// ---- L102 / L103: duplicate and subsumed rules ----

ast::Term CanonicalizeTerm(const ast::Term& t,
                           std::map<std::string, std::string>* renaming) {
  switch (t.kind()) {
    case ast::Term::Kind::kVariable: {
      auto [it, inserted] = renaming->emplace(
          t.var_name(), "V" + std::to_string(renaming->size()));
      (void)inserted;
      return ast::Term::Var(it->second);
    }
    case ast::Term::Kind::kCompound: {
      std::vector<ast::Term> args;
      args.reserve(t.args().size());
      for (const ast::Term& a : t.args()) {
        args.push_back(CanonicalizeTerm(a, renaming));
      }
      return ast::Term::App(t.symbol(), std::move(args));
    }
    default:
      return t;
  }
}

ast::Rule CanonicalizeRule(const ast::Rule& rule) {
  std::map<std::string, std::string> renaming;
  auto canon_atom = [&](const ast::Atom& a) {
    std::vector<ast::Term> args;
    args.reserve(a.args().size());
    for (const ast::Term& t : a.args()) {
      args.push_back(CanonicalizeTerm(t, &renaming));
    }
    return ast::Atom(a.predicate(), std::move(args));
  };
  std::vector<ast::Atom> body;
  ast::Atom head = canon_atom(rule.head());
  body.reserve(rule.body().size());
  for (const ast::Atom& a : rule.body()) body.push_back(canon_atom(a));
  return ast::Rule(std::move(head), std::move(body));
}

/// Body-size cap for the L103 containment test, which is NP-complete in
/// rule size. The paper's observation that queries are small keeps the test
/// cheap, but transformed programs can grow bodies.
constexpr size_t kMaxSubsumptionBody = 8;

/// True when the L103 containment test is sound and affordable for `rule`:
/// bodies small, and no interpreted arithmetic (affine/geq are not
/// uninterpreted relations, so Chandra–Merlin does not apply to them).
bool SubsumptionEligible(const ast::Rule& rule) {
  if (rule.body().size() > kMaxSubsumptionBody) return false;
  for (const ast::Atom& a : rule.body()) {
    const std::string& p = a.predicate();
    if (p == ast::kAffinePredicate || p == ast::kGeqPredicate) return false;
  }
  return true;
}

ConjunctiveQuery RuleToCq(const ast::Rule& rule) {
  return ConjunctiveQuery(rule.head().args(), rule.body());
}

// Body predicate/arity pairs of a rule, sorted and unique.
std::vector<std::pair<std::string, size_t>> BodySignature(
    const ast::Rule& rule) {
  std::vector<std::pair<std::string, size_t>> sig;
  sig.reserve(rule.body().size());
  for (const ast::Atom& a : rule.body()) {
    sig.emplace_back(a.predicate(), a.arity());
  }
  std::sort(sig.begin(), sig.end());
  sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
  return sig;
}

bool HasEqualLiteral(const ast::Rule& rule) {
  return std::any_of(rule.body().begin(), rule.body().end(),
                     [](const ast::Atom& a) {
                       return a.predicate() == ast::kEqualPredicate;
                     });
}

void CheckRedundantRules(const ast::Program& program,
                         std::vector<Diagnostic>* out) {
  const std::vector<ast::Rule>& rules = program.rules();
  std::vector<ast::Rule> canonical;
  canonical.reserve(rules.size());
  for (const ast::Rule& r : rules) canonical.push_back(CanonicalizeRule(r));
  std::vector<bool> flagged(rules.size(), false);
  for (size_t j = 0; j < rules.size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      if (flagged[i]) continue;
      if (canonical[i] != canonical[j]) continue;
      Diagnostic d;
      d.code = "L102";
      d.severity = Severity::kWarning;
      d.message = "rule duplicates rule #" + std::to_string(i + 1) +
                  " (identical up to variable renaming)";
      d.rule_index = static_cast<int>(j);
      d.snippet = Truncate(rules[j].ToString());
      d.hint = "delete one copy";
      out->push_back(std::move(d));
      flagged[j] = true;
      break;
    }
  }
  // The containment test needs a homomorphism from the containing rule's
  // body into the contained rule's, which exists only when every body
  // predicate/arity of the former occurs in the latter. An `equal` literal
  // can make a body unsatisfiable, and an unsatisfiable body is contained in
  // everything, so rules with one always get the full test.
  std::vector<ConjunctiveQuery> cqs;
  std::vector<std::vector<std::pair<std::string, size_t>>> sigs;
  std::vector<bool> has_equal;
  cqs.reserve(rules.size());
  sigs.reserve(rules.size());
  has_equal.reserve(rules.size());
  for (const ast::Rule& r : rules) {
    cqs.push_back(RuleToCq(r));
    sigs.push_back(BodySignature(r));
    has_equal.push_back(HasEqualLiteral(r));
  }
  auto contained = [&](size_t sub, size_t super) {
    if (!has_equal[sub] && !has_equal[super] &&
        !std::includes(sigs[sub].begin(), sigs[sub].end(),
                       sigs[super].begin(), sigs[super].end())) {
      return false;
    }
    return cqs[sub].ContainedIn(cqs[super]);
  };
  for (size_t j = 0; j < rules.size(); ++j) {
    if (flagged[j]) continue;  // duplicates are trivially subsumed
    if (!SubsumptionEligible(rules[j])) continue;
    for (size_t i = 0; i < rules.size(); ++i) {
      if (i == j || flagged[i]) continue;
      if (rules[i].head().predicate() != rules[j].head().predicate()) continue;
      if (rules[i].head().arity() != rules[j].head().arity()) continue;
      if (!SubsumptionEligible(rules[i])) continue;
      // Prefer reporting the later rule: j subsumed by an earlier i, or by
      // a strictly-containing later rule only when i < j fails.
      if (i > j && contained(i, j)) {
        continue;  // handled when the loop reaches rule i
      }
      if (!contained(j, i)) continue;
      Diagnostic d;
      d.code = "L103";
      d.severity = Severity::kWarning;
      d.message = "rule is subsumed by rule #" + std::to_string(i + 1) +
                  " (every answer it derives is already derived there)";
      d.rule_index = static_cast<int>(j);
      d.snippet = Truncate(rules[j].ToString());
      d.hint = "delete the subsumed rule; it only adds evaluation work";
      out->push_back(std::move(d));
      flagged[j] = true;
      break;
    }
  }
}

// ---- L104: cartesian-product joins ----

void CheckCartesianRule(const ast::Rule& rule, size_t rule_index,
                        const plan::JoinPlan& jp,
                        std::vector<Diagnostic>* out) {
  std::set<std::string> bound;
  bool seen_relation = false;
  for (const plan::LiteralPlan& lp : jp.order) {
    const ast::Atom& a = rule.body()[lp.body_index];
    std::vector<std::string> vars;
    a.CollectVars(&vars);
    if (lp.is_relation) {
      const bool shares =
          std::any_of(vars.begin(), vars.end(), [&](const std::string& v) {
            return bound.count(v) > 0;
          });
      if (seen_relation && !vars.empty() && !shares) {
        Diagnostic d;
        d.code = "L104";
        d.severity = Severity::kWarning;
        d.message = "cartesian product: '" + a.ToString() +
                    "' shares no variable with the literals joined before "
                    "it in the best plan";
        d.rule_index = static_cast<int>(rule_index);
        d.snippet = Truncate(rule.ToString());
        d.hint =
            "connect the literal through a shared variable, or split the "
            "rule";
        out->push_back(std::move(d));
      }
      seen_relation = true;
    }
    bound.insert(vars.begin(), vars.end());
  }
}

void CheckCartesianJoins(const ast::Program& program,
                         std::vector<Diagnostic>* out) {
  // Reuse the cost-based planner: if even the cheapest plan order joins a
  // relation literal that shares no variable with everything scheduled
  // before it, the rule genuinely computes a cross product.
  plan::PlanOptions plan_opts;
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const ast::Rule& rule = program.rules()[i];
    if (rule.body().size() < 2) continue;
    CheckCartesianRule(rule, i, plan::PlanRule(rule, plan_opts), out);
  }
}

// ---- L105 / L106: reachability from the query ----

void CheckReachability(const ast::Program& program, const LintOptions& options,
                       std::vector<Diagnostic>* out) {
  if (!program.query().has_value()) return;
  const std::string& qpred = program.query()->predicate();
  const std::set<std::string> idb = program.IdbPredicates();
  const bool defined = idb.count(qpred) > 0 ||
                       program.edb_decls().count(qpred) > 0 ||
                       options.edb_arities.count(qpred) > 0 ||
                       ast::IsBuiltinPredicate(qpred);
  if (!defined) {
    Diagnostic d;
    d.code = "L106";
    d.severity = Severity::kWarning;
    d.message = "query predicate '" + qpred +
                "' has no rules and is not a known database relation";
    d.snippet = "?- " + program.query()->ToString() + ".";
    d.hint = "the query can only return an empty answer";
    out->push_back(std::move(d));
  }
  const DependencyGraph graph = DependencyGraph::Build(program);
  std::set<std::string> live = graph.ReachableFrom(qpred);
  live.insert(qpred);
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const std::string& head = program.rules()[i].head().predicate();
    if (live.count(head) > 0) continue;
    Diagnostic d;
    d.code = "L105";
    d.severity = Severity::kWarning;
    d.message = "dead rule: '" + head + "' is unreachable from the query '" +
                qpred + "'";
    d.rule_index = static_cast<int>(i);
    d.snippet = Truncate(program.rules()[i].ToString());
    d.hint = "remove the rule or query a predicate that uses it";
    out->push_back(std::move(d));
  }
}

}  // namespace

LintReport LintProgram(const ast::Program& program,
                       const LintOptions& options) {
  LintReport report;
  CheckSafety(program, &report.diagnostics);
  CheckArities(program, options, &report.diagnostics);
  CheckStratification(program, options, &report);
  CheckSingletons(program, &report.diagnostics);
  CheckRedundantRules(program, &report.diagnostics);
  CheckCartesianJoins(program, &report.diagnostics);
  CheckReachability(program, options, &report.diagnostics);
  return report;
}

std::vector<Diagnostic> LintCartesianJoins(const ast::Program& program,
                                           const plan::ProgramPlan& plans) {
  std::vector<Diagnostic> out;
  if (!plans.Compatible(program)) return out;
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const ast::Rule& rule = program.rules()[i];
    if (rule.body().size() < 2) continue;
    CheckCartesianRule(rule, i, plans.rules[i], &out);
  }
  return out;
}

}  // namespace factlog::analysis
