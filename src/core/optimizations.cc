#include "core/optimizations.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/dependency_graph.h"
#include "ast/special_predicates.h"
#include "ast/substitution.h"
#include "core/canonical.h"
#include "core/transform_pass.h"

namespace factlog::core {

namespace {

using ast::Atom;
using ast::Rule;
using ast::Term;

// Occurrence counts of every variable in a rule (head + body).
std::map<std::string, int> VarCounts(const Rule& rule) {
  std::vector<std::string> vars;
  rule.head().CollectVars(&vars);
  for (const Atom& b : rule.body()) b.CollectVars(&vars);
  std::map<std::string, int> counts;
  for (const std::string& v : vars) ++counts[v];
  return counts;
}

// True when every argument of `lit` is a variable occurring exactly once in
// the whole rule (the paper's bp(_) / fp(_) literals).
bool IsAnonymousLiteral(const Atom& lit,
                        const std::map<std::string, int>& counts) {
  for (const Term& t : lit.args()) {
    if (!t.IsVariable()) return false;
    auto it = counts.find(t.var_name());
    if (it == counts.end() || it->second != 1) return false;
  }
  return true;
}

bool HasLiteralOf(const std::vector<Atom>& body, const std::string& pred) {
  return std::any_of(body.begin(), body.end(), [&pred](const Atom& a) {
    return a.predicate() == pred;
  });
}

}  // namespace

bool DeleteHeadInBodyRules(ast::Program* program) {
  auto& rules = *program->mutable_rules();
  size_t before = rules.size();
  rules.erase(std::remove_if(rules.begin(), rules.end(),
                             [](const Rule& r) {
                               return std::find(r.body().begin(),
                                                r.body().end(),
                                                r.head()) != r.body().end();
                             }),
              rules.end());
  return rules.size() != before;
}

bool DeleteSubsumedMagicLiterals(ast::Program* program,
                                 const OptimizationContext& ctx) {
  if (ctx.bp.empty() || ctx.magic_pred.empty()) return false;
  bool changed = false;
  for (Rule& rule : *program->mutable_rules()) {
    std::vector<Atom>& body = *rule.mutable_body();
    // Collect the argument vectors of bp literals in this body.
    std::vector<const std::vector<Term>*> bp_args;
    for (const Atom& lit : body) {
      if (lit.predicate() == ctx.bp) bp_args.push_back(&lit.args());
    }
    if (bp_args.empty()) continue;
    size_t before = body.size();
    body.erase(std::remove_if(body.begin(), body.end(),
                              [&](const Atom& lit) {
                                if (lit.predicate() != ctx.magic_pred) {
                                  return false;
                                }
                                for (const auto* args : bp_args) {
                                  if (*args == lit.args()) return true;
                                }
                                return false;
                              }),
               body.end());
    changed |= (body.size() != before);
  }
  return changed;
}

bool DeleteAnonymousFactorLiterals(ast::Program* program,
                                   const OptimizationContext& ctx) {
  if (ctx.bp.empty() || ctx.fp.empty()) return false;
  bool changed = false;
  for (Rule& rule : *program->mutable_rules()) {
    // Delete anonymous bp literals while an fp literal is present, then
    // anonymous fp literals while a bp literal is present.
    for (auto [target, witness] : {std::pair{ctx.bp, ctx.fp},
                                   std::pair{ctx.fp, ctx.bp}}) {
      while (true) {
        if (!HasLiteralOf(rule.body(), witness)) break;
        std::map<std::string, int> counts = VarCounts(rule);
        auto& body = *rule.mutable_body();
        auto it = std::find_if(body.begin(), body.end(), [&](const Atom& a) {
          return a.predicate() == target && IsAnonymousLiteral(a, counts);
        });
        if (it == body.end()) break;
        body.erase(it);
        changed = true;
      }
    }
  }
  return changed;
}

bool DeleteSeedFactorLiterals(ast::Program* program,
                              const OptimizationContext& ctx) {
  if (ctx.bp.empty() || ctx.fp.empty() || ctx.seed_args.empty()) return false;
  bool changed = false;
  for (Rule& rule : *program->mutable_rules()) {
    if (!HasLiteralOf(rule.body(), ctx.fp)) continue;
    auto& body = *rule.mutable_body();
    size_t before = body.size();
    body.erase(std::remove_if(body.begin(), body.end(),
                              [&](const Atom& a) {
                                return a.predicate() == ctx.bp &&
                                       a.args() == ctx.seed_args;
                              }),
               body.end());
    changed |= (body.size() != before);
  }
  return changed;
}

bool DeleteUnreachableRules(ast::Program* program,
                            const std::string& query_pred) {
  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(*program);
  std::set<std::string> keep = graph.ReachableFrom(query_pred);
  keep.insert(query_pred);
  auto& rules = *program->mutable_rules();
  size_t before = rules.size();
  rules.erase(std::remove_if(rules.begin(), rules.end(),
                             [&keep](const Rule& r) {
                               return keep.count(r.head().predicate()) == 0;
                             }),
              rules.end());
  return rules.size() != before;
}

bool AnonymizeSingletonVariables(ast::Program* program) {
  bool changed = false;
  for (Rule& rule : *program->mutable_rules()) {
    std::map<std::string, int> counts = VarCounts(rule);
    ast::Substitution subst;
    int n = 0;
    for (const auto& [var, count] : counts) {
      if (count == 1 && var.rfind("_", 0) != 0) {
        std::string fresh;
        do {
          fresh = "_A" + std::to_string(n++);
        } while (counts.count(fresh) > 0);
        subst.Bind(var, Term::Var(fresh));
      }
    }
    if (!subst.empty()) {
      rule = subst.Apply(rule);
      changed = true;
    }
  }
  return changed;
}

bool DeleteDuplicateRules(ast::Program* program) {
  std::set<std::string> seen;
  auto& rules = *program->mutable_rules();
  size_t before = rules.size();
  rules.erase(std::remove_if(rules.begin(), rules.end(),
                             [&seen](const Rule& r) {
                               return !seen.insert(
                                               CanonicalizeRule(r).ToString())
                                           .second;
                             }),
              rules.end());
  return rules.size() != before;
}

namespace {

// True when the chase for `rule_index` could derive a fact of the rule's head
// predicate: closes the predicates of the frozen body over the other rules,
// counting builtin literals as satisfied and facts as always firing. The
// chase derives no fact whose predicate lies outside this set.
bool HeadPredicateReachable(const ast::Program& program, size_t rule_index) {
  const std::vector<Rule>& rules = program.rules();
  const std::string& target = rules[rule_index].head().predicate();
  std::set<std::string> reached;
  for (const Atom& b : rules[rule_index].body()) reached.insert(b.predicate());
  bool grew = true;
  while (grew && reached.count(target) == 0) {
    grew = false;
    for (size_t i = 0; i < rules.size(); ++i) {
      if (i == rule_index || reached.count(rules[i].head().predicate()) > 0) {
        continue;
      }
      const std::vector<Atom>& body = rules[i].body();
      if (std::all_of(body.begin(), body.end(), [&reached](const Atom& a) {
            return ast::IsBuiltinPredicate(a.predicate()) ||
                   reached.count(a.predicate()) > 0;
          })) {
        reached.insert(rules[i].head().predicate());
        grew = true;
      }
    }
  }
  return reached.count(target) > 0;
}

enum class UeVerdict { kRedundant, kIrredundant, kOutOfBudget };

// Uniform-equivalence redundancy test: is `rule` derivable from the rest of
// the program when its body is frozen to fresh constants?
Result<UeVerdict> TestUniformRedundancy(const ast::Program& program,
                                        size_t rule_index,
                                        const OptimizeOptions& opts,
                                        UeCounters* counters) {
  const Rule& rule = program.rules()[rule_index];
  if (rule.body().empty()) {
    return UeVerdict::kIrredundant;  // facts are never redundant here
  }
  // Builtins cannot be frozen into facts; be conservative.
  for (const Atom& b : rule.body()) {
    if (ast::IsBuiltinPredicate(b.predicate())) return UeVerdict::kIrredundant;
  }
  if (ast::IsBuiltinPredicate(rule.head().predicate())) {
    return UeVerdict::kIrredundant;
  }
  if (!HeadPredicateReachable(program, rule_index)) {
    ++counters->skipped;
    return UeVerdict::kIrredundant;
  }

  // Freeze variables to fresh symbolic constants.
  ast::Substitution freeze;
  int n = 0;
  for (const std::string& v : rule.DistinctVars()) {
    freeze.Bind(v, Term::Sym("fzc" + std::to_string(n++)));
  }
  Rule frozen = freeze.Apply(rule);

  ast::Program chase;
  for (size_t i = 0; i < program.rules().size(); ++i) {
    if (i != rule_index) chase.AddRule(program.rules()[i]);
  }
  for (const Atom& fact : frozen.body()) {
    chase.AddRule(Rule(fact, {}));
  }

  ++counters->chases;
  // Chases evaluate bodies in source order: their databases hold a handful
  // of frozen facts, so join planning costs more than it saves, and join
  // order changes neither the derived facts nor the iteration count a
  // budget is checked against.
  eval::EvalOptions chase_opts;
  chase_opts.join_order = eval::JoinOrder::kLeftToRight;
  chase_opts.max_facts = opts.ue_max_facts;
  eval::Database db;
  auto result = eval::Evaluate(chase, &db, chase_opts);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kResourceExhausted) {
      return UeVerdict::kOutOfBudget;  // cannot prove redundancy in budget
    }
    return result.status();
  }
  auto answers = eval::ExtractAnswers(frozen.head(), &result.value(), &db);
  FACTLOG_RETURN_IF_ERROR(answers.status());
  return answers->rows.empty() ? UeVerdict::kIrredundant
                               : UeVerdict::kRedundant;
}

}  // namespace

Result<bool> DeleteUniformlyRedundantRules(ast::Program* program,
                                           const OptimizeOptions& opts,
                                           UeCounters* counters) {
  UeCounters ignored;
  if (counters == nullptr) counters = &ignored;
  std::vector<Rule>& rules = *program->mutable_rules();
  // irredundant[i]: rule i was proven irredundant in a superset of the
  // current program, so it still is (deleting rules only weakens the rest),
  // and the rescan after a deletion passes over it without a chase.
  std::vector<bool> irredundant(rules.size(), false);
  bool changed = false;
  bool deleted = true;
  while (deleted) {
    deleted = false;
    const size_t n = rules.size();
    for (size_t step = 0; step < n; ++step) {
      size_t i = (opts.ue_order == UeOrder::kForward) ? step : (n - 1 - step);
      if (irredundant[i]) continue;
      FACTLOG_ASSIGN_OR_RETURN(
          UeVerdict verdict,
          TestUniformRedundancy(*program, i, opts, counters));
      if (verdict == UeVerdict::kIrredundant) irredundant[i] = true;
      if (verdict == UeVerdict::kRedundant) {
        rules.erase(rules.begin() + i);
        irredundant.erase(irredundant.begin() + i);
        changed = true;
        deleted = true;
        break;  // rescan with the smaller program
      }
    }
  }
  return changed;
}

Result<ast::Program> OptimizeProgram(const ast::Program& program,
                                     const OptimizationContext& ctx,
                                     const OptimizeOptions& opts) {
  TransformState state;
  state.optimized = program;
  state.opt_ctx = ctx;
  FACTLOG_ASSIGN_OR_RETURN(PassOutcome outcome,
                           MakeSectionFiveFixpointPass(opts)->Apply(state));
  (void)outcome;
  return std::move(*state.optimized);
}

std::vector<int> FindStaticArguments(const ast::Program& program,
                                     const std::string& pred,
                                     const ast::Atom& query) {
  if (query.predicate() != pred) return {};
  std::vector<int> out;
  for (size_t i = 0; i < query.arity(); ++i) {
    if (!query.args()[i].IsGround()) continue;  // only bound positions
    bool is_static = true;
    for (const Rule& rule : program.rules()) {
      const bool head_is_pred = rule.head().predicate() == pred;
      if (head_is_pred && !rule.head().args()[i].IsVariable()) {
        is_static = false;
        break;
      }
      for (const Atom& lit : rule.body()) {
        if (lit.predicate() != pred) continue;
        if (!head_is_pred || lit.args()[i] != rule.head().args()[i]) {
          is_static = false;
          break;
        }
      }
      if (!is_static) break;
    }
    if (is_static) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> FindViolatingStaticArguments(
    const ast::Program& program, const std::string& pred,
    const ast::Atom& query, const std::vector<int>& static_positions) {
  std::set<int> statics(static_positions.begin(), static_positions.end());
  std::set<int> violating;
  for (const Rule& rule : program.rules()) {
    if (rule.head().predicate() != pred) continue;
    // Only recursive rules are constrained by the §4 templates; exit rules
    // may freely connect bound and free arguments.
    bool recursive = std::any_of(
        rule.body().begin(), rule.body().end(),
        [&pred](const Atom& a) { return a.predicate() == pred; });
    if (!recursive) continue;
    // Bound head variables: variables at the query's ground positions.
    std::set<std::string> bound_vars;
    std::map<std::string, int> static_var_pos;
    for (size_t i = 0; i < rule.head().arity(); ++i) {
      if (i < query.arity() && query.args()[i].IsGround() &&
          rule.head().args()[i].IsVariable()) {
        bound_vars.insert(rule.head().args()[i].var_name());
        if (statics.count(static_cast<int>(i)) > 0) {
          static_var_pos[rule.head().args()[i].var_name()] =
              static_cast<int>(i);
        }
      }
    }
    for (const Atom& lit : rule.body()) {
      if (lit.predicate() == pred) continue;
      std::vector<std::string> vars = lit.DistinctVars();
      bool mixes = std::any_of(vars.begin(), vars.end(),
                               [&](const std::string& v) {
                                 return bound_vars.count(v) == 0;
                               });
      if (!mixes) continue;
      for (const std::string& v : vars) {
        auto it = static_var_pos.find(v);
        if (it != static_var_pos.end()) violating.insert(it->second);
      }
    }
  }
  return std::vector<int>(violating.begin(), violating.end());
}

Result<ReducedProgram> ReduceStaticArguments(
    const ast::Program& program, const std::string& pred,
    const ast::Atom& query, const std::vector<int>& positions) {
  if (positions.empty()) {
    return Status::Invalid("no positions to reduce");
  }
  std::set<int> drop(positions.begin(), positions.end());

  // New predicate name, unique in the program.
  std::set<std::string> taken;
  for (const auto& [name, arity] : program.PredicateArities()) {
    taken.insert(name);
  }
  std::string new_name = pred + "_r";
  while (taken.count(new_name) > 0) new_name += "_";

  auto reduce_atom = [&](const Atom& a) {
    if (a.predicate() != pred) return a;
    std::vector<Term> args;
    for (size_t i = 0; i < a.arity(); ++i) {
      if (drop.count(static_cast<int>(i)) == 0) args.push_back(a.args()[i]);
    }
    return Atom(new_name, std::move(args));
  };

  ReducedProgram out;
  out.predicate = new_name;
  out.removed_positions = positions;
  for (const Rule& rule : program.rules()) {
    // Substitute the query constant for the static head variable (Def 5.2).
    ast::Substitution subst;
    if (rule.head().predicate() == pred) {
      for (int i : positions) {
        const Term& head_arg = rule.head().args()[i];
        if (!head_arg.IsVariable()) {
          return Status::FailedPrecondition(
              "static position " + std::to_string(i) +
              " does not hold a variable in rule: " + rule.ToString());
        }
        subst.Bind(head_arg.var_name(), query.args()[i]);
      }
    }
    Rule substituted = subst.Apply(rule);
    std::vector<Atom> body;
    body.reserve(substituted.body().size());
    for (const Atom& b : substituted.body()) body.push_back(reduce_atom(b));
    out.program.AddRule(Rule(reduce_atom(substituted.head()), std::move(body)));
  }
  out.query = reduce_atom(query);
  out.program.set_query(out.query);
  return out;
}

}  // namespace factlog::core
