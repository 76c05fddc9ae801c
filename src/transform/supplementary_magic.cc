#include "transform/supplementary_magic.h"

#include <algorithm>
#include <set>

#include "ast/binding.h"

namespace factlog::transform {

using analysis::AdornedPredicate;
using analysis::BoundArgs;
using ast::Atom;
using ast::AtomVars;
using ast::Rule;
using ast::Term;

Result<SupplementaryMagicProgram> SupplementaryMagicSets(
    const analysis::AdornedProgram& adorned) {
  SupplementaryMagicProgram out;
  out.query = adorned.query();

  for (const auto& [name, ap] : adorned.predicates()) {
    out.magic_names.emplace(name, "m_" + name);
  }
  const AdornedPredicate& qp = adorned.query_predicate();
  out.seed = Atom(out.magic_names.at(adorned.query().predicate()),
                  BoundArgs(adorned.query(), qp));
  out.program.AddRule(Rule(out.seed, {}));

  const auto& rules = adorned.program().rules();
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    const analysis::AdornedRuleInfo& info = adorned.rule_info()[r];
    const size_t n = rule.body().size();

    Atom head_magic(out.magic_names.at(rule.head().predicate()),
                    BoundArgs(rule.head(), info.head));

    if (n == 0) {
      out.program.AddRule(Rule(rule.head(), {head_magic}));
      continue;
    }

    // Variables needed at stage i: used by literals i+1..n or by the head.
    std::set<std::string> head_vars = AtomVars(rule.head());
    std::vector<std::set<std::string>> needed_after(n + 1);
    needed_after[n] = head_vars;
    for (size_t i = n; i >= 1; --i) {
      needed_after[i - 1] = needed_after[i];
      for (const std::string& v : AtomVars(rule.body()[i - 1])) {
        needed_after[i - 1].insert(v);
      }
    }

    // Bound-so-far: head bound args, then every processed literal's vars.
    std::set<std::string> bound = AtomVars(head_magic);

    // The previous stage's atoms: m_h for i == 1, sup_{r,i-1} afterwards, or
    // m_h, b_1 when sup_{r,1} would only copy b_1 (see the header).
    std::vector<Atom> prev = {head_magic};
    for (size_t i = 1; i <= n; ++i) {
      const Atom& lit = rule.body()[i - 1];
      std::vector<Atom> body = prev;
      body.push_back(lit);

      // Magic rule for an IDB literal: from the previous stage only. A
      // magic head already among those atoms derives nothing new.
      bool guard_implied = false;
      if (info.body[i - 1].has_value()) {
        Atom magic_head(out.magic_names.at(lit.predicate()),
                        BoundArgs(lit, *info.body[i - 1]));
        guard_implied = magic_head == head_magic;
        if (std::find(prev.begin(), prev.end(), magic_head) == prev.end()) {
          out.program.AddRule(Rule(magic_head, prev));
        }
      }

      if (i == n) {
        // Final stage inlines into the modified rule.
        out.program.AddRule(Rule(rule.head(), std::move(body)));
        break;
      }

      std::set<std::string> lit_vars = AtomVars(lit);
      bound.insert(lit_vars.begin(), lit_vars.end());
      // b_1 facts all satisfy m_h already, and V_1 would keep all of b_1:
      // sup_{r,1} would equal b_1 row for row, so read m_h, b_1 in its place.
      if (i == 1 && guard_implied &&
          std::includes(needed_after[1].begin(), needed_after[1].end(),
                        lit_vars.begin(), lit_vars.end())) {
        prev = std::move(body);
        continue;
      }

      // sup_{r,i}(V_i) :- prev, b_i.
      std::vector<Term> sup_args;
      for (const std::string& v : bound) {
        if (needed_after[i].count(v) > 0) sup_args.push_back(Term::Var(v));
      }
      Atom sup("sup_" + std::to_string(r) + "_" + std::to_string(i),
               std::move(sup_args));
      out.program.AddRule(Rule(sup, std::move(body)));
      prev = {sup};
    }
  }

  out.program.set_query(out.query);
  return out;
}

}  // namespace factlog::transform
