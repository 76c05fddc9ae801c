#include "transform/magic.h"

namespace factlog::transform {

using analysis::AdornedPredicate;
using analysis::BoundArgs;
using ast::Atom;
using ast::Rule;

Result<MagicProgram> MagicSets(const analysis::AdornedProgram& adorned) {
  MagicProgram out;
  out.adorned = adorned;
  out.query = adorned.query();

  // Allocate magic predicate names.
  for (const auto& [name, ap] : adorned.predicates()) {
    out.magic_names.emplace(name, "m_" + name);
  }

  // Seed: the bound arguments of the query are ground by construction.
  const AdornedPredicate& qp = adorned.query_predicate();
  out.seed = Atom(out.magic_names.at(adorned.query().predicate()),
                  BoundArgs(adorned.query(), qp));
  if (!out.seed.IsGround()) {
    return Status::Internal("magic seed is not ground: " + out.seed.ToString());
  }
  out.program.AddRule(Rule(out.seed, {}));

  const auto& rules = adorned.program().rules();
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    const analysis::AdornedRuleInfo& info = adorned.rule_info()[r];

    Atom head_magic(out.magic_names.at(rule.head().predicate()),
                    BoundArgs(rule.head(), info.head));

    // Magic rules: one per IDB body literal.
    for (size_t i = 0; i < rule.body().size(); ++i) {
      if (!info.body[i].has_value()) continue;
      const Atom& lit = rule.body()[i];
      Atom magic_head(out.magic_names.at(lit.predicate()),
                      BoundArgs(lit, *info.body[i]));
      std::vector<Atom> body = {head_magic};
      body.insert(body.end(), rule.body().begin(), rule.body().begin() + i);
      // Trivially circular magic rules (m(X) :- m(X), produced by
      // left-linear occurrences) are dropped, as in Fig. 1 of the paper.
      if (body.size() == 1 && body[0] == magic_head) continue;
      out.program.AddRule(Rule(std::move(magic_head), std::move(body)));
    }

    // Modified original rule: guard with the head's magic literal.
    std::vector<Atom> body = {head_magic};
    body.insert(body.end(), rule.body().begin(), rule.body().end());
    out.program.AddRule(Rule(rule.head(), std::move(body)));
  }

  out.program.set_query(out.query);
  return out;
}

}  // namespace factlog::transform
