#include "transform/counting.h"

#include <set>

#include "ast/binding.h"
#include "ast/special_predicates.h"

namespace factlog::transform {

namespace {

using ast::Atom;
using ast::ProjectArgs;
using ast::Rule;
using ast::Term;
using ast::VarsAt;
using ast::VarsWithin;

Atom Affine(const std::string& x, int64_t a, int64_t b, const std::string& z) {
  return Atom(ast::kAffinePredicate,
              {Term::Var(x), Term::Int(a), Term::Int(b), Term::Var(z)});
}

Atom Geq(const std::string& x, int64_t c) {
  return Atom(ast::kGeqPredicate, {Term::Var(x), Term::Int(c)});
}

}  // namespace

Result<CountingProgram> CountingTransform(
    const analysis::AdornedProgram& adorned,
    const core::ProgramClassification& classification) {
  if (!classification.unit_program) {
    return Status::FailedPrecondition("Counting requires a unit program");
  }
  // An all-bound or all-free adornment leaves the rules unclassified.
  if (classification.shapes.size() != adorned.program().rules().size()) {
    return Status::FailedPrecondition("Counting requires classified rules: " +
                                      classification.diagnostic);
  }
  const std::string& pred = classification.predicate;
  const analysis::Adornment& adn = classification.adornment;
  std::vector<int> bound_pos = adn.BoundPositions();
  std::vector<int> free_pos = adn.FreePositions();

  // Count the recursive rules and check linearity.
  int k = 0;
  for (const core::RuleShape& s : classification.shapes) {
    if (s.kind == core::RuleShape::Kind::kExit) continue;
    if (s.kind == core::RuleShape::Kind::kCombined ||
        s.occurrences.size() != 1) {
      return Status::FailedPrecondition(
          "Counting (as presented in §6.4) requires linear rules; rule " +
          std::to_string(s.rule_index) + " is " +
          core::RuleShapeKindToString(s.kind));
    }
    if (s.kind != core::RuleShape::Kind::kRightLinear &&
        s.kind != core::RuleShape::Kind::kLeftLinear) {
      return Status::FailedPrecondition(
          "rule " + std::to_string(s.rule_index) +
          " is not left- or right-linear: " + s.diagnostic);
    }
    ++k;
  }

  CountingProgram out;
  out.cnt_name = "cnt_" + pred;
  out.ans_name = pred + "_cnt";
  out.query_name = "query";

  const auto& rules = adorned.program().rules();

  // Seed: cnt_p(query bound args, 0, 0).
  {
    std::vector<Term> args = ProjectArgs(adorned.query(), bound_pos);
    args.push_back(Term::Int(0));
    args.push_back(Term::Int(0));
    out.program.AddRule(Rule(Atom(out.cnt_name, std::move(args)), {}));
  }

  int rec_index = 0;  // 1-based index i of the recursive rule
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    const core::RuleShape& shape = classification.shapes[r];
    std::set<std::string> head_free_vars = VarsAt(rule.head(), free_pos);
    std::set<std::string> head_bound_vars = VarsAt(rule.head(), bound_pos);

    if (shape.kind == core::RuleShape::Kind::kExit) {
      // p_cnt(Y, I, J) :- cnt_p(X, I, J), exit(X, Y).
      std::vector<Term> cnt_args = ProjectArgs(rule.head(), bound_pos);
      cnt_args.push_back(Term::Var("I"));
      cnt_args.push_back(Term::Var("J"));
      std::vector<Atom> body = {Atom(out.cnt_name, std::move(cnt_args))};
      body.insert(body.end(), rule.body().begin(), rule.body().end());
      std::vector<Term> ans_args = ProjectArgs(rule.head(), free_pos);
      ans_args.push_back(Term::Var("I"));
      ans_args.push_back(Term::Var("J"));
      out.program.AddRule(
          Rule(Atom(out.ans_name, std::move(ans_args)), std::move(body)));
      continue;
    }

    ++rec_index;
    const Atom& occ = rule.body()[shape.occurrences[0].body_index];

    if (shape.kind == core::RuleShape::Kind::kRightLinear) {
      // Goal rule: cnt_p(V, I+1, k*J+i) :- cnt_p(X, I, J), first(X, V).
      // "first" = the EDB atoms not entirely over the head's free variables.
      std::vector<Term> head_cnt = ProjectArgs(rule.head(), bound_pos);
      head_cnt.push_back(Term::Var("I"));
      head_cnt.push_back(Term::Var("J"));
      std::vector<Atom> goal_body = {Atom(out.cnt_name, head_cnt)};
      std::vector<Atom> right_atoms;
      for (size_t b = 0; b < rule.body().size(); ++b) {
        if (static_cast<int>(b) == shape.occurrences[0].body_index) continue;
        if (VarsWithin(rule.body()[b], head_free_vars)) {
          right_atoms.push_back(rule.body()[b]);
        } else {
          goal_body.push_back(rule.body()[b]);
        }
      }
      std::vector<Term> occ_cnt = ProjectArgs(occ, bound_pos);
      occ_cnt.push_back(Term::Var("I2"));
      occ_cnt.push_back(Term::Var("J2"));
      std::vector<Atom> goal_body_full = goal_body;
      goal_body_full.push_back(Affine("I", 1, 1, "I2"));
      goal_body_full.push_back(Affine("J", k, rec_index, "J2"));
      out.program.AddRule(
          Rule(Atom(out.cnt_name, occ_cnt), std::move(goal_body_full)));

      // Answer rule: p_cnt(Y, I, J) :- p_cnt(Y, I+1, k*J+i), right(Y).
      std::vector<Term> occ_ans = ProjectArgs(occ, free_pos);
      occ_ans.push_back(Term::Var("I2"));
      occ_ans.push_back(Term::Var("J2"));
      std::vector<Atom> ans_body = {Atom(out.ans_name, std::move(occ_ans))};
      ans_body.insert(ans_body.end(), right_atoms.begin(), right_atoms.end());
      ans_body.push_back(Affine("I", 1, 1, "I2"));
      ans_body.push_back(Affine("J", k, rec_index, "J2"));
      // Indices encode derivation depth and never go negative.
      ans_body.push_back(Geq("I", 0));
      ans_body.push_back(Geq("J", 0));
      std::vector<Term> head_ans = ProjectArgs(rule.head(), free_pos);
      head_ans.push_back(Term::Var("I"));
      head_ans.push_back(Term::Var("J"));
      out.program.AddRule(
          Rule(Atom(out.ans_name, std::move(head_ans)), std::move(ans_body)));
      continue;
    }

    // Left-linear rule.
    // Goal rule: cnt_p(X, I+1, k*J+i) :- cnt_p(X, I, J), left(X).
    // This is the rule whose fixpoint evaluation does not terminate (§6.4).
    std::vector<Term> head_cnt = ProjectArgs(rule.head(), bound_pos);
    head_cnt.push_back(Term::Var("I"));
    head_cnt.push_back(Term::Var("J"));
    std::vector<Atom> left_atoms, last_atoms;
    for (size_t b = 0; b < rule.body().size(); ++b) {
      if (static_cast<int>(b) == shape.occurrences[0].body_index) continue;
      if (VarsWithin(rule.body()[b], head_bound_vars)) {
        left_atoms.push_back(rule.body()[b]);
      } else {
        last_atoms.push_back(rule.body()[b]);
      }
    }
    std::vector<Term> occ_cnt = ProjectArgs(occ, bound_pos);
    occ_cnt.push_back(Term::Var("I2"));
    occ_cnt.push_back(Term::Var("J2"));
    std::vector<Atom> goal_body = {Atom(out.cnt_name, head_cnt)};
    goal_body.insert(goal_body.end(), left_atoms.begin(), left_atoms.end());
    goal_body.push_back(Affine("I", 1, 1, "I2"));
    goal_body.push_back(Affine("J", k, rec_index, "J2"));
    out.program.AddRule(
        Rule(Atom(out.cnt_name, std::move(occ_cnt)), std::move(goal_body)));

    // Answer rule: p_cnt(Y, I, J) :- p_cnt(U, I+1, k*J+i), last(U, Y), left(X)?
    // The left conjunction constrains goals, not answers; it is not
    // repeated here (its variables are not visible).
    std::vector<Term> occ_ans = ProjectArgs(occ, free_pos);
    occ_ans.push_back(Term::Var("I2"));
    occ_ans.push_back(Term::Var("J2"));
    std::vector<Atom> ans_body = {Atom(out.ans_name, std::move(occ_ans))};
    ans_body.insert(ans_body.end(), last_atoms.begin(), last_atoms.end());
    ans_body.push_back(Affine("I", 1, 1, "I2"));
    ans_body.push_back(Affine("J", k, rec_index, "J2"));
    ans_body.push_back(Geq("I", 0));
    ans_body.push_back(Geq("J", 0));
    std::vector<Term> head_ans = ProjectArgs(rule.head(), free_pos);
    head_ans.push_back(Term::Var("I"));
    head_ans.push_back(Term::Var("J"));
    out.program.AddRule(
        Rule(Atom(out.ans_name, std::move(head_ans)), std::move(ans_body)));
  }

  // Query rule: query(vars) :- p_cnt(query free args, 0, 0).
  std::vector<Term> q_args = ProjectArgs(adorned.query(), free_pos);
  q_args.push_back(Term::Int(0));
  q_args.push_back(Term::Int(0));
  std::vector<Term> q_vars;
  for (const std::string& v : adorned.query().DistinctVars()) {
    q_vars.push_back(Term::Var(v));
  }
  Atom q_head(out.query_name, q_vars);
  out.program.AddRule(Rule(q_head, {Atom(out.ans_name, std::move(q_args))}));
  out.query = q_head;
  out.program.set_query(out.query);
  return out;
}

ast::Program DeleteIndexFields(const CountingProgram& counting) {
  auto strip = [&](const Atom& a) -> std::optional<Atom> {
    if (a.predicate() == ast::kAffinePredicate ||
        a.predicate() == ast::kGeqPredicate) {
      return std::nullopt;
    }
    if (a.predicate() == counting.cnt_name ||
        a.predicate() == counting.ans_name) {
      std::vector<Term> args(a.args().begin(), a.args().end() - 2);
      return Atom(a.predicate(), std::move(args));
    }
    return a;
  };
  ast::Program out;
  for (const Rule& r : counting.program.rules()) {
    std::optional<Atom> head = strip(r.head());
    if (!head.has_value()) continue;
    std::vector<Atom> body;
    for (const Atom& b : r.body()) {
      std::optional<Atom> sb = strip(b);
      if (sb.has_value()) body.push_back(std::move(*sb));
    }
    out.AddRule(Rule(std::move(*head), std::move(body)));
  }
  if (counting.program.query().has_value()) {
    out.set_query(*counting.program.query());
  }
  return out;
}

}  // namespace factlog::transform
