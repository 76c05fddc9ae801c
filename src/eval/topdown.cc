#include "eval/topdown.h"

#include <set>

#include "ast/special_predicates.h"
#include "ast/substitution.h"
#include "ast/unify.h"

namespace factlog::eval {

namespace {

using ast::Atom;
using ast::Program;
using ast::Rule;
using ast::Substitution;
using ast::Term;

// All-answers SLD resolution in the Prolog box model. A goal is solved by
// collecting every answer substitution; an answer produced by a subgoal is
// *delivered* to its calling frame, and each delivery counts as an
// inference. This reproduces the cost model behind Example 1.2's O(n^2)
// claim: the answer x_i to pmem(X, [x_i..x_n]) exits through every enclosing
// pmem frame, computing the facts pmem(x_i, [x_j..x_n]) for all j <= i.
class SldEngine {
 public:
  SldEngine(const Program& program, const Atom& query, Database* db,
            const SldOptions& opts)
      : program_(program), query_(query), db_(db), opts_(opts) {
    gen_.ReserveFrom(program);
    for (const std::string& v : query.DistinctVars()) gen_.Reserve(v);
    idb_preds_ = program.IdbPredicates();
  }

  Result<AnswerSet> Run() {
    AnswerSet answers;
    answers.vars = query_.DistinctVars();
    Substitution empty;
    FACTLOG_ASSIGN_OR_RETURN(std::vector<Substitution> solutions,
                             SolveGoal(query_, empty, 0));
    std::vector<ValueId> cells;  // one row of answers.vars per solution
    cells.reserve(solutions.size() * answers.vars.size());
    for (const Substitution& s : solutions) {
      for (const std::string& v : answers.vars) {
        Term t = s.DeepApply(Term::Var(v));
        if (!t.IsGround()) {
          return Status::Invalid("non-ground answer for variable " + v);
        }
        FACTLOG_ASSIGN_OR_RETURN(ValueId id, db_->store().FromTerm(t));
        cells.push_back(id);
      }
    }
    answers.rows =
        SortedUniqueRows(cells, answers.vars.size(), solutions.size());
    return answers;
  }

  const SldStats& stats() const { return stats_; }

 private:
  Status Budget(size_t depth) {
    if (stats_.inferences > opts_.max_inferences) {
      return Status::ResourceExhausted(
          "SLD inference budget exceeded; query may not terminate top-down");
    }
    if (depth > opts_.max_depth) {
      return Status::ResourceExhausted("SLD depth budget exceeded");
    }
    return Status::OK();
  }

  // Solves a single goal under `subst`, returning one substitution per
  // answer (duplicates preserved, as in Prolog).
  Result<std::vector<Substitution>> SolveGoal(const Atom& goal_in,
                                              const Substitution& subst,
                                              size_t depth) {
    FACTLOG_RETURN_IF_ERROR(Budget(depth));
    ++stats_.goals_invoked;
    Atom goal = subst.DeepApply(goal_in);

    if (goal.predicate() == ast::kEqualPredicate && goal.arity() == 2) {
      Substitution next = subst;
      if (ast::Unify(goal.args()[0], goal.args()[1], &next)) {
        ++stats_.inferences;
        return std::vector<Substitution>{std::move(next)};
      }
      return std::vector<Substitution>{};
    }
    if (goal.predicate() == ast::kAffinePredicate && goal.arity() == 4) {
      return SolveAffine(goal, subst);
    }
    if (goal.predicate() == ast::kGeqPredicate && goal.arity() == 2) {
      const Term& lhs = goal.args()[0];
      const Term& rhs = goal.args()[1];
      if (lhs.kind() != Term::Kind::kInt || rhs.kind() != Term::Kind::kInt) {
        return Status::Invalid("geq/2 requires bound integer arguments");
      }
      if (lhs.int_value() >= rhs.int_value()) {
        ++stats_.inferences;
        return std::vector<Substitution>{subst};
      }
      return std::vector<Substitution>{};
    }
    if (idb_preds_.count(goal.predicate()) == 0) {
      return SolveEdb(goal, subst);
    }

    // Tabling: memoize success of fully ground IDB goals and cut loops.
    if (opts_.tabling && goal.IsGround()) {
      auto memo = table_.find(goal);
      if (memo != table_.end()) {
        ++stats_.table_hits;
        if (memo->second) {
          ++stats_.inferences;
          return std::vector<Substitution>{subst};
        }
        return std::vector<Substitution>{};
      }
      if (in_progress_.count(goal) > 0) {
        return std::vector<Substitution>{};  // loop check
      }
      in_progress_.insert(goal);
      Result<std::vector<Substitution>> result = SolveIdb(goal, subst, depth);
      in_progress_.erase(goal);
      if (!result.ok()) return result;
      table_.emplace(goal, !result->empty());
      if (!result->empty()) {
        // A ground goal binds nothing new; deliver one success.
        return std::vector<Substitution>{subst};
      }
      return std::vector<Substitution>{};
    }

    return SolveIdb(goal, subst, depth);
  }

  Result<std::vector<Substitution>> SolveIdb(const Atom& goal,
                                             const Substitution& subst,
                                             size_t depth) {
    std::vector<Substitution> answers;
    for (const Rule* rule : program_.RulesFor(goal.predicate())) {
      Rule renamed = ast::RenameApart(*rule, &gen_);
      Substitution call = subst;
      if (!ast::UnifyAtoms(goal, renamed.head(), &call)) continue;
      ++stats_.inferences;  // call port
      FACTLOG_ASSIGN_OR_RETURN(std::vector<Substitution> body_answers,
                               SolveBody(renamed.body(), call, depth + 1));
      for (Substitution& a : body_answers) {
        ++stats_.inferences;  // exit port: the answer is delivered here
        answers.push_back(std::move(a));
        FACTLOG_RETURN_IF_ERROR(Budget(depth));
      }
    }
    return answers;
  }

  // Solves a conjunction left-to-right.
  Result<std::vector<Substitution>> SolveBody(const std::vector<Atom>& body,
                                              const Substitution& subst,
                                              size_t depth) {
    std::vector<Substitution> frontier = {subst};
    for (const Atom& lit : body) {
      std::vector<Substitution> next;
      for (const Substitution& s : frontier) {
        FACTLOG_ASSIGN_OR_RETURN(std::vector<Substitution> sols,
                                 SolveGoal(lit, s, depth));
        for (Substitution& a : sols) next.push_back(std::move(a));
      }
      frontier = std::move(next);
      if (frontier.empty()) break;
    }
    return frontier;
  }

  Result<std::vector<Substitution>> SolveAffine(const Atom& goal,
                                                const Substitution& subst) {
    const Term& a_t = goal.args()[1];
    const Term& b_t = goal.args()[2];
    if (a_t.kind() != Term::Kind::kInt || b_t.kind() != Term::Kind::kInt) {
      return Status::Invalid("affine/4 requires integer coefficients");
    }
    int64_t a = a_t.int_value();
    int64_t b = b_t.int_value();
    const Term& x_t = goal.args()[0];
    const Term& z_t = goal.args()[3];
    Substitution next = subst;
    if (x_t.kind() == Term::Kind::kInt) {
      if (ast::Unify(z_t, Term::Int(a * x_t.int_value() + b), &next)) {
        ++stats_.inferences;
        return std::vector<Substitution>{std::move(next)};
      }
      return std::vector<Substitution>{};
    }
    if (z_t.kind() == Term::Kind::kInt && a != 0) {
      int64_t diff = z_t.int_value() - b;
      if (diff % a == 0 && ast::Unify(x_t, Term::Int(diff / a), &next)) {
        ++stats_.inferences;
        return std::vector<Substitution>{std::move(next)};
      }
      return std::vector<Substitution>{};
    }
    return Status::Invalid("affine/4 with both X and Z unbound");
  }

  Result<std::vector<Substitution>> SolveEdb(const Atom& goal,
                                             const Substitution& subst) {
    std::vector<Substitution> answers;
    Relation* rel = db_->Find(goal.predicate());
    if (rel == nullptr) return answers;
    if (rel->arity() != goal.arity()) {
      return Status::Invalid("arity mismatch on EDB predicate " +
                             goal.predicate());
    }
    // Index on ground argument positions.
    std::vector<int> cols;
    std::vector<ValueId> key;
    for (size_t i = 0; i < goal.arity(); ++i) {
      if (goal.args()[i].IsGround()) {
        FACTLOG_ASSIGN_OR_RETURN(ValueId v,
                                 db_->store().FromTerm(goal.args()[i]));
        cols.push_back(static_cast<int>(i));
        key.push_back(v);
      }
    }
    auto try_row = [&](const ValueId* row) {
      Substitution next = subst;
      for (size_t i = 0; i < goal.arity(); ++i) {
        Term t = db_->store().ToTerm(row[i]);
        if (!ast::Unify(goal.args()[i], t, &next)) return;
      }
      ++stats_.inferences;
      answers.push_back(std::move(next));
    };
    if (cols.size() == goal.arity()) {
      if (rel->Contains(key.data())) try_row(key.data());
    } else if (cols.empty()) {
      for (size_t r = 0; r < rel->size(); ++r) try_row(rel->row(r));
    } else {
      for (uint32_t r : rel->Lookup(cols, key)) try_row(rel->row(r));
    }
    return answers;
  }

  const Program& program_;
  const Atom& query_;
  Database* db_;
  SldOptions opts_;
  ast::FreshVarGen gen_{"_R"};
  SldStats stats_;
  std::set<std::string> idb_preds_;
  std::map<Atom, bool> table_;
  std::set<Atom> in_progress_;
};

}  // namespace

Result<AnswerSet> SolveTopDown(const ast::Program& program,
                               const ast::Atom& query, Database* db,
                               const SldOptions& opts, SldStats* stats_out) {
  SldEngine engine(program, query, db, opts);
  Result<AnswerSet> result = engine.Run();
  if (stats_out != nullptr) *stats_out = engine.stats();
  return result;
}

}  // namespace factlog::eval
