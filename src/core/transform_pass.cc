#include "core/transform_pass.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <set>
#include <utility>

#include "ast/binding.h"

namespace factlog::core {

const char* StrategyToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kAuto:
      return "auto";
    case Strategy::kMagic:
      return "magic";
    case Strategy::kSupplementaryMagic:
      return "supplementary-magic";
    case Strategy::kFactoring:
      return "factoring";
    case Strategy::kCounting:
      return "counting";
    case Strategy::kLinearRewrite:
      return "linear-rewrite";
  }
  return "unknown";
}

std::optional<Strategy> StrategyFromString(const std::string& name) {
  std::string normalized = name;
  std::replace(normalized.begin(), normalized.end(), '_', '-');
  for (Strategy s :
       {Strategy::kAuto, Strategy::kMagic, Strategy::kSupplementaryMagic,
        Strategy::kFactoring, Strategy::kCounting, Strategy::kLinearRewrite}) {
    if (normalized == StrategyToString(s)) return s;
  }
  return std::nullopt;
}

std::vector<Strategy> AllConcreteStrategies() {
  return {Strategy::kMagic, Strategy::kSupplementaryMagic,
          Strategy::kFactoring, Strategy::kCounting, Strategy::kLinearRewrite};
}

std::string PassTraceEntry::ToString() const {
  std::string out = pass;
  out += halted ? " [halted" : (applied ? " [applied" : " [no-op");
  if (rules_before != rules_after) {
    out += ", " + std::to_string(rules_before) + " -> " +
           std::to_string(rules_after) + " rules";
  } else {
    out += ", " + std::to_string(rules_after) + " rules";
  }
  out += ", " + std::to_string(duration_us) + "us]";
  for (const std::string& note : notes) out += "\n    " + note;
  return out;
}

std::string TraceToString(const std::vector<PassTraceEntry>& trace) {
  std::string out;
  for (const PassTraceEntry& entry : trace) {
    out += entry.ToString();
    out += "\n";
  }
  return out;
}

const ast::Program& TransformState::final_program() const {
  if (optimized.has_value()) return *optimized;
  if (factored.has_value()) return factored->program;
  if (counting.has_value()) return counting->program;
  if (linear.has_value()) return linear->program;
  if (supplementary.has_value()) return supplementary->program;
  if (magic.has_value()) return magic->program;
  return source;
}

const ast::Atom& TransformState::final_query() const {
  if (factored.has_value()) return factored->query;
  if (counting.has_value()) return counting->query;
  if (linear.has_value()) return linear->query;
  if (supplementary.has_value()) return supplementary->query;
  if (magic.has_value()) return magic->query;
  return source_query;
}

Result<bool> RunPasses(const PassSequence& passes, TransformState& state,
                       const RunPassesOptions& opts) {
  for (const std::unique_ptr<Transform>& pass : passes) {
    Status pre = pass->CheckPreconditions(state);
    if (!pre.ok()) {
      return Status(pre.code(),
                    std::string(pass->name()) + ": " + pre.message());
    }
    PassTraceEntry entry;
    entry.pass = pass->name();
    entry.rules_before = state.final_program().rules().size();
    const auto start = std::chrono::steady_clock::now();
    Result<PassOutcome> outcome = pass->Apply(state);
    entry.duration_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    entry.notes = std::move(state.pending_notes);
    state.pending_notes.clear();
    entry.rules_after = state.final_program().rules().size();
    if (!outcome.ok()) {
      state.trace.push_back(std::move(entry));
      return outcome.status();
    }
    entry.applied = (*outcome == PassOutcome::kApplied);
    entry.halted = (*outcome == PassOutcome::kHalt);
    state.trace.push_back(std::move(entry));
    if (state.trace.back().halted) {
      if (opts.halt_is_error) {
        std::string msg = std::string(pass->name()) + " halted compilation";
        if (!state.trace.back().notes.empty()) {
          msg += ": " + state.trace.back().notes.front();
        }
        return Status::FailedPrecondition(std::move(msg));
      }
      return false;
    }
  }
  return true;
}

namespace {

// ---- Normalization helpers (body reordering for a unit adornment) ----------

// Adorns and classifies one (program, query) pair.
struct Attempt {
  analysis::AdornedProgram adorned;
  ProgramClassification classification;
};

Result<Attempt> TryClassify(const ast::Program& program,
                            const ast::Atom& query) {
  Attempt a;
  FACTLOG_ASSIGN_OR_RETURN(a.adorned, analysis::Adorn(program, query));
  FACTLOG_ASSIGN_OR_RETURN(a.classification, ClassifyProgram(a.adorned));
  return a;
}

bool AtomPatternMatches(const ast::Atom& atom,
                        const analysis::Adornment& target,
                        const std::set<std::string>& bound) {
  for (size_t i = 0; i < atom.arity(); ++i) {
    if (ast::GroundUnder(atom.args()[i], bound) != target.IsBound(i)) {
      return false;
    }
  }
  return true;
}

// Searches for a body order under which every occurrence of `pred` receives
// exactly the adornment `target` (left-to-right SIP simulation) and every
// builtin is ready where it stands (ast/binding.h), so Adorn keeps the order
// as found. Returns the reordered body, or nullopt. The paper's
// classification is explicitly "up to ... reordering of predicate instances
// in the body" (§4.1); the as-written order can over-bind an occurrence
// (e.g. t(X,9) on right-linear transitive closure binds W through e(X,W)
// before reaching t(W,Y)).
std::optional<std::vector<ast::Atom>> FindUnitBodyOrder(
    const ast::Rule& rule, const std::string& pred,
    const analysis::Adornment& target) {
  const std::vector<ast::Atom>& body = rule.body();
  if (body.size() > 8) return std::nullopt;  // permutation search bound

  std::set<std::string> initial_bound;
  for (size_t i = 0; i < rule.head().arity(); ++i) {
    if (target.IsBound(i)) ast::AddVars(rule.head().args()[i], &initial_bound);
  }

  std::vector<int> perm(body.size());
  std::iota(perm.begin(), perm.end(), 0);
  do {
    std::set<std::string> bound = initial_bound;
    bool ok = true;
    for (int idx : perm) {
      const ast::Atom& lit = body[idx];
      if (!ast::Ready(lit, bound) ||
          (lit.predicate() == pred &&
           (lit.arity() != target.arity() ||
            !AtomPatternMatches(lit, target, bound)))) {
        ok = false;
        break;
      }
      ast::Bind(lit, &bound);
    }
    if (ok) {
      std::vector<ast::Atom> out;
      out.reserve(body.size());
      for (int idx : perm) out.push_back(body[idx]);
      return out;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return std::nullopt;
}

// Reorders rule bodies of the query predicate so each recursive occurrence
// adorns exactly like the query. Rules with no such order keep their
// original body.
ast::Program ReorderForUnitAdornment(const ast::Program& program,
                                     const ast::Atom& query, bool* changed) {
  analysis::Adornment target = analysis::Adornment::ForQuery(query);
  ast::Program out;
  *changed = false;
  for (const ast::Rule& rule : program.rules()) {
    if (rule.head().predicate() != query.predicate()) {
      out.AddRule(rule);
      continue;
    }
    std::optional<std::vector<ast::Atom>> reordered =
        FindUnitBodyOrder(rule, query.predicate(), target);
    if (reordered.has_value() && *reordered != rule.body()) {
      *changed = true;
      out.AddRule(ast::Rule(rule.head(), std::move(*reordered)));
    } else {
      out.AddRule(rule);
    }
  }
  if (program.query().has_value()) out.set_query(*program.query());
  return out;
}

void NoteShapes(TransformState& state) {
  for (const RuleShape& s : state.classification->shapes) {
    state.Note("rule " + std::to_string(s.rule_index) + ": " +
               RuleShapeKindToString(s.kind) +
               (s.diagnostic.empty() ? "" : " (" + s.diagnostic + ")"));
  }
}

// ---- Concrete passes -------------------------------------------------------

class LintPass : public Transform {
 public:
  explicit LintPass(analysis::LintOptions opts) : opts_(std::move(opts)) {}
  const char* name() const override { return "lint"; }
  Result<PassOutcome> Apply(TransformState& state) override {
    // Lint the program as the user wrote it, with the query attached so the
    // reachability checks (L105/L106) see it.
    ast::Program program = state.source;
    program.set_query(state.source_query);
    analysis::LintReport report = analysis::LintProgram(program, opts_);
    for (const Diagnostic& d : report.diagnostics) state.Note(d.ToString());
    if (report.num_strata > 1) {
      state.Note("stratification: " + std::to_string(report.num_strata) +
                 " strata");
    }
    if (!report.ok()) return DiagnosticsToStatus(report.diagnostics);
    if (report.diagnostics.empty()) return PassOutcome::kSkipped;
    state.diagnostics.insert(state.diagnostics.end(),
                             report.diagnostics.begin(),
                             report.diagnostics.end());
    return PassOutcome::kApplied;
  }

 private:
  analysis::LintOptions opts_;
};

class AdornPass : public Transform {
 public:
  const char* name() const override { return "adorn"; }
  Status CheckPreconditions(const TransformState& state) const override {
    if (state.adorned.has_value()) {
      return Status::FailedPrecondition("program is already adorned");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    FACTLOG_ASSIGN_OR_RETURN(state.adorned,
                             analysis::Adorn(state.source, state.source_query));
    state.Note("adorned query predicate: " +
               state.adorned->query_predicate().Name());
    return PassOutcome::kApplied;
  }
};

class ClassifyPass : public Transform {
 public:
  const char* name() const override { return "classify"; }
  Status CheckPreconditions(const TransformState& state) const override {
    if (!state.adorned.has_value()) {
      return Status::FailedPrecondition("program is not adorned yet");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    FACTLOG_ASSIGN_OR_RETURN(state.classification,
                             ClassifyProgram(*state.adorned));
    NoteShapes(state);
    return PassOutcome::kApplied;
  }
};

class NormalizePass : public Transform {
 public:
  const char* name() const override { return "normalize"; }
  Status CheckPreconditions(const TransformState& state) const override {
    if (!state.classification.has_value()) {
      return Status::FailedPrecondition("program is not classified yet");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    if (state.classification->rlc_stable) return PassOutcome::kSkipped;
    bool applied = false;

    // Retry with body reordering (the §4.1 "reordering of predicate
    // instances").
    bool reordered_changed = false;
    ast::Program reordered = ReorderForUnitAdornment(
        state.source, state.source_query, &reordered_changed);
    if (reordered_changed) {
      auto retry = TryClassify(reordered, state.source_query);
      if (retry.ok() && retry->classification.rlc_stable) {
        state.Note("body literals reordered for a unit adornment");
        state.source = std::move(reordered);
        state.adorned = std::move(retry->adorned);
        state.classification = std::move(retry->classification);
        applied = true;
      }
    }

    // Retry with static argument reduction (Lemmas 5.1/5.2).
    if (!state.classification->rlc_stable) {
      std::vector<int> static_args = FindStaticArguments(
          state.source, state.source_query.predicate(), state.source_query);
      // Candidate position sets, per Lemma 5.2: first the static positions
      // that violate the §4 templates, then all static positions, then each
      // singleton.
      std::vector<std::vector<int>> candidates;
      std::vector<int> violating = FindViolatingStaticArguments(
          state.source, state.source_query.predicate(), state.source_query,
          static_args);
      if (!violating.empty()) candidates.push_back(violating);
      if (!static_args.empty()) candidates.push_back(static_args);
      for (int p : static_args) candidates.push_back({p});
      for (const std::vector<int>& positions : candidates) {
        auto reduced =
            ReduceStaticArguments(state.source, state.source_query.predicate(),
                                  state.source_query, positions);
        if (!reduced.ok()) continue;
        // The reduced program may itself need reordering.
        bool ignored = false;
        ast::Program reduced_reordered = ReorderForUnitAdornment(
            reduced->program, reduced->query, &ignored);
        auto retry = TryClassify(reduced_reordered, reduced->query);
        if (retry.ok() && retry->classification.rlc_stable) {
          state.Note("static argument reduction applied (Lemma 5.1/5.2) on " +
                     std::to_string(positions.size()) + " position(s)");
          state.source = std::move(reduced_reordered);
          state.source_query = reduced->query;
          state.static_reduction_applied = true;
          state.reduced_positions = positions;
          state.adorned = std::move(retry->adorned);
          state.classification = std::move(retry->classification);
          applied = true;
          break;
        }
      }
    }
    if (applied) NoteShapes(state);
    return applied ? PassOutcome::kApplied : PassOutcome::kSkipped;
  }
};

class MagicPass : public Transform {
 public:
  const char* name() const override { return "magic-sets"; }
  Status CheckPreconditions(const TransformState& state) const override {
    if (!state.adorned.has_value()) {
      return Status::FailedPrecondition("program is not adorned yet");
    }
    if (state.magic.has_value()) {
      return Status::FailedPrecondition("Magic Sets already applied");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    FACTLOG_ASSIGN_OR_RETURN(state.magic, transform::MagicSets(*state.adorned));
    state.Note("magic program has " +
               std::to_string(state.magic->program.rules().size()) + " rules");
    return PassOutcome::kApplied;
  }
};

class SupplementaryMagicPass : public Transform {
 public:
  const char* name() const override { return "supplementary-magic"; }
  Status CheckPreconditions(const TransformState& state) const override {
    if (!state.adorned.has_value()) {
      return Status::FailedPrecondition("program is not adorned yet");
    }
    if (state.supplementary.has_value()) {
      return Status::FailedPrecondition("supplementary magic already applied");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    FACTLOG_ASSIGN_OR_RETURN(state.supplementary,
                             transform::SupplementaryMagicSets(*state.adorned));
    state.Note("supplementary magic program has " +
               std::to_string(state.supplementary->program.rules().size()) +
               " rules");
    return PassOutcome::kApplied;
  }
};

class CountingPass : public Transform {
 public:
  const char* name() const override { return "counting"; }
  Status CheckPreconditions(const TransformState& state) const override {
    if (!state.adorned.has_value() || !state.classification.has_value()) {
      return Status::FailedPrecondition(
          "program is not adorned and classified yet");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    FACTLOG_ASSIGN_OR_RETURN(
        state.counting,
        transform::CountingTransform(*state.adorned, *state.classification));
    state.Note("counting predicates: " + state.counting->cnt_name + ", " +
               state.counting->ans_name);
    return PassOutcome::kApplied;
  }
};

class LinearRewritePass : public Transform {
 public:
  const char* name() const override { return "linear-rewrite"; }
  Status CheckPreconditions(const TransformState& state) const override {
    if (!state.adorned.has_value() || !state.classification.has_value()) {
      return Status::FailedPrecondition(
          "program is not adorned and classified yet");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    auto right =
        transform::RewriteRightLinear(*state.adorned, *state.classification);
    if (right.ok()) {
      state.linear = std::move(right).value();
      state.Note("right-linear direct rewriting (§6.3) applied");
      return PassOutcome::kApplied;
    }
    auto left =
        transform::RewriteLeftLinear(*state.adorned, *state.classification);
    if (left.ok()) {
      state.linear = std::move(left).value();
      state.Note("left-linear direct rewriting (§6.3) applied");
      return PassOutcome::kApplied;
    }
    return Status::FailedPrecondition(
        "no direct linear rewriting applies (right-linear: " +
        right.status().message() + "; left-linear: " + left.status().message() +
        ")");
  }
};

class FactorabilityGatePass : public Transform {
 public:
  const char* name() const override { return "factorability"; }
  Status CheckPreconditions(const TransformState& state) const override {
    if (!state.classification.has_value()) {
      return Status::FailedPrecondition("program is not classified yet");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    if (!state.classification->rlc_stable) {
      state.Note("not RLC-stable: " + state.classification->diagnostic);
      return PassOutcome::kHalt;
    }
    FACTLOG_ASSIGN_OR_RETURN(state.factorability,
                             CheckFactorability(*state.classification));
    state.Note(std::string("factorability: ") +
               FactorClassToString(state.factorability->cls));
    if (!state.factorability->factorable()) {
      for (const std::string& f : state.factorability->failures) {
        state.Note("  " + f);
      }
      return PassOutcome::kHalt;
    }
    return PassOutcome::kApplied;
  }
};

class FactoringPass : public Transform {
 public:
  const char* name() const override { return "factoring"; }
  Status CheckPreconditions(const TransformState& state) const override {
    if (!state.magic.has_value() || !state.adorned.has_value()) {
      return Status::FailedPrecondition("Magic program is not available");
    }
    if (!state.factorability.has_value() ||
        !state.factorability->factorable()) {
      return Status::FailedPrecondition(
          "factorability has not been established");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    // Factor p^a into bp(bound args) and fp(free args) in the Magic program
    // (Theorems 4.1-4.3).
    const analysis::AdornedPredicate& ap =
        state.adorned->predicates().begin()->second;
    FactorSplit split;
    split.predicate = ap.Name();
    split.part1 = ap.adornment.BoundPositions();
    split.part2 = ap.adornment.FreePositions();
    split.name1 = "b" + ap.base;
    split.name2 = "f" + ap.base;
    FACTLOG_ASSIGN_OR_RETURN(
        FactoredProgram factored,
        FactorTransform(state.magic->program, state.magic->query, split));
    state.factored = std::move(factored);
    state.factoring_applied = true;
    state.opt_ctx.bp = state.factored->split.name1;
    state.opt_ctx.fp = state.factored->split.name2;
    state.opt_ctx.magic_pred = state.magic->magic_names.at(split.predicate);
    state.opt_ctx.seed_args = state.magic->seed.args();
    state.opt_ctx.query_pred = state.factored->query.predicate();
    state.Note("factored " + split.predicate + " into " +
               state.factored->split.name1 + "(bound) and " +
               state.factored->split.name2 + "(free)");
    return PassOutcome::kApplied;
  }
};

// One §5 cleanup step expressed as a pass over `state.optimized`
// (initialized from the factored program on first use).
class CleanupPass : public Transform {
 public:
  using Fn = std::function<Result<bool>(TransformState&)>;
  CleanupPass(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  const char* name() const override { return name_.c_str(); }
  Status CheckPreconditions(const TransformState& state) const override {
    if (!state.optimized.has_value() && !state.factored.has_value()) {
      return Status::FailedPrecondition("no factored program to clean up");
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    if (!state.optimized.has_value()) {
      state.optimized = state.factored->program;
      state.optimized->set_query(state.factored->query);
    }
    FACTLOG_ASSIGN_OR_RETURN(bool changed, fn_(state));
    return changed ? PassOutcome::kApplied : PassOutcome::kSkipped;
  }

 private:
  std::string name_;
  Fn fn_;
};

class FixpointPass : public Transform {
 public:
  FixpointPass(std::string name, PassSequence children, int max_rounds)
      : name_(std::move(name)),
        children_(std::move(children)),
        max_rounds_(max_rounds) {}
  const char* name() const override { return name_.c_str(); }
  Status CheckPreconditions(const TransformState& state) const override {
    for (const std::unique_ptr<Transform>& child : children_) {
      FACTLOG_RETURN_IF_ERROR(child->CheckPreconditions(state));
    }
    return Status::OK();
  }
  Result<PassOutcome> Apply(TransformState& state) override {
    if (children_.empty()) return PassOutcome::kSkipped;
    // Children are idempotent and deterministic (see MakeFixpointPass), so
    // once every other child has run without a change since child `last`
    // changed the state, running `last` again cannot change it either: the
    // loop stops on coming back round to it. With no change at all, `last`
    // stays 0 and the loop stops after one round.
    const size_t n = children_.size();
    const size_t max_runs = n * static_cast<size_t>(max_rounds_);
    bool any = false;
    size_t last = 0;
    size_t k = 0;
    size_t runs = 0;
    do {
      const std::unique_ptr<Transform>& child = children_[k];
      FACTLOG_RETURN_IF_ERROR(child->CheckPreconditions(state));
      FACTLOG_ASSIGN_OR_RETURN(PassOutcome outcome, child->Apply(state));
      if (outcome == PassOutcome::kApplied) {
        any = true;
        last = k;
      }
      k = (k + 1) % n;
      ++runs;
    } while (k != last && runs < max_runs);
    state.Note("fixpoint after " + std::to_string(runs) + " pass run(s)");
    return any ? PassOutcome::kApplied : PassOutcome::kSkipped;
  }

 private:
  std::string name_;
  PassSequence children_;
  int max_rounds_;
};

}  // namespace

std::unique_ptr<Transform> MakeAdornPass() {
  return std::make_unique<AdornPass>();
}
std::unique_ptr<Transform> MakeClassifyPass() {
  return std::make_unique<ClassifyPass>();
}
std::unique_ptr<Transform> MakeNormalizePass() {
  return std::make_unique<NormalizePass>();
}
std::unique_ptr<Transform> MakeMagicPass() {
  return std::make_unique<MagicPass>();
}
std::unique_ptr<Transform> MakeSupplementaryMagicPass() {
  return std::make_unique<SupplementaryMagicPass>();
}
std::unique_ptr<Transform> MakeCountingPass() {
  return std::make_unique<CountingPass>();
}
std::unique_ptr<Transform> MakeLinearRewritePass() {
  return std::make_unique<LinearRewritePass>();
}
std::unique_ptr<Transform> MakeFactorabilityGatePass() {
  return std::make_unique<FactorabilityGatePass>();
}
std::unique_ptr<Transform> MakeFactoringPass() {
  return std::make_unique<FactoringPass>();
}

std::unique_ptr<Transform> MakeHeadInBodyPass() {
  return std::make_unique<CleanupPass>(
      "prop-5.4-head-in-body", [](TransformState& s) -> Result<bool> {
        return DeleteHeadInBodyRules(&*s.optimized);
      });
}
std::unique_ptr<Transform> MakeSubsumedMagicPass() {
  return std::make_unique<CleanupPass>(
      "prop-5.1-subsumed-magic", [](TransformState& s) -> Result<bool> {
        return DeleteSubsumedMagicLiterals(&*s.optimized, s.opt_ctx);
      });
}
std::unique_ptr<Transform> MakeAnonymizePass() {
  return std::make_unique<CleanupPass>(
      "prop-5.5-anonymize", [](TransformState& s) -> Result<bool> {
        return AnonymizeSingletonVariables(&*s.optimized);
      });
}
std::unique_ptr<Transform> MakeAnonymousFactorPass() {
  return std::make_unique<CleanupPass>(
      "prop-5.2-anonymous-factor", [](TransformState& s) -> Result<bool> {
        return DeleteAnonymousFactorLiterals(&*s.optimized, s.opt_ctx);
      });
}
std::unique_ptr<Transform> MakeSeedFactorPass() {
  return std::make_unique<CleanupPass>(
      "prop-5.3-seed-factor", [](TransformState& s) -> Result<bool> {
        return DeleteSeedFactorLiterals(&*s.optimized, s.opt_ctx);
      });
}
std::unique_ptr<Transform> MakeDuplicateRulePass() {
  return std::make_unique<CleanupPass>(
      "dedup-rules", [](TransformState& s) -> Result<bool> {
        return DeleteDuplicateRules(&*s.optimized);
      });
}
std::unique_ptr<Transform> MakeUnreachablePass() {
  return std::make_unique<CleanupPass>(
      "prop-5.4-unreachable", [](TransformState& s) -> Result<bool> {
        if (s.opt_ctx.query_pred.empty()) return false;
        return DeleteUnreachableRules(&*s.optimized, s.opt_ctx.query_pred);
      });
}
std::unique_ptr<Transform> MakeUniformEquivalencePass(OptimizeOptions opts) {
  return std::make_unique<CleanupPass>(
      "uniform-equivalence", [opts](TransformState& s) -> Result<bool> {
        UeCounters counters;
        FACTLOG_ASSIGN_OR_RETURN(
            bool changed,
            DeleteUniformlyRedundantRules(&*s.optimized, opts, &counters));
        s.Note("uniform-equivalence: " + std::to_string(counters.chases) +
               " chases, " + std::to_string(counters.skipped) +
               " skipped by pre-check");
        return changed;
      });
}

namespace {

class JoinPlanPass : public Transform {
 public:
  explicit JoinPlanPass(plan::PlanOptions opts) : opts_(std::move(opts)) {}
  const char* name() const override { return "join-plan"; }
  Result<PassOutcome> Apply(TransformState& state) override {
    const ast::Program& program = state.final_program();
    state.plans = plan::PlanProgram(program, opts_);
    for (size_t i = 0; i < state.plans->rules.size(); ++i) {
      const plan::JoinPlan& jp = state.plans->rules[i];
      if (jp.order.empty()) continue;  // facts need no plan
      state.Note("rule " + std::to_string(i) + ": " + jp.Summary() +
                 (jp.reordered ? " (reordered)" : ""));
    }
    return PassOutcome::kApplied;
  }

 private:
  plan::PlanOptions opts_;
};

}  // namespace

std::unique_ptr<Transform> MakeLintPass(analysis::LintOptions opts) {
  return std::make_unique<LintPass>(std::move(opts));
}

std::unique_ptr<Transform> MakeJoinPlanPass(plan::PlanOptions opts) {
  return std::make_unique<JoinPlanPass>(std::move(opts));
}

std::unique_ptr<Transform> MakeFixpointPass(PassSequence children,
                                            int max_rounds) {
  return std::make_unique<FixpointPass>("fixpoint", std::move(children),
                                        max_rounds);
}

std::unique_ptr<Transform> MakeSectionFiveFixpointPass(
    const OptimizeOptions& opts) {
  // The child order reproduces the paper's final programs verbatim; every
  // child is idempotent and deterministic, as the fixpoint requires.
  PassSequence children;
  children.push_back(MakeHeadInBodyPass());
  children.push_back(MakeSubsumedMagicPass());
  children.push_back(MakeAnonymizePass());
  children.push_back(MakeAnonymousFactorPass());
  children.push_back(MakeSeedFactorPass());
  children.push_back(MakeDuplicateRulePass());
  children.push_back(MakeUnreachablePass());
  if (opts.apply_uniform_equivalence) {
    children.push_back(MakeUniformEquivalencePass(opts));
  }
  return std::make_unique<FixpointPass>("section-5-cleanups",
                                        std::move(children), 100);
}

}  // namespace factlog::core
