#include "eval/rule_eval.h"

#include <algorithm>
#include <map>

#include "ast/special_predicates.h"

namespace factlog::eval {

namespace {

Result<Pat> CompileTerm(const ast::Term& t, std::map<std::string, int>* vars,
                        std::vector<std::string>* var_names,
                        ValueStore* store) {
  Pat p;
  switch (t.kind()) {
    case ast::Term::Kind::kVariable: {
      p.kind = Pat::Kind::kVar;
      auto [it, inserted] =
          vars->emplace(t.var_name(), static_cast<int>(var_names->size()));
      if (inserted) var_names->push_back(t.var_name());
      p.var = it->second;
      return p;
    }
    case ast::Term::Kind::kInt:
      p.kind = Pat::Kind::kConst;
      p.const_id = store->InternInt(t.int_value());
      return p;
    case ast::Term::Kind::kSymbol:
      p.kind = Pat::Kind::kConst;
      p.const_id = store->InternSym(t.symbol());
      return p;
    case ast::Term::Kind::kCompound: {
      // A ground compound compiles to a constant; otherwise to an kApp
      // pattern that destructures at match time.
      if (t.IsGround()) {
        FACTLOG_ASSIGN_OR_RETURN(ValueId v, store->FromTerm(t));
        p.kind = Pat::Kind::kConst;
        p.const_id = v;
        return p;
      }
      p.kind = Pat::Kind::kApp;
      p.functor = t.symbol();
      p.children.reserve(t.args().size());
      for (const ast::Term& a : t.args()) {
        FACTLOG_ASSIGN_OR_RETURN(Pat c, CompileTerm(a, vars, var_names, store));
        p.children.push_back(std::move(c));
      }
      return p;
    }
  }
  return Status::Internal("unknown term kind");
}

Result<CompiledAtom> CompileAtom(const ast::Atom& a,
                                 std::map<std::string, int>* vars,
                                 std::vector<std::string>* var_names,
                                 ValueStore* store) {
  CompiledAtom out;
  out.predicate = a.predicate();
  if (a.predicate() == ast::kEqualPredicate) {
    if (a.arity() != 2) {
      return Status::Invalid("equal/2 used with arity " +
                             std::to_string(a.arity()));
    }
    out.kind = LitKind::kEqual;
  } else if (a.predicate() == ast::kAffinePredicate) {
    if (a.arity() != 4) {
      return Status::Invalid("affine/4 used with arity " +
                             std::to_string(a.arity()));
    }
    out.kind = LitKind::kAffine;
  } else if (a.predicate() == ast::kGeqPredicate) {
    if (a.arity() != 2) {
      return Status::Invalid("geq/2 used with arity " +
                             std::to_string(a.arity()));
    }
    out.kind = LitKind::kGeq;
  } else {
    out.kind = LitKind::kRelation;
  }
  out.args.reserve(a.arity());
  for (const ast::Term& t : a.args()) {
    FACTLOG_ASSIGN_OR_RETURN(Pat p, CompileTerm(t, vars, var_names, store));
    out.args.push_back(std::move(p));
  }
  return out;
}

}  // namespace

Result<CompiledRule> CompiledRule::Compile(const ast::Rule& rule,
                                           ValueStore* store,
                                           const plan::JoinPlan* plan) {
  CompiledRule out;
  out.source_ = rule;
  // The compiled body order: the plan's join order when one is given (and
  // structurally matches), source order otherwise.
  out.source_pos_.reserve(rule.body().size());
  if (plan != nullptr && plan->order.size() == rule.body().size()) {
    std::vector<bool> seen(rule.body().size(), false);
    for (const plan::LiteralPlan& lp : plan->order) {
      if (lp.body_index >= rule.body().size() || seen[lp.body_index]) {
        out.source_pos_.clear();
        break;
      }
      seen[lp.body_index] = true;
      out.source_pos_.push_back(lp.body_index);
    }
  }
  if (out.source_pos_.size() != rule.body().size()) {
    out.source_pos_.clear();
    for (size_t i = 0; i < rule.body().size(); ++i) out.source_pos_.push_back(i);
  }
  std::map<std::string, int> vars;
  // Compile the body first so variable indices follow binding order; the
  // head only reuses body variables in range-restricted rules.
  for (size_t src : out.source_pos_) {
    FACTLOG_ASSIGN_OR_RETURN(
        CompiledAtom ca,
        CompileAtom(rule.body()[src], &vars, &out.var_names_, store));
    out.body_.push_back(std::move(ca));
  }
  FACTLOG_ASSIGN_OR_RETURN(
      out.head_, CompileAtom(rule.head(), &vars, &out.var_names_, store));
  // Premises are reported in source order: collect the relation literals'
  // compiled indices and sort them by their source position.
  for (size_t k = 0; k < out.body_.size(); ++k) {
    if (out.body_[k].kind == LitKind::kRelation) out.premise_order_.push_back(k);
  }
  std::sort(out.premise_order_.begin(), out.premise_order_.end(),
            [&out](size_t a, size_t b) {
              return out.source_pos_[a] < out.source_pos_[b];
            });
  return out;
}

namespace {

// Mutable join state shared by the recursive enumeration.
struct JoinContext {
  const CompiledRule* rule;
  ValueStore* store;
  const std::vector<RelationView>* views;
  bool track_premises;
  JoinStats* stats;
  const HeadSink* sink;

  std::vector<ValueId> env;       // var index -> value or kInvalidValue
  std::vector<int> trail;         // bound var indices, for unwinding
  // Premise tracking: the current row of each relation literal, indexed by
  // compiled body position (valid for the literals on the active join path),
  // and the source-ordered premise list handed to the sink.
  std::vector<FactKey> premise_slots;
  std::vector<FactKey> premises;
  Status status = Status::OK();
  bool keep_going = true;

  // Reused across instantiations so the inner loop does not allocate per
  // row: the head row under construction, and per-literal probe key buffers.
  std::vector<ValueId> head_row;
  std::vector<std::vector<int>> cols_scratch;
  std::vector<std::vector<ValueId>> key_scratch;
};

// Attempts to fully evaluate `p` under the current environment.
std::optional<ValueId> TryBuild(const Pat& p, JoinContext* ctx) {
  switch (p.kind) {
    case Pat::Kind::kConst:
      return p.const_id;
    case Pat::Kind::kVar: {
      ValueId v = ctx->env[p.var];
      if (v == kInvalidValue) return std::nullopt;
      return v;
    }
    case Pat::Kind::kApp: {
      std::vector<ValueId> children;
      children.reserve(p.children.size());
      for (const Pat& c : p.children) {
        std::optional<ValueId> v = TryBuild(c, ctx);
        if (!v.has_value()) return std::nullopt;
        children.push_back(*v);
      }
      return ctx->store->InternApp(p.functor, std::move(children));
    }
  }
  return std::nullopt;
}

// Matches value `v` against pattern `p`, binding variables (recorded on the
// trail). Returns false on mismatch; the caller unwinds the trail.
bool MatchPat(const Pat& p, ValueId v, JoinContext* ctx) {
  switch (p.kind) {
    case Pat::Kind::kConst:
      return p.const_id == v;
    case Pat::Kind::kVar: {
      ValueId cur = ctx->env[p.var];
      if (cur != kInvalidValue) return cur == v;
      ctx->env[p.var] = v;
      ctx->trail.push_back(p.var);
      return true;
    }
    case Pat::Kind::kApp: {
      const ValueStore& s = *ctx->store;
      if (!s.IsCompound(v)) return false;
      if (s.symbol(v) != p.functor) return false;
      if (s.NumChildren(v) != p.children.size()) return false;
      for (size_t i = 0; i < p.children.size(); ++i) {
        if (!MatchPat(p.children[i], s.Child(v, i), ctx)) return false;
      }
      return true;
    }
  }
  return false;
}

void UnwindTrail(JoinContext* ctx, size_t mark) {
  while (ctx->trail.size() > mark) {
    ctx->env[ctx->trail.back()] = kInvalidValue;
    ctx->trail.pop_back();
  }
}

void EnumerateFrom(size_t lit_index, JoinContext* ctx);

void EmitHead(JoinContext* ctx) {
  const CompiledAtom& head = ctx->rule->head();
  std::vector<ValueId>& row = ctx->head_row;
  row.clear();
  for (const Pat& p : head.args) {
    std::optional<ValueId> v = TryBuild(p, ctx);
    if (!v.has_value()) {
      ctx->status = Status::Internal(
          "unbound variable while constructing head of rule: " +
          ctx->rule->source().ToString());
      ctx->keep_going = false;
      return;
    }
    row.push_back(*v);
  }
  ++ctx->stats->instantiations;
  const std::vector<FactKey>* premises = nullptr;
  if (ctx->track_premises) {
    // Emit premises in source body order (the compiled body may be a
    // planned permutation).
    ctx->premises.clear();
    for (size_t k : ctx->rule->premise_order()) {
      ctx->premises.push_back(ctx->premise_slots[k]);
    }
    premises = &ctx->premises;
  }
  bool cont = (*ctx->sink)(row, premises);
  if (!cont) ctx->keep_going = false;
}

void EnumerateBuiltinEqual(size_t lit_index, const CompiledAtom& lit,
                           JoinContext* ctx) {
  std::optional<ValueId> lhs = TryBuild(lit.args[0], ctx);
  std::optional<ValueId> rhs = TryBuild(lit.args[1], ctx);
  size_t mark = ctx->trail.size();
  bool ok;
  if (lhs.has_value() && rhs.has_value()) {
    ok = (*lhs == *rhs);
  } else if (lhs.has_value()) {
    ok = MatchPat(lit.args[1], *lhs, ctx);
  } else if (rhs.has_value()) {
    ok = MatchPat(lit.args[0], *rhs, ctx);
  } else {
    ctx->status = Status::Invalid(
        "equal/2 with both sides unbound in rule: " +
        ctx->rule->source().ToString());
    ctx->keep_going = false;
    return;
  }
  if (ok) EnumerateFrom(lit_index + 1, ctx);
  UnwindTrail(ctx, mark);
}

void EnumerateBuiltinAffine(size_t lit_index, const CompiledAtom& lit,
                            JoinContext* ctx) {
  // affine(X, A, B, Z): Z = A*X + B.
  std::optional<ValueId> a_id = TryBuild(lit.args[1], ctx);
  std::optional<ValueId> b_id = TryBuild(lit.args[2], ctx);
  const ValueStore& s = *ctx->store;
  if (!a_id.has_value() || !b_id.has_value() || !s.IsInt(*a_id) ||
      !s.IsInt(*b_id)) {
    ctx->status = Status::Invalid(
        "affine/4 requires ground integer coefficients in rule: " +
        ctx->rule->source().ToString());
    ctx->keep_going = false;
    return;
  }
  int64_t a = s.int_value(*a_id);
  int64_t b = s.int_value(*b_id);
  std::optional<ValueId> x_id = TryBuild(lit.args[0], ctx);
  size_t mark = ctx->trail.size();
  if (x_id.has_value()) {
    if (!s.IsInt(*x_id)) return;
    int64_t z = a * s.int_value(*x_id) + b;
    if (MatchPat(lit.args[3], ctx->store->InternInt(z), ctx)) {
      EnumerateFrom(lit_index + 1, ctx);
    }
    UnwindTrail(ctx, mark);
    return;
  }
  std::optional<ValueId> z_id = TryBuild(lit.args[3], ctx);
  if (z_id.has_value()) {
    if (!s.IsInt(*z_id) || a == 0) return;
    int64_t diff = s.int_value(*z_id) - b;
    if (diff % a != 0) return;
    if (MatchPat(lit.args[0], ctx->store->InternInt(diff / a), ctx)) {
      EnumerateFrom(lit_index + 1, ctx);
    }
    UnwindTrail(ctx, mark);
    return;
  }
  ctx->status = Status::Invalid(
      "affine/4 with both X and Z unbound in rule: " +
      ctx->rule->source().ToString());
  ctx->keep_going = false;
}

void EnumerateBuiltinGeq(size_t lit_index, const CompiledAtom& lit,
                         JoinContext* ctx) {
  std::optional<ValueId> lhs = TryBuild(lit.args[0], ctx);
  std::optional<ValueId> rhs = TryBuild(lit.args[1], ctx);
  const ValueStore& s = *ctx->store;
  if (!lhs.has_value() || !rhs.has_value()) {
    ctx->status = Status::Invalid("geq/2 requires both arguments bound in "
                                  "rule: " + ctx->rule->source().ToString());
    ctx->keep_going = false;
    return;
  }
  if (!s.IsInt(*lhs) || !s.IsInt(*rhs)) return;  // non-integers: no match
  if (s.int_value(*lhs) >= s.int_value(*rhs)) {
    EnumerateFrom(lit_index + 1, ctx);
  }
}

void EnumerateRelation(size_t lit_index, const CompiledAtom& lit,
                       JoinContext* ctx) {
  const RelationView& view = (*ctx->views)[lit_index];
  ++ctx->stats->lit_probes[lit_index];

  // Determine which argument positions are ground under the current
  // environment; they form the index key. The buffers are per-literal
  // scratch (enumeration visits each depth with the previous contents dead).
  std::vector<int>& cols = ctx->cols_scratch[lit_index];
  std::vector<ValueId>& key = ctx->key_scratch[lit_index];
  cols.clear();
  key.clear();
  for (size_t i = 0; i < lit.args.size(); ++i) {
    std::optional<ValueId> v = TryBuild(lit.args[i], ctx);
    if (v.has_value()) {
      cols.push_back(static_cast<int>(i));
      key.push_back(*v);
    }
  }

  Relation* rels[3] = {view.first, view.second, view.third};
  for (Relation* rel : rels) {
    if (rel == nullptr || rel->empty()) continue;
    if (!ctx->keep_going) return;

    auto try_row = [&](const ValueId* row) {
      size_t mark = ctx->trail.size();
      bool ok = true;
      for (size_t i = 0; i < lit.args.size(); ++i) {
        if (!MatchPat(lit.args[i], row[i], ctx)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        ++ctx->stats->rows_matched;
        ++ctx->stats->lit_matched[lit_index];
        if (ctx->track_premises) {
          FactKey& fk = ctx->premise_slots[lit_index];
          fk.predicate = lit.predicate;
          fk.row.assign(row, row + lit.args.size());
        }
        EnumerateFrom(lit_index + 1, ctx);
      }
      UnwindTrail(ctx, mark);
    };

    auto scan_all = [&] {
      for (size_t r = 0; r < rel->size() && ctx->keep_going; ++r) {
        try_row(rel->row(r));
      }
    };

    if (cols.empty()) {
      scan_all();
    } else if (view.shared) {
      // Read-only view: probe the pre-built index; fall back to a scan
      // (MatchPat filters) rather than build one under concurrent readers.
      const std::vector<uint32_t>* rows = rel->FindIndexed(cols, key);
      if (rows == nullptr) {
        scan_all();
      } else {
        for (uint32_t r : *rows) {
          if (!ctx->keep_going) break;
          try_row(rel->row(r));
        }
      }
    } else {
      const std::vector<uint32_t>& rows = rel->Lookup(cols, key);
      for (uint32_t r : rows) {
        if (!ctx->keep_going) break;
        try_row(rel->row(r));
      }
    }
  }
}

void EnumerateFrom(size_t lit_index, JoinContext* ctx) {
  if (!ctx->keep_going) return;
  const auto& body = ctx->rule->body();
  if (lit_index == body.size()) {
    EmitHead(ctx);
    return;
  }
  const CompiledAtom& lit = body[lit_index];
  switch (lit.kind) {
    case LitKind::kEqual:
      EnumerateBuiltinEqual(lit_index, lit, ctx);
      return;
    case LitKind::kAffine:
      EnumerateBuiltinAffine(lit_index, lit, ctx);
      return;
    case LitKind::kGeq:
      EnumerateBuiltinGeq(lit_index, lit, ctx);
      return;
    case LitKind::kRelation:
      EnumerateRelation(lit_index, lit, ctx);
      return;
  }
}

}  // namespace

void JoinStats::Add(const JoinStats& other) {
  rows_matched += other.rows_matched;
  instantiations += other.instantiations;
  if (lit_probes.size() < other.lit_probes.size()) {
    lit_probes.resize(other.lit_probes.size(), 0);
    lit_matched.resize(other.lit_probes.size(), 0);
  }
  for (size_t k = 0; k < other.lit_probes.size(); ++k) {
    lit_probes[k] += other.lit_probes[k];
    lit_matched[k] += other.lit_matched[k];
  }
}

Status EnumerateRule(const CompiledRule& rule, ValueStore* store,
                     const std::vector<RelationView>& views,
                     bool track_premises, JoinStats* stats,
                     const HeadSink& sink) {
  if (views.size() != rule.body().size()) {
    return Status::Invalid("views size does not match body size");
  }
  JoinContext ctx;
  ctx.rule = &rule;
  ctx.store = store;
  ctx.views = &views;
  ctx.track_premises = track_premises;
  ctx.stats = stats;
  ctx.sink = &sink;
  ctx.env.assign(rule.num_vars(), kInvalidValue);
  // Callers accumulate one JoinStats across many Enumerate calls; grow the
  // per-literal counters to this rule's body without dropping prior counts.
  if (stats->lit_probes.size() < rule.body().size()) {
    stats->lit_probes.resize(rule.body().size(), 0);
    stats->lit_matched.resize(rule.body().size(), 0);
  }
  if (track_premises) ctx.premise_slots.resize(rule.body().size());
  ctx.head_row.reserve(rule.head().args.size());
  ctx.cols_scratch.resize(rule.body().size());
  ctx.key_scratch.resize(rule.body().size());
  EnumerateFrom(0, &ctx);
  return ctx.status;
}

namespace {

bool PatGroundUnder(const Pat& p, const std::vector<char>& bound) {
  switch (p.kind) {
    case Pat::Kind::kConst:
      return true;
    case Pat::Kind::kVar:
      return bound[p.var] != 0;
    case Pat::Kind::kApp:
      for (const Pat& c : p.children) {
        if (!PatGroundUnder(c, bound)) return false;
      }
      return true;
  }
  return false;
}

void BindPatVars(const Pat& p, std::vector<char>* bound) {
  switch (p.kind) {
    case Pat::Kind::kConst:
      return;
    case Pat::Kind::kVar:
      (*bound)[p.var] = 1;
      return;
    case Pat::Kind::kApp:
      for (const Pat& c : p.children) BindPatVars(c, bound);
      return;
  }
}

}  // namespace

std::vector<std::vector<int>> StaticIndexCols(const CompiledRule& rule) {
  std::vector<char> bound(rule.num_vars(), 0);
  std::vector<std::vector<int>> out(rule.body().size());
  for (size_t i = 0; i < rule.body().size(); ++i) {
    const CompiledAtom& lit = rule.body()[i];
    switch (lit.kind) {
      case LitKind::kRelation:
        for (size_t a = 0; a < lit.args.size(); ++a) {
          if (PatGroundUnder(lit.args[a], bound)) {
            out[i].push_back(static_cast<int>(a));
          }
        }
        // A successful match grounds every variable of the literal.
        for (const Pat& p : lit.args) BindPatVars(p, &bound);
        break;
      case LitKind::kEqual:
        // The ground side is built, the other side matched (and bound).
        if (PatGroundUnder(lit.args[0], bound)) {
          BindPatVars(lit.args[1], &bound);
        } else if (PatGroundUnder(lit.args[1], bound)) {
          BindPatVars(lit.args[0], &bound);
        }
        break;
      case LitKind::kAffine:
        // affine(X, A, B, Z): a bound X computes Z, a bound Z computes X.
        if (PatGroundUnder(lit.args[0], bound)) {
          BindPatVars(lit.args[3], &bound);
        } else if (PatGroundUnder(lit.args[3], bound)) {
          BindPatVars(lit.args[0], &bound);
        }
        break;
      case LitKind::kGeq:
        // Pure test; binds nothing.
        break;
    }
  }
  return out;
}

}  // namespace factlog::eval
