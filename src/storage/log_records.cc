#include "storage/log_records.h"

namespace factlog::storage {

namespace {

// Bounds nesting during decode so corrupted bytes can't recurse without
// limit. Real programs nest lists a few levels deep; 10k leaves room for
// pathological but legitimate data.
constexpr int kMaxTermDepth = 10000;

bool DecodeTermAtDepth(BinReader* r, ast::Term* term, int depth) {
  if (depth > kMaxTermDepth) return false;
  switch (r->U8()) {
    case 0:
      *term = ast::Term::Int(r->I64());
      return r->ok();
    case 1:
      *term = ast::Term::Sym(r->Str());
      return r->ok();
    case 2: {
      std::string functor = r->Str();
      uint32_t n = r->U32();
      if (!r->ok()) return false;
      std::vector<ast::Term> args;
      args.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        ast::Term child = ast::Term::Int(0);
        if (!DecodeTermAtDepth(r, &child, depth + 1)) return false;
        args.push_back(std::move(child));
      }
      *term = ast::Term::App(std::move(functor), std::move(args));
      return true;
    }
    case 3:
      *term = ast::Term::Var(r->Str());
      return r->ok();
    default:
      return false;
  }
}

}  // namespace

void EncodeTerm(const ast::Term& term, BinWriter* w) {
  switch (term.kind()) {
    case ast::Term::Kind::kInt:
      w->U8(0);
      w->I64(term.int_value());
      return;
    case ast::Term::Kind::kSymbol:
      w->U8(1);
      w->Str(term.symbol());
      return;
    case ast::Term::Kind::kCompound:
      w->U8(2);
      w->Str(term.symbol());
      w->U32(static_cast<uint32_t>(term.args().size()));
      for (const ast::Term& a : term.args()) EncodeTerm(a, w);
      return;
    case ast::Term::Kind::kVariable:
      w->U8(3);
      w->Str(term.var_name());
      return;
  }
}

bool DecodeTerm(BinReader* r, ast::Term* term) {
  return DecodeTermAtDepth(r, term, 0);
}

std::string EncodeFactRecord(const ast::Atom& fact) {
  BinWriter w;
  w.Str(fact.predicate());
  w.U32(static_cast<uint32_t>(fact.arity()));
  for (const ast::Term& t : fact.args()) EncodeTerm(t, &w);
  return w.Take();
}

bool DecodeFactRecord(const void* data, size_t len, ast::Atom* fact) {
  BinReader r(data, len);
  std::string pred = r.Str();
  uint32_t arity = r.U32();
  if (!r.ok() || pred.empty()) return false;
  std::vector<ast::Term> args;
  args.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    ast::Term t = ast::Term::Int(0);
    if (!DecodeTerm(&r, &t)) return false;
    args.push_back(std::move(t));
  }
  if (!r.AtEnd()) return false;  // trailing bytes: corrupted record
  *fact = ast::Atom(std::move(pred), std::move(args));
  return true;
}

std::string EncodeCommitRecord(uint64_t epoch) {
  BinWriter w;
  w.U64(epoch);
  return w.Take();
}

bool DecodeCommitRecord(const void* data, size_t len, uint64_t* epoch) {
  BinReader r(data, len);
  *epoch = r.U64();
  return r.ok() && r.AtEnd();
}

}  // namespace factlog::storage
