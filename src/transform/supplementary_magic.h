// Supplementary Magic Sets (Beeri & Ramakrishnan's refinement of the
// transformation in §2.1).
//
// Plain Magic Sets re-evaluates shared body prefixes: the magic rule for
// body literal b_i joins m_h with b_1..b_{i-1}, and the modified rule joins
// the same prefix again. The supplementary variant materializes each prefix
// once:
//
//   sup_{r,1}(V_1)   :- m_h(X̄), b_1.
//   sup_{r,i}(V_i)   :- sup_{r,i-1}(V_{i-1}), b_i.        (1 < i < n)
//   m_{b_i}(bound)   :- sup_{r,i-1}(V_{i-1}).              (b_i an IDB literal)
//   h                :- sup_{r,n-1}(V_{n-1}), b_n.
//
// where V_i keeps exactly the variables needed by the remaining literals
// and the head. One first stage is not materialized: when b_1 is an IDB
// literal whose magic atom is m_h(X̄) itself (the circular magic rule
// m_h :- m_h, which is dropped) and V_1 keeps every variable of b_1, then
// every b_1 fact was derived under that same guard and sup_{r,1} would hold
// b_1 row for row. The later stages read the conjunction m_h(X̄), b_1 in
// its place, so left-linear TC compiles to plain Magic's
// `t(X, Y) :- m_t(..), t(X, W), e(W, Y).` instead of first copying the
// closure. Where b_1 is EDB (right-linear TC, same-generation) the guard
// is a real filter, and sup_{r,1} stays. Answers are identical to plain
// Magic Sets; the join work is not. The factoring pipeline is orthogonal:
// core::CompileQuery's kAuto falls back to this pass whenever factoring
// does not apply (e.g. every query argument free).

#ifndef FACTLOG_TRANSFORM_SUPPLEMENTARY_MAGIC_H_
#define FACTLOG_TRANSFORM_SUPPLEMENTARY_MAGIC_H_

#include <map>
#include <string>

#include "analysis/adornment.h"
#include "ast/program.h"
#include "common/status.h"

namespace factlog::transform {

struct SupplementaryMagicProgram {
  ast::Program program;
  ast::Atom query;
  std::map<std::string, std::string> magic_names;
  ast::Atom seed;
};

/// Applies the supplementary Magic Sets transformation to an adorned
/// program.
Result<SupplementaryMagicProgram> SupplementaryMagicSets(
    const analysis::AdornedProgram& adorned);

}  // namespace factlog::transform

#endif  // FACTLOG_TRANSFORM_SUPPLEMENTARY_MAGIC_H_
