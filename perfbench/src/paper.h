// The paper's headline as an exact check (Example 1.1): on a chain, the
// three-form transitive closure compiled under Magic Sets derives Theta(n^2)
// facts, while Magic + factoring derives Theta(n).

#ifndef PERFBENCH_PAPER_H_
#define PERFBENCH_PAPER_H_

#include "harness.h"

namespace perfbench {

/// Chain lengths the headline is measured at; the second doubles the first.
inline constexpr int64_t kPaperChainShort = 64;
inline constexpr int64_t kPaperChainLong = 128;

/// Counts the facts both compilations derive at both chain lengths, checks
/// linear against quadratic growth and equal answers, and, when
/// `emit_metrics`, reports paper.magic_facts.n<N> and
/// paper.factored_facts.n<N>.
void CheckPaperHeadline(bool emit_metrics, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PAPER_H_
