// The shared integration-sweep corpus: (program, query) pairs times workload
// generators. integration_sweep_test.cc checks the optimizer pipeline
// preserves answers over it; exec_test.cc and plan_test.cc check the
// semi-naive engine reproduces naive evaluation's fact sets over it with and
// without a pool at every thread and shard count.

#ifndef FACTLOG_TESTS_SWEEP_CORPUS_H_
#define FACTLOG_TESTS_SWEEP_CORPUS_H_

#include "eval/database.h"
#include "workload/graph_gen.h"

namespace factlog::test {

struct SweepProgram {
  const char* name;
  const char* text;
  const char* query;
};

inline constexpr SweepProgram kSweepPrograms[] = {
    {"right_tc", "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).",
     "t(1, Y)"},
    {"left_tc", "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).",
     "t(1, Y)"},
    // Nothing bound: kAuto falls back to supplementary magic, whose
    // recursive rule then has the 0-ary guard m_t_ff as a premise of every
    // derivation.
    {"left_tc_ff", "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).",
     "t(X, Y)"},
    {"nonlinear_tc", "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y).",
     "t(1, Y)"},
    {"three_form_tc",
     "t(X, Y) :- t(X, W), t(W, Y). t(X, Y) :- e(X, W), t(W, Y). "
     "t(X, Y) :- t(X, W), e(W, Y). t(X, Y) :- e(X, Y).",
     "t(1, Y)"},
    {"reverse_bound", "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).",
     "t(X, 8)"},
    {"two_hop_exit",
     "t(X, Y) :- e(X, W), e(W, Y). t(X, Y) :- e(X, W), t(W, Y).",
     "t(1, Y)"},
    // Mutual recursion: p and q form one two-member SCC (odd and even
    // path lengths).
    {"mutual_pq",
     "p(X, Y) :- e(X, Y). p(X, Y) :- q(X, W), e(W, Y). "
     "q(X, Y) :- p(X, W), e(W, Y).",
     "p(1, Y)"},
};
inline constexpr int kNumSweepPrograms =
    static_cast<int>(sizeof(kSweepPrograms) / sizeof(kSweepPrograms[0]));

struct SweepWorkload {
  const char* name;
  void (*make)(eval::Database* db);
};

namespace sweep_internal {
inline void Chain(eval::Database* db) { workload::MakeChain(24, "e", db); }
inline void Cycle(eval::Database* db) { workload::MakeCycle(16, "e", db); }
inline void Tree(eval::Database* db) { workload::MakeTree(2, 4, "e", db); }
inline void Grid(eval::Database* db) { workload::MakeGrid(5, 5, "e", db); }
inline void Random(eval::Database* db) {
  workload::MakeChain(12, "e", db);
  workload::MakeRandomGraph(12, 24, 1234, "e", db);
}
inline void SelfLoops(eval::Database* db) {
  workload::MakeChain(8, "e", db);
  db->AddPair("e", 1, 1);
  db->AddPair("e", 5, 5);
}
inline void Empty(eval::Database*) {}
}  // namespace sweep_internal

inline constexpr SweepWorkload kSweepWorkloads[] = {
    {"chain", sweep_internal::Chain},
    {"cycle", sweep_internal::Cycle},
    {"tree", sweep_internal::Tree},
    {"grid", sweep_internal::Grid},
    {"random_plus_chain", sweep_internal::Random},
    {"self_loops", sweep_internal::SelfLoops},
    {"empty", sweep_internal::Empty},
};
inline constexpr int kNumSweepWorkloads =
    static_cast<int>(sizeof(kSweepWorkloads) / sizeof(kSweepWorkloads[0]));

}  // namespace factlog::test

#endif  // FACTLOG_TESTS_SWEEP_CORPUS_H_
