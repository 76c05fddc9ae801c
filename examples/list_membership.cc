// Example 1.2 / 4.6: list membership with function symbols.
//
//   $ ./list_membership [n]
//
// Compares three evaluations of `?- pmem(X, [1..n])` where every member
// satisfies p:
//   * top-down SLD (the paper's Prolog baseline): Theta(n^2) inferences,
//   * bottom-up on the Magic program: Theta(n^2) facts,
//   * bottom-up on the factored program: Theta(n) facts — linear time with
//     structure-shared lists.
// Also prints a derivation tree for one answer (Definition 2.1).

#include <chrono>
#include <iostream>

#include "core/pipeline.h"
#include "eval/provenance.h"
#include "eval/seminaive.h"
#include "eval/topdown.h"
#include "exec/parallel_seminaive.h"
#include "workload/list_gen.h"

int main(int argc, char** argv) {
  using namespace factlog;
  using Clock = std::chrono::steady_clock;

  int64_t n = argc > 1 ? std::atoll(argv[1]) : 200;
  ast::Program program = workload::MakePmemProgram(n);

  auto pipeline = core::OptimizeQuery(program, *program.query());
  if (!pipeline.ok()) {
    std::cerr << pipeline.status().ToString() << "\n";
    return 1;
  }
  std::cout << "factorability: "
            << core::FactorClassToString(pipeline->factorability.cls) << "\n\n";

  // Top-down SLD (Prolog baseline).
  {
    eval::Database db;
    workload::MakeMembershipPredicate(n, 1, 0, "p", &db);
    eval::SldStats stats;
    auto start = Clock::now();
    auto answers = eval::SolveTopDown(program, *program.query(), &db,
                                      eval::SldOptions(), &stats);
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - start).count();
    if (!answers.ok()) {
      std::cerr << answers.status().ToString() << "\n";
      return 1;
    }
    std::cout << "SLD (Prolog baseline): " << answers->rows.size()
              << " answers, " << stats.inferences << " inferences, " << us
              << " us\n";
  }

  // Bottom-up on the Magic program (arity not reduced).
  {
    eval::Database db;
    workload::MakeMembershipPredicate(n, 1, 0, "p", &db);
    eval::EvalStats stats;
    auto start = Clock::now();
    auto answers = eval::EvaluateQuery(pipeline->magic.program,
                                       pipeline->magic.query, &db,
                                       eval::EvalOptions(), &stats);
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - start).count();
    if (!answers.ok()) {
      std::cerr << answers.status().ToString() << "\n";
      return 1;
    }
    std::cout << "Magic bottom-up:       " << answers->rows.size()
              << " answers, " << stats.total_facts << " facts, " << us
              << " us\n";
  }

  // Bottom-up on the factored program.
  {
    eval::Database db;
    workload::MakeMembershipPredicate(n, 1, 0, "p", &db);
    eval::EvalStats stats;
    auto start = Clock::now();
    auto answers = eval::EvaluateQuery(*pipeline->optimized,
                                       pipeline->final_query(), &db,
                                       eval::EvalOptions(), &stats);
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - start).count();
    if (!answers.ok()) {
      std::cerr << answers.status().ToString() << "\n";
      return 1;
    }
    std::cout << "Factored bottom-up:    " << answers->rows.size()
              << " answers, " << stats.total_facts << " facts, " << us
              << " us\n";
  }

  // A derivation tree for the last member, per Definition 2.1.
  {
    eval::Database db;
    workload::MakeMembershipPredicate(5, 1, 0, "p", &db);
    ast::Program small = workload::MakePmemProgram(5);
    auto small_pipe = core::OptimizeQuery(small, *small.query());
    const ast::Program& optimized = *small_pipe->optimized;
    // The inline run reports every rule instantiation; the edge store keeps
    // them, and the tree expands each fact through its first derivation.
    eval::DerivationEdgeStore derivations(~uint64_t{0});
    auto result = exec::EvaluateParallel(
        optimized, &db, /*pool=*/nullptr, {},
        [&](size_t rule, const std::vector<eval::ValueId>& head,
            const std::vector<eval::FactKey>& premises) {
          derivations.AddDerivation(optimized.rules()[rule].head().predicate(),
                                    head, static_cast<int>(rule), premises);
        });
    if (result.ok()) {
      auto fpmem = result->Find("fpmem");
      if (fpmem != nullptr && !fpmem->empty()) {
        eval::FactKey fact{"fpmem", {fpmem->row(fpmem->size() - 1)[0]}};
        std::cout << "\nderivation tree (n = 5, one answer):\n"
                  << DerivationTreeToString(
                         BuildDerivationTree(derivations, fact), db.store());
      }
    }
  }
  return 0;
}
