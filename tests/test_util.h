// Shared helpers for factlog tests.

#ifndef FACTLOG_TESTS_TEST_UTIL_H_
#define FACTLOG_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/database.h"
#include "eval/provenance.h"
#include "eval/seminaive.h"
#include "exec/parallel_seminaive.h"

namespace factlog::test {

/// Compares an answer table with reference rows, row for row, through both
/// the table's iteration and its indexing.
inline ::testing::AssertionResult RowsAre(
    const eval::RowTable& got,
    const std::vector<std::vector<eval::ValueId>>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows, want " << want.size();
  }
  size_t r = 0;
  for (const eval::RowView row : got) {
    const std::vector<eval::ValueId>& w = want[r];
    const eval::RowView at = got[r];
    if (row.size() != w.size() || at.size() != w.size()) {
      return ::testing::AssertionFailure()
             << "row " << r << " has " << row.size() << " ids, want "
             << w.size();
    }
    for (size_t c = 0; c < w.size(); ++c) {
      if (row.begin()[c] != w[c] || at[c] != w[c]) {
        return ::testing::AssertionFailure()
               << "row " << r << " column " << c << " is " << at[c]
               << ", want " << w[c];
      }
    }
    ++r;
  }
  if (r != want.size()) {
    return ::testing::AssertionFailure() << "iteration visited " << r
                                         << " rows, want " << want.size();
  }
  return ::testing::AssertionSuccess();
}

/// Parses a program, failing the test on error.
inline ast::Program P(const std::string& text) {
  auto r = ast::ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nwhile parsing:\n" << text;
  return r.ok() ? std::move(r).value() : ast::Program();
}

/// Parses an atom, failing the test on error.
inline ast::Atom A(const std::string& text) {
  auto r = ast::ParseAtom(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : ast::Atom();
}

/// Parses a rule, failing the test on error.
inline ast::Rule R(const std::string& text) {
  auto r = ast::ParseRule(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : ast::Rule();
}

/// Parses a term, failing the test on error.
inline ast::Term T(const std::string& text) {
  auto r = ast::ParseTerm(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : ast::Term::Sym("parse_error");
}

/// Reads a whole file, failing the test when it cannot be opened.
inline std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

#ifdef FACTLOG_SOURCE_DIR
/// The `.dl` files in directory `rel` of the source tree, sorted by name.
inline std::vector<std::filesystem::path> DlFilesIn(const std::string& rel) {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir =
      std::filesystem::path(FACTLOG_SOURCE_DIR) / rel;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".dl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}
#endif

/// Adds ground facts (one per line or semicolon-free program text) to a
/// database. Facts must be ground atoms followed by '.'.
inline void AddFacts(eval::Database* db, const std::string& text) {
  auto program = ast::ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  for (const ast::Rule& r : program->rules()) {
    ASSERT_TRUE(r.IsFact()) << r.ToString();
    auto st = db->AddFact(r.head());
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

/// Evaluates `program_text`'s query against facts, returning the sorted
/// answer tuples rendered as strings like "(2, 3)".
inline std::vector<std::string> Answers(const std::string& program_text,
                                        const std::string& facts_text,
                                        eval::EvalOptions opts = {}) {
  ast::Program program = P(program_text);
  EXPECT_TRUE(program.query().has_value()) << "program has no ?- query";
  eval::Database db;
  AddFacts(&db, facts_text);
  auto answers = eval::EvaluateQuery(program, *program.query(), &db, opts);
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  std::vector<std::string> out;
  if (!answers.ok()) return out;
  for (const auto& row : answers->rows) {
    std::string s = "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ", ";
      s += db.store().ToString(row[i]);
    }
    s += ")";
    out.push_back(s);
  }
  return out;
}

/// An edge budget no test reaches.
inline constexpr uint64_t kUnboundedEdges = ~uint64_t{0};

/// A derivation callback (exec::EvaluateParallel) that records every rule
/// instantiation of `program` into `store`, from which BuildDerivationTree
/// reconstructs derivation trees. `program` must outlive the callback.
inline exec::DerivationCallback RecordDerivations(
    const ast::Program& program, eval::DerivationEdgeStore* store) {
  return [&program, store](size_t rule, const std::vector<eval::ValueId>& head,
                           const std::vector<eval::FactKey>& premises) {
    store->AddDerivation(program.rules()[rule].head().predicate(), head,
                         static_cast<int>(rule), premises);
  };
}

}  // namespace factlog::test

#endif  // FACTLOG_TESTS_TEST_UTIL_H_
