// Adornments and the adorned program (§4.1 of the paper).
//
// An adornment records, per argument position of an IDB predicate, whether
// the position is bound ('b') or free ('f') under a left-to-right
// sideways-information-passing strategy. Adorned predicates are materialized
// with renamed predicates (t with adornment bf becomes `t_bf`), which is the
// form the Magic Sets transformation and the factorability tests consume.

#ifndef FACTLOG_ANALYSIS_ADORNMENT_H_
#define FACTLOG_ANALYSIS_ADORNMENT_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ast/program.h"
#include "common/status.h"

namespace factlog::analysis {

/// A binding pattern: one 'b' or 'f' per argument position.
class Adornment {
 public:
  Adornment() = default;
  explicit Adornment(std::string pattern) : pattern_(std::move(pattern)) {}

  /// Adornment of a query literal: positions holding ground terms are bound.
  static Adornment ForQuery(const ast::Atom& query);

  const std::string& pattern() const { return pattern_; }
  size_t arity() const { return pattern_.size(); }
  bool IsBound(size_t i) const { return pattern_[i] == 'b'; }
  size_t NumBound() const;

  std::vector<int> BoundPositions() const;
  std::vector<int> FreePositions() const;

  bool operator==(const Adornment& o) const { return pattern_ == o.pattern_; }
  bool operator<(const Adornment& o) const { return pattern_ < o.pattern_; }

 private:
  std::string pattern_;
};

/// An IDB predicate paired with an adornment, e.g. t^{bf}.
struct AdornedPredicate {
  std::string base;
  Adornment adornment;

  /// The materialized predicate name, e.g. "t_bf".
  std::string Name() const {
    return base + "_" + (adornment.pattern().empty() ? "0"
                                                     : adornment.pattern());
  }
  bool operator<(const AdornedPredicate& o) const {
    if (base != o.base) return base < o.base;
    return adornment < o.adornment;
  }
};

/// Per-rule metadata of the adorned program.
struct AdornedRuleInfo {
  /// Index of the originating rule in the source program.
  int source_rule_index = -1;
  AdornedPredicate head;
  /// One entry per body literal; nullopt for EDB / builtin literals.
  std::vector<std::optional<AdornedPredicate>> body;
};

/// The adorned program P^ad plus its metadata.
class AdornedProgram {
 public:
  /// Rules with adorned (renamed) IDB predicates; EDB literals unchanged.
  const ast::Program& program() const { return program_; }
  /// The query with its predicate renamed to the adorned version.
  const ast::Atom& query() const { return query_; }
  const std::vector<AdornedRuleInfo>& rule_info() const { return rule_info_; }
  /// Adorned predicate name -> (base, adornment).
  const std::map<std::string, AdornedPredicate>& predicates() const {
    return predicates_;
  }
  /// The adornment of the query predicate.
  const AdornedPredicate& query_predicate() const { return query_pred_; }

  /// Looks up the metadata of an adorned predicate name; nullptr if `name`
  /// is not an adorned predicate.
  const AdornedPredicate* FindPredicate(const std::string& name) const {
    auto it = predicates_.find(name);
    return it == predicates_.end() ? nullptr : &it->second;
  }

 private:
  friend Result<AdornedProgram> Adorn(const ast::Program&, const ast::Atom&);
  ast::Program program_;
  ast::Atom query_;
  AdornedPredicate query_pred_;
  std::vector<AdornedRuleInfo> rule_info_;
  std::map<std::string, AdornedPredicate> predicates_;
};

/// Computes the adorned program for `query` under the left-to-right SIP:
/// a variable is bound in a body literal if it occurs in a bound head
/// position or is bound by an earlier body literal; after an IDB literal,
/// its free variables become bound (answers return bindings). What a
/// literal needs and binds follows the shared binding model
/// (ast/binding.h): relation literals keep their source order, and a
/// builtin moves behind the literals that make it ready, so every prefix of
/// an adorned body can run.
Result<AdornedProgram> Adorn(const ast::Program& program,
                             const ast::Atom& query);

/// The arguments of `atom` at the bound positions of `ap`'s adornment.
std::vector<ast::Term> BoundArgs(const ast::Atom& atom,
                                 const AdornedPredicate& ap);

}  // namespace factlog::analysis

#endif  // FACTLOG_ANALYSIS_ADORNMENT_H_
