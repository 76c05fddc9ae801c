// MVCC snapshots over copy-on-write shards.
//
// The serving subsystem's read side: every installed epoch is an immutable
// Snapshot — a Database of frozen relation copies (eval::Relation::FrozenCopy,
// sharing unchanged shards with the live database by shared_ptr) plus one
// frozen answer relation per materialized view. Readers Pin() the current
// snapshot and evaluate against it with EvalOptions::shared_edb semantics
// (probe pre-built indices or scan, never build), so a reader neither blocks
// on nor is failed by the single writer installing the next epoch.
//
// Epoch reclamation is reference counting: Pin() hands out the Snapshot
// shared_ptr, Install() swaps the current one, and a retired epoch's frozen
// copies — and through them the last references to superseded shards — are
// freed when the last reader drains. No stop-the-world, no epoch guard.
//
// The SnapshotBuilder amortizes installs: a relation whose version() is
// unchanged since the previous epoch reuses that epoch's frozen copy, so the
// per-install cost is O(changed relations), and within a changed sharded
// relation O(outer bookkeeping + detached shards), not O(rows).
//
// The IndexVocabulary closes the adaptive-indexing loop: snapshots are deeply
// immutable, so a reader that would want an index it doesn't find cannot
// build it. Instead the (relation, columns) needs of every compiled serving
// plan are registered here, and the writer builds them on the *live*
// relations at the next install — the first query on a new access path scans,
// later epochs probe.

#ifndef FACTLOG_SERVE_SNAPSHOT_H_
#define FACTLOG_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ast/atom.h"
#include "core/transform_pass.h"
#include "eval/database.h"
#include "eval/relation.h"

namespace factlog::serve {

/// One materialized view's contribution to a snapshot: the view's (possibly
/// transformed) query atom and a frozen copy of the maintained relation that
/// answers it, with the answer-probe index pre-built.
struct ViewSnapshot {
  ast::Atom query;
  std::shared_ptr<eval::Relation> rel;
};

/// An immutable serving epoch. `db` shares the live database's ValueStore
/// (interning is thread-safe) and holds frozen relation copies; `views` maps
/// plan-cache keys to frozen view answer relations. Treat everything
/// reachable from here as read-only: evaluate with shared_edb, extract with
/// ExtractAnswersFrom(..., shared=true).
struct Snapshot {
  uint64_t epoch = 0;
  std::shared_ptr<eval::Database> db;
  std::map<std::string, ViewSnapshot> views;
};

/// Builds successive snapshots of a live database, reusing frozen relation
/// copies across epochs via Relation::version(). Single-writer: only the
/// serving writer (or the install path it calls) may use a builder.
class SnapshotBuilder {
 public:
  /// A new snapshot of `live` (views are filled in by the caller before
  /// installing). Relations are synced defensively; unchanged ones reuse the
  /// previous epoch's frozen copy.
  std::shared_ptr<Snapshot> Build(eval::Database* live);

  /// Frozen copies built over the builder's lifetime (reuses excluded).
  uint64_t copies() const { return copies_; }

 private:
  struct Cached {
    uint64_t version = 0;
    std::shared_ptr<eval::Relation> frozen;
  };
  std::map<std::string, Cached> cache_;
  uint64_t next_epoch_ = 1;
  uint64_t copies_ = 0;
};

/// Publishes snapshots to readers. Pin() is a mutex-guarded shared_ptr copy
/// (C++17 has no atomic<shared_ptr>), Install() swaps the current epoch;
/// superseded epochs free themselves when their last pin drops.
class SnapshotManager {
 public:
  /// The current snapshot, pinned: the epoch stays alive (and its shards
  /// frozen) until the returned pointer is released. Null before the first
  /// Install.
  std::shared_ptr<const Snapshot> Pin() const;

  void Install(std::shared_ptr<const Snapshot> snap);

  uint64_t current_epoch() const;
  uint64_t installs() const { return installs_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;
  std::atomic<uint64_t> installs_{0};
};

/// Thread-safe registry of (relation, columns) index needs observed by
/// serving readers; the writer drains it at install time and builds the
/// indices on the live relations (see the header comment).
class IndexVocabulary {
 public:
  void Register(const std::string& rel, const std::vector<int>& cols);

  /// Registers plan::BaseIndexNeeds of `compiled` evaluated under
  /// `evaluated` (the plan the reader's evaluation resolves — the compiled
  /// plans, or the source-order plan under kLeftToRight): every
  /// base-relation index its join order probes, plus the answer-extraction
  /// probe for its query.
  void RegisterFromPlan(const core::CompiledQuery& compiled,
                        const plan::ProgramPlan& evaluated);

  /// Returns the accumulated needs and clears the registry.
  std::map<std::string, std::set<std::vector<int>>> Drain();

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::set<std::vector<int>>> needs_;
};

}  // namespace factlog::serve

#endif  // FACTLOG_SERVE_SNAPSHOT_H_
