// Checkpoint meta file: the single source of truth for what a database
// directory contains. Plain-data structs (no eval/inc types) so the storage
// layer stays dependency-free; the engine converts to and from live objects.
//
// The page file carries no bookkeeping of its own — the meta file records
// the value store, the relation catalog with every shard's page chain, the
// materialized-view dumps, the persisted plan descriptors, and the page
// allocator state. It is written atomically (meta.tmp + fsync + rename), so
// a crash mid-checkpoint leaves the previous meta file intact and the
// previous checkpoint's pages untouched (shadow paging: post-checkpoint
// writes relocated to fresh pages).
//
// File layout: [u32 magic][u32 version][u64 payload_len][payload]
//              [u32 crc32 over payload]

#ifndef FACTLOG_STORAGE_META_H_
#define FACTLOG_STORAGE_META_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace factlog::storage {

/// One interned value, in id order. Children of a compound always have
/// smaller ids than the compound itself, so re-interning entries in order
/// reproduces the exact id assignment.
struct ValueDumpEntry {
  uint8_t kind = 0;  // 0 = int, 1 = symbol, 2 = compound
  int64_t int_value = 0;
  std::string symbol;  // symbol text or compound functor
  std::vector<int32_t> children;
};

/// One shard's page chain (a flat relation is its single shard 0). Shards
/// that cannot be paged (arity 0, or a row wider than a page) persist their
/// rows inline in the meta file instead.
struct ShardDump {
  uint64_t num_rows = 0;
  std::vector<PageId> chain;
  /// num_rows * arity ValueIds when the shard is not page-backed.
  std::vector<int32_t> inline_rows;
};

/// One base relation's catalog entry.
struct RelationDump {
  std::string name;
  uint32_t arity = 0;
  uint32_t num_shards = 1;  // 1 = flat layout
  std::vector<int32_t> part_cols;
  std::vector<ShardDump> shards;
};

/// One predicate of a materialized view's IDB, dumped by value. Views are
/// RAM-resident (write-hot); their rows live in the meta file, not in pages.
struct ViewPredDump {
  std::string pred;
  uint32_t arity = 0;
  uint8_t counts_enabled = 0;
  uint64_t num_rows = 0;  // explicit: arity-0 rows leave `rows` empty
  /// num_rows * arity interned ValueIds (valid against the dumped store).
  std::vector<int32_t> rows;
  /// Per-row support counts; empty unless counts_enabled.
  std::vector<int64_t> row_counts;
};

/// One materialized view: enough to rebuild the inc::MaterializedView
/// without re-evaluating (the engine recompiles the rules, then fills the
/// result relations from the dump).
struct ViewDumpRec {
  std::string key;  // the engine's plan-cache key for the view
  std::string program_text;
  std::string query_text;
  std::string strategy;
  std::vector<ViewPredDump> preds;
};

/// One cached plan worth rebuilding on open: the source text plus the extent
/// hints it was costed against (informational: the engine recompiles
/// against live sizes on open).
struct PlanDescriptor {
  std::string cache_key;
  std::string strategy;
  std::string program_text;
  std::string query_text;
  std::map<std::string, uint64_t> extent_hints;
};

/// One observed adornment pattern of a predicate: decayed probe/match
/// averages from the runtime statistics catalog (plan::StatsCatalog).
struct ProbeStatDump {
  std::string pattern;  // e.g. "bf": first column bound
  double probes = 0.0;
  double matched = 0.0;
  uint64_t runs = 0;
};

/// One predicate's entry in the runtime statistics catalog. Persisting the
/// catalog lets a reopened engine cost plans from measured cardinalities
/// immediately instead of re-learning them.
struct PredicateStatsDump {
  std::string pred;
  double extent = 0.0;
  uint64_t extent_runs = 0;
  double delta_mean = 0.0;
  uint64_t delta_runs = 0;
  std::vector<ProbeStatDump> probes;
};

struct CheckpointMeta {
  /// Last epoch the checkpoint covers; WAL commits continue from here.
  uint64_t epoch = 0;
  std::vector<ValueDumpEntry> values;
  std::vector<RelationDump> relations;
  std::vector<ViewDumpRec> views;
  std::vector<PlanDescriptor> plans;
  /// Runtime statistics catalog (version >= 2 meta files; empty before).
  std::vector<PredicateStatsDump> stats;
  /// Page allocator state at checkpoint time.
  PageId num_pages = 0;
  std::vector<PageId> free_list;
};

/// Serializes `meta` to `path` atomically: write path+".tmp", fsync, rename.
Status WriteCheckpointMeta(const std::string& path, const CheckpointMeta& meta);

/// Loads and validates a meta file. NotFound when the file does not exist
/// (fresh database); Internal on a malformed or CRC-mismatching file.
Result<CheckpointMeta> ReadCheckpointMeta(const std::string& path);

}  // namespace factlog::storage

#endif  // FACTLOG_STORAGE_META_H_
