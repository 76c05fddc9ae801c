// Relations: duplicate-free sets of fixed-arity tuples with lazy hash
// indices, optionally hash-partitioned into shards.
//
// The paper's cost model (§1) bounds a recursive predicate's relation by
// n^k for arity k, which is exactly what these containers materialize; the
// benchmark harness reports `size()` to reproduce the O(n^2) vs O(n) fact
// counts of the worked examples.
//
// Sharding: a Relation built with StorageOptions{num_shards > 1} routes every
// row by a hash of its partition columns (the join-key columns when the
// caller knows them, else column 0) to one of S inner shards. Each shard owns
// its own row store, dedup table, and lazy indices, and is itself a Relation
// (`shard(s)`), so the parallel fixpoint can consume delta shards in place as
// work partitions and merge buffers shard-to-shard under per-shard locks
// (MergeShard). The public API is unchanged: Insert/Contains route by hash,
// row(i)/size() preserve global insertion order through a location table, and
// Lookup/EnsureIndex/FindIndexed serve arbitrary column sets from combined
// outer indices over global row ids. A single-shard Relation (the default)
// keeps the original flat layout with no indirection.
//
// Dedup table: each flat relation (and each inner shard) finds its rows by
// value through an open-addressing table of 8-byte slots {row id + 1 (0 =
// empty), 32-bit hash tag}. The tag is a multiply-shift mix of the row hash
// and its low bits are the slot's home position, so growth rehashes from the
// tags alone and deletion backward-shifts the rest of the cluster (no
// tombstones); a row is only read (memcmp) when its tag matches. Capacity is
// a power of two at load <= 1/2, so an insert allocates nothing until the
// table doubles. Clear() zero-fills the slots and keeps their capacity, which
// is how the fixpoints reuse their delta buffers: a cleared relation holds
// the same rows in the same order after the same inserts as a fresh one,
// because row ids follow insertion order and never depend on slot positions.
//
// Thread safety: a Relation is not internally synchronized. The const
// methods (size, row, Contains, FindIndexed) are safe to call from many
// threads concurrently as long as no thread mutates; the exec layer freezes
// full/delta extents during a parallel region and pre-builds the indices the
// join will probe (EnsureIndex / EnsureShardIndexes), so workers never fall
// onto the mutating Lookup path. MergeShard calls for *distinct* shards are
// safe concurrently (each touches only its shard); after any MergeShard the
// relation is out of sync until the control thread calls SyncShards().
//
// Deletion (incremental maintenance, src/inc): Erase removes one row by
// swapping the last row into its slot, repairing the dedup table and every
// built index in place, so a flat relation (and each inner shard) stays fully
// consistent after any erase — at the cost of perturbing insertion order. On
// a sharded relation an erase invalidates the outer global row order and
// combined indices; the relation then behaves like after MergeShard: route-by
// -hash operations (Insert/Contains/Erase) keep working, but the caller must
// SyncShards() before global reads (row/Lookup/EnsureIndex). Flat relations
// additionally carry optional per-row support counts (the counting
// algorithm's derivation counters): EnableSupportCounts() zeroes them and
// AddSupport() adjusts them, erasing a row when its count drops to zero.
//
// Copy-on-write snapshots (the serving subsystem, src/serve): FrozenCopy()
// returns an immutable clone that *shares* the inner shards by shared_ptr
// and copies only the outer bookkeeping (location table, combined indices).
// Every mutating path detaches a shard before touching it when a frozen copy
// still references it (use_count > 1), so readers of the copy keep seeing
// the frozen rows while the live relation moves on — the cost of a
// single-row write against a snapshotted relation is one shard clone, not a
// full-relation copy. Snapshot consumers must treat the copy as deeply
// immutable (probe FindIndexed, never Lookup/EnsureIndex). version() is a
// monotone change counter so snapshot builders can reuse a frozen copy
// across epochs while the relation is untouched.

#ifndef FACTLOG_EVAL_RELATION_H_
#define FACTLOG_EVAL_RELATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "eval/value.h"

namespace factlog::storage {
struct TableSpace;
class PagedRowStore;
}  // namespace factlog::storage

namespace factlog::eval {

/// How a Relation stores its rows. Applied uniformly by Database to base
/// relations and by the evaluators to the IDB relations they create.
struct StorageOptions {
  /// Number of hash shards. 0 and 1 both mean the flat single-shard layout.
  size_t num_shards = 1;
  /// Columns the shard hash is computed over. Empty means column 0; columns
  /// outside the relation's arity are ignored. Partitioning on the columns a
  /// join will probe keeps same-key rows in one shard.
  std::vector<int> partition_cols;
};

/// A set of tuples of ValueIds. Rows are stored in insertion order; hash
/// indices over column subsets are built on first use and kept incrementally
/// up to date. With num_shards > 1 rows are hash-partitioned across shards.
class Relation {
 public:
  explicit Relation(size_t arity) : Relation(arity, StorageOptions{}) {}
  Relation(size_t arity, const StorageOptions& storage);
  ~Relation();

  size_t arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Pre-sizes row storage and the dedup table for `rows` total rows, so a
  /// bulk load (fixpoint merge, shard build) does not reallocate per row.
  /// Row storage at least doubles when it grows, so reserving a few more
  /// rows every fixpoint round stays amortized.
  void Reserve(size_t rows);

  /// Inserts a row (length == arity), routed to its shard. Returns true when
  /// the row is new.
  bool Insert(const std::vector<ValueId>& row);
  bool Insert(std::vector<ValueId>&& row);
  bool Insert(const ValueId* row);

  bool Contains(const ValueId* row) const;

  /// Removes `row` if present (swap-remove; see the deletion notes above).
  /// Returns true when a row was removed. On a sharded relation the outer
  /// global order desyncs: call SyncShards() before the next global read.
  bool Erase(const ValueId* row);

  // ---- Support counts (incremental maintenance) ---------------------------

  /// Enables per-row support counts, (re)setting every existing row's count
  /// to zero — the caller rebuilds exact counts with AddSupport(+1) per
  /// derivation. Plain Insert gives new rows a count of 1 once enabled.
  /// Counted relations are flat: requires shard_count() == 1.
  void EnableSupportCounts();
  bool support_counts_enabled() const { return counts_enabled_; }

  /// Adds `delta` to the row's support count, inserting the row (at count
  /// `delta`) when absent and erasing it when the count drops to zero or
  /// below. Returns the new count (0 when the row was erased or when called
  /// with delta <= 0 on an absent row). Requires EnableSupportCounts().
  int64_t AddSupport(const ValueId* row, int64_t delta);

  /// The row's support count (0 when absent). Rows never touched by
  /// AddSupport report the count Insert gave them (1).
  int64_t SupportOf(const ValueId* row) const;

  /// Pointer to the idx-th row (arity() consecutive ValueIds), in global
  /// insertion order. Arity-0 relations have no cells; the returned pointer
  /// is only valid for reading arity() values. On a page-backed relation the
  /// pointer aims into a per-thread copy-out ring and stays valid only until
  /// the same thread's next few row() calls (see PagedRow).
  const ValueId* row(size_t idx) const {
    if (shards_.empty()) {
      if (paged_ != nullptr) return PagedRow(idx);
      return cells_.data() + idx * arity_;
    }
    uint64_t loc = row_locs_[idx];
    return shards_[loc >> 32]->row(static_cast<uint32_t>(loc));
  }

  /// Returns indices of rows whose `cols` project onto `key`. `cols` must be
  /// strictly increasing. Builds (and caches) the index on first use, and
  /// remembers the last `cols` it resolved so repeated probes on one column
  /// set skip the index-map search.
  const std::vector<uint32_t>& Lookup(const std::vector<int>& cols,
                                      const std::vector<ValueId>& key);

  /// Builds the combined index over `cols` now (no-op when already built).
  /// Call before sharing the relation read-only across threads.
  void EnsureIndex(const std::vector<int>& cols);

  /// Const lookup against an already-built index: the rows matching `key`,
  /// or nullptr when no index over `cols` exists (caller falls back to a
  /// scan). Never builds, so it is safe for concurrent readers.
  const std::vector<uint32_t>* FindIndexed(const std::vector<int>& cols,
                                           const std::vector<ValueId>& key)
      const;

  /// Whether the combined index over `cols` is already built (readers of a
  /// frozen copy will probe it instead of scanning).
  bool HasIndex(const std::vector<int>& cols) const {
    return indices_.count(cols) > 0;
  }

  /// Monotone change counter: bumped by every insert, erase, Clear, index
  /// build, and completed SyncShards. Shard-local merges (MergeShard) only
  /// surface here once SyncShards runs — by design, so concurrent merges on
  /// distinct shards never race the counter.
  uint64_t version() const { return version_; }

  /// An immutable snapshot of this relation: shares the inner shards
  /// (shared_ptr) and copies the outer bookkeeping. O(outer state), not
  /// O(rows), in sharded mode; a flat relation is deep-copied. The relation
  /// must be in sync (SyncShards). Later mutations of this relation detach
  /// any still-shared shard first, so the copy stays frozen.
  std::shared_ptr<Relation> FrozenCopy() const;

  void Clear();

  /// Copies all rows of `other` into this relation (deduplicating). Returns
  /// the number of rows that were new. Shard counts may differ (rows are
  /// re-routed); when both sides share the same shard layout the copy runs
  /// shard-to-shard without re-hashing.
  size_t Absorb(const Relation& other);

  // ---- Sharding -----------------------------------------------------------

  /// Number of shards (1 for the flat layout).
  size_t shard_count() const { return shards_.empty() ? 1 : shards_.size(); }

  /// The s-th shard as a self-contained single-shard Relation: its own rows,
  /// dedup table, and indices, with shard-local row ids. A flat relation is
  /// its own only shard.
  const Relation& shard(size_t s) const {
    return shards_.empty() ? *this : *shards_[s];
  }

  /// The normalized partition columns rows are routed by (empty iff arity 0).
  const std::vector<int>& partition_cols() const { return part_cols_; }

  /// The options that reproduce this relation's layout.
  StorageOptions storage_options() const {
    return StorageOptions{shard_count(), part_cols_};
  }

  /// The shard `row` routes to (always 0 for a flat relation). Deterministic
  /// across Relation instances with equal partition_cols/shard_count, so
  /// identically-configured relations agree on every row's home shard.
  size_t ShardOf(const ValueId* row) const;

  /// Builds the `cols` index inside every shard (shard-local row ids), so
  /// each shard(s) can serve FindIndexed as a standalone join input. On a
  /// flat relation this is EnsureIndex.
  void EnsureShardIndexes(const std::vector<int>& cols);

  /// Absorbs `rows` (whose rows must all route to shard `s`; typically the
  /// s-th shard of an identically-configured buffer) into shard `s` only.
  /// Concurrent calls for distinct shards do not contend, which is the merge
  /// path of the parallel fixpoint. Leaves the outer relation out of sync —
  /// size()/row()/EnsureIndex are unreliable until SyncShards() runs. On a
  /// flat relation this is Absorb (and needs no sync).
  void MergeShard(size_t s, const Relation& rows);

  /// Rebuilds the global row order and drops stale combined indices after
  /// MergeShard or Erase calls. No-op when already in sync (cheap: compares
  /// row counts and checks the erase flag). Must be called from a single
  /// thread with no concurrent access.
  void SyncShards();

  // ---- Disk-backed storage (src/storage) ----------------------------------
  //
  // A relation can move its row store onto slotted pages in a shared
  // TableSpace (page file + buffer pool). Dedup tables, indices, and support
  // counts stay in RAM; only the cells migrate. Sharded relations page each
  // inner shard independently — the shard is the unit of paging. Frozen
  // copies of a paged relation materialize back to RAM (snapshots are
  // read-hot and short-lived; pages belong to the live relation).

  /// Moves this relation's rows (all shards) onto pages in `space`. Existing
  /// rows are appended to fresh pages; RAM cells are released. Returns false
  /// (leaving the relation in RAM) when rows cannot be paged: arity 0, a row
  /// wider than a page, support counts enabled, or page I/O failure.
  bool AttachPagedStore(std::shared_ptr<storage::TableSpace> space);

  /// Whether any shard of this relation is page-backed.
  bool is_paged() const;

  /// Copies every paged shard's rows back into RAM cells and drops the page
  /// store (freeing its pages as pending). No-op for RAM relations.
  void MaterializeToRam();

  /// Restores this (empty) relation from checkpointed page chains: one chain
  /// per shard, all pages sealed, dedup tables rebuilt by page scan. `chains`
  /// and `row_counts` must have one entry per shard.
  Status AdoptPagedChains(std::shared_ptr<storage::TableSpace> space,
                          const std::vector<std::vector<uint32_t>>& chains,
                          const std::vector<uint64_t>& row_counts);

  /// Marks every page of every paged shard sealed (immutable until the next
  /// copy-on-write). Called after a successful checkpoint: the pages are now
  /// referenced by the durable meta file.
  void SealPages();

  /// Per-shard page chains and row counts for checkpointing. A shard that is
  /// not page-backed contributes an empty chain (its rows go inline in the
  /// meta file).
  void DumpPagedChains(std::vector<std::vector<uint32_t>>* chains,
                       std::vector<uint64_t>* rows) const;

 private:
  struct VecHash {
    size_t operator()(const std::vector<ValueId>& v) const {
      size_t h = v.size();
      for (ValueId x : v) {
        h ^= std::hash<int32_t>()(x) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
      }
      return h;
    }
  };

  struct Index {
    std::unordered_map<std::vector<ValueId>, std::vector<uint32_t>, VecHash>
        buckets;
  };

  /// One dedup table slot (see the header comment).
  struct DedupSlot {
    uint32_t row_plus1 = 0;  // row id + 1; 0 marks an empty slot
    uint32_t tag = 0;        // mixed row hash; tag & mask is the home slot
  };

  /// Memberwise copy: shares the shard shared_ptrs, copies everything else.
  /// A paged source is materialized into the clone's RAM cells (the page
  /// store stays with the original). Private — only FrozenCopy and
  /// DetachShard may clone, and the clones are immutable (snapshots) or
  /// immediately owned (detached shards).
  Relation(const Relation&);
  Relation& operator=(const Relation&) = delete;

  /// Copy-on-write: clones shard `s` when a frozen copy still shares it.
  /// A reader's reference count can only *decrease* concurrently (snapshots
  /// are pinned whole, never re-shared per shard), so a stale high count
  /// merely causes an unnecessary clone — never a missed one.
  void DetachShard(size_t s);

  size_t RowHash(const ValueId* row) const;
  /// RowHash mixed down to the 32-bit dedup tag.
  uint32_t RowTag(const ValueId* row) const;
  /// Probes `row`'s chain in the (non-empty) dedup table: returns the slot
  /// holding it (*found = true), else the empty slot that ends the chain.
  size_t ProbeDedup(const ValueId* row, uint32_t tag, bool* found) const;
  /// Grows the dedup table (rehashing by tag) until `rows` fit at load
  /// <= 1/2. Never shrinks.
  void GrowDedup(size_t rows);
  /// Puts row id `r` into the first empty slot of its chain (no dup check).
  void PlaceSlot(uint32_t r, uint32_t tag);
  /// Empties slot `hole`, shifting later entries of its cluster back.
  void RemoveSlot(size_t hole);
  /// The index over `cols`, built on first use.
  Index& IndexFor(const std::vector<int>& cols);
  void AddRowToIndex(const std::vector<int>& cols, Index* index, uint32_t r);
  void RemoveRowFromIndexes(uint32_t r);
  void RenumberRowInIndexes(uint32_t from, uint32_t to);
  bool InsertFlat(const ValueId* row);
  bool InsertIntoShard(size_t s, const ValueId* row);
  bool EraseFlat(const ValueId* row);
  /// Row id of `row` in flat storage, or -1 when absent.
  int64_t FindRowFlat(const ValueId* row) const;
  /// Bookkeeping after an inner shard grew or shrank by one row.
  void NoteShardInsert(size_t s);
  void NoteShardErase();

  // ---- Paged-store internals ----------------------------------------------
  /// Copies the idx-th paged row into a slot of a per-thread ring and returns
  /// it. The ring is deep enough for every concurrent row() pointer the
  /// evaluators hold (they consume each row before fetching the next); the
  /// probe loops that hold a caller pointer across many row() calls stabilize
  /// it first (insert_scratch_/erase_scratch_, thread-local probe buffers).
  const ValueId* PagedRow(size_t idx) const;
  /// Appends one row to flat storage (pages when attached, cells_ otherwise).
  /// A page I/O failure falls back to RAM with a warning — availability over
  /// paging.
  void AppendRowStorage(const ValueId* row);
  /// Overwrites flat row r (the erase swap). `src` must not point into the
  /// copy-out ring (callers stabilize it first).
  void WriteRowStorage(uint32_t r, const ValueId* src);
  /// Drops the last flat row.
  void PopBackStorage();
  /// Rebuilds dedup_ from scratch by scanning every row (after adopting
  /// checkpointed chains).
  void RebuildDedup();

  size_t arity_;
  size_t num_rows_ = 0;
  // Flat storage (single-shard mode; also each inner shard).
  std::vector<ValueId> cells_;
  // Open-addressing dedup table (flat mode / each inner shard): empty or a
  // power-of-two number of slots.
  std::vector<DedupSlot> dedup_;
  // column list -> combined index (global row ids in sharded mode).
  std::map<std::vector<int>, Index> indices_;
  // Lookup's memo of its last resolved column list. map nodes are stable, so
  // the pointer holds until indices_ is cleared (every clear resets it). A
  // copy starts without one; the const FindIndexed never uses it.
  std::vector<int> lookup_cols_;
  Index* lookup_index_ = nullptr;
  // Scratch key for index maintenance; avoids an allocation per (row, index)
  // on the fixpoint's hot insert path.
  std::vector<ValueId> key_scratch_;
  // Per-row support counts (flat mode / each inner shard), parallel to the
  // row store; maintained only once EnableSupportCounts() ran.
  bool counts_enabled_ = false;
  std::vector<int64_t> counts_;
  // Set by Erase on a sharded relation: the global row order is stale even
  // though the row-count comparison in SyncShards balances out.
  bool needs_sync_ = false;
  // Monotone change counter (see version()).
  uint64_t version_ = 0;
  // Sharded storage: inner single-shard relations plus the global insertion
  // order as packed (shard << 32 | local) locations. shared_ptr for the
  // copy-on-write snapshot scheme: frozen copies share shards until a
  // mutation detaches them.
  std::vector<int> part_cols_;
  std::vector<std::shared_ptr<Relation>> shards_;
  std::vector<uint64_t> row_locs_;
  // Page-backed row store (flat mode / each inner shard); null = RAM cells_.
  std::unique_ptr<storage::PagedRowStore> paged_;
  // Stabilization buffers: a caller's row pointer may aim into the copy-out
  // ring of a *paged* relation (e.g. Absorb feeding src.row(r) to Insert);
  // the mutating probe loops copy it here before their own row() calls can
  // recycle the slot.
  std::vector<ValueId> insert_scratch_;
  std::vector<ValueId> erase_scratch_;
  std::vector<ValueId> move_scratch_;
  static const std::vector<uint32_t> kEmptyRows;
};

}  // namespace factlog::eval

#endif  // FACTLOG_EVAL_RELATION_H_
