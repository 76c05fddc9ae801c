#include "eval/relation.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/dcheck.h"
#include "storage/paged_store.h"

namespace factlog::eval {

namespace {

inline uint64_t PackLoc(size_t shard, size_t local) {
  return (static_cast<uint64_t>(shard) << 32) | static_cast<uint32_t>(local);
}

// Grows `v`'s capacity to at least `n`, at least doubling it: the fixpoints
// reserve once per round for a few more rows (full += delta), and an exact
// reserve would reallocate and copy the whole vector every round.
template <typename T>
void ReserveGeometric(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) v->reserve(std::max(n, 2 * v->capacity()));
}

}  // namespace

const std::vector<uint32_t> Relation::kEmptyRows;

Relation::Relation(size_t arity, const StorageOptions& storage)
    : arity_(arity) {
  if (arity_ > 0) {
    for (int c : storage.partition_cols) {
      if (c >= 0 && static_cast<size_t>(c) < arity_) part_cols_.push_back(c);
    }
    if (part_cols_.empty()) part_cols_.push_back(0);
  }
  // Arity-0 relations hold at most one row; sharding them buys nothing.
  if (storage.num_shards > 1 && arity_ > 0) {
    shards_.reserve(storage.num_shards);
    for (size_t s = 0; s < storage.num_shards; ++s) {
      shards_.push_back(std::make_shared<Relation>(arity_));
    }
  }
}

Relation::~Relation() = default;

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      num_rows_(other.num_rows_),
      cells_(other.cells_),
      dedup_(other.dedup_),
      indices_(other.indices_),
      counts_enabled_(other.counts_enabled_),
      counts_(other.counts_),
      needs_sync_(other.needs_sync_),
      version_(other.version_),
      part_cols_(other.part_cols_),
      shards_(other.shards_),
      row_locs_(other.row_locs_) {
  // A paged source keeps its page store; the clone gets RAM cells. Row order
  // is preserved, so the copied dedup table and indices stay valid.
  if (other.paged_ != nullptr) {
    cells_.resize(num_rows_ * arity_);
    for (size_t r = 0; r < num_rows_; ++r) {
      Status st = other.paged_->CopyRow(r, cells_.data() + r * arity_);
      if (!st.ok()) {
        std::fprintf(stderr, "factlog: paged row read failed in copy: %s\n",
                     st.ToString().c_str());
      }
    }
  }
}

std::shared_ptr<Relation> Relation::FrozenCopy() const {
  // The copy ctor is private (shared_ptr<Relation>(new ...) instead of
  // make_shared): it shares the shard pointers, so the copy is O(outer
  // bookkeeping) in sharded mode and a deep copy only for flat relations.
  return std::shared_ptr<Relation>(new Relation(*this));
}

void Relation::DetachShard(size_t s) {
  if (shards_[s].use_count() > 1) {
    shards_[s] = std::shared_ptr<Relation>(new Relation(*shards_[s]));
  }
}

size_t Relation::RowHash(const ValueId* row) const {
  size_t h = arity_;
  for (size_t i = 0; i < arity_; ++i) {
    h ^= std::hash<int32_t>()(row[i]) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
  return h;
}

uint32_t Relation::RowTag(const ValueId* row) const {
  // RowHash feeds identity-hashed int32s into its combine, so its low bits
  // cluster; fold the halves and keep the high half of a Fibonacci product.
  uint64_t h = RowHash(row);
  h ^= h >> 32;
  return static_cast<uint32_t>((h * 0x9e3779b97f4a7c15ULL) >> 32);
}

size_t Relation::ProbeDedup(const ValueId* row, uint32_t tag,
                            bool* found) const {
  const size_t mask = dedup_.size() - 1;
  size_t pos = tag & mask;
  // Load <= 1/2 guarantees an empty slot ends every chain.
  for (;; pos = (pos + 1) & mask) {
    const DedupSlot& slot = dedup_[pos];
    if (slot.row_plus1 == 0) break;
    // Arity-0 rows are all equal (and may be null pointers — never handed
    // to memcmp).
    if (slot.tag == tag &&
        (arity_ == 0 || std::memcmp(this->row(slot.row_plus1 - 1), row,
                                    arity_ * sizeof(ValueId)) == 0)) {
      *found = true;
      return pos;
    }
  }
  *found = false;
  return pos;
}

void Relation::GrowDedup(size_t rows) {
  size_t capacity = dedup_.empty() ? 16 : dedup_.size();
  while (capacity < 2 * rows) capacity *= 2;
  if (capacity == dedup_.size()) return;
  std::vector<DedupSlot> old(capacity);
  old.swap(dedup_);
  for (const DedupSlot& slot : old) {
    if (slot.row_plus1 != 0) PlaceSlot(slot.row_plus1 - 1, slot.tag);
  }
}

void Relation::PlaceSlot(uint32_t r, uint32_t tag) {
  const size_t mask = dedup_.size() - 1;
  size_t pos = tag & mask;
  while (dedup_[pos].row_plus1 != 0) pos = (pos + 1) & mask;
  dedup_[pos] = DedupSlot{r + 1, tag};
}

void Relation::RemoveSlot(size_t hole) {
  const size_t mask = dedup_.size() - 1;
  for (size_t pos = (hole + 1) & mask; dedup_[pos].row_plus1 != 0;
       pos = (pos + 1) & mask) {
    // The entry may fill the hole iff the hole lies on its probe path, i.e.
    // its home is no later than the hole (cyclically) on the way to pos.
    const size_t home = dedup_[pos].tag & mask;
    if (((pos - home) & mask) >= ((pos - hole) & mask)) {
      dedup_[hole] = dedup_[pos];
      hole = pos;
    }
  }
  dedup_[hole] = DedupSlot{};
}

size_t Relation::ShardOf(const ValueId* row) const {
  if (shards_.empty()) return 0;
  // FNV-1a over the partition columns; only used to spread rows across
  // shards, so any deterministic mix works. Must stay a pure function of the
  // row values so identically-configured relations route rows alike.
  uint64_t h = 1469598103934665603ULL;
  for (int c : part_cols_) {
    h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(row[c]))) *
        1099511628211ULL;
  }
  return static_cast<size_t>(h % shards_.size());
}

void Relation::Reserve(size_t rows) {
  if (shards_.empty()) {
    if (paged_ == nullptr) ReserveGeometric(&cells_, rows * arity_);
    GrowDedup(rows);
    return;
  }
  ReserveGeometric(&row_locs_, rows);
  size_t per_shard = rows / shards_.size() + 1;
  for (auto& sh : shards_) {
    // A shard still shared with a frozen copy must not be touched; the hint
    // is skipped rather than forcing a clone — the first insert detaches.
    if (sh.use_count() == 1) sh->Reserve(per_shard);
  }
}

bool Relation::Insert(const std::vector<ValueId>& row) {
  return Insert(row.data());
}

bool Relation::Insert(std::vector<ValueId>&& row) {
  // Rows live in the flat cells_ array, so there is no buffer to steal; the
  // overload exists so temporaries bind without forcing an lvalue at the
  // call site.
  return Insert(row.data());
}

bool Relation::Insert(const ValueId* row) {
  if (shards_.empty()) return InsertFlat(row);
  return InsertIntoShard(ShardOf(row), row);
}

bool Relation::InsertFlat(const ValueId* row) {
  if (paged_ != nullptr && row != insert_scratch_.data()) {
    // The dedup probe below calls this->row(r), which on a paged relation
    // recycles copy-out ring slots — including, eventually, the one `row`
    // may point into. Park the incoming row in a member buffer first.
    insert_scratch_.assign(row, row + arity_);
    row = insert_scratch_.data();
  }
  // Grow first so the probe's final empty slot is where the row goes.
  GrowDedup(num_rows_ + 1);
  const uint32_t tag = RowTag(row);
  bool found = false;
  const size_t pos = ProbeDedup(row, tag, &found);
  if (found) return false;
  uint32_t new_row = static_cast<uint32_t>(num_rows_);
  dedup_[pos] = DedupSlot{new_row + 1, tag};
  if (arity_ > 0) AppendRowStorage(row);
  ++num_rows_;
  ++version_;
  if (counts_enabled_) counts_.push_back(1);
  for (auto& [cols, index] : indices_) {
    AddRowToIndex(cols, &index, new_row);
  }
  return true;
}

void Relation::NoteShardInsert(size_t s) {
  uint32_t global = static_cast<uint32_t>(num_rows_);
  ++num_rows_;
  ++version_;
  // After an erase the global order is already stale and will be rebuilt
  // wholesale by SyncShards; appending to it would record bogus locations.
  if (needs_sync_) return;
  row_locs_.push_back(PackLoc(s, shards_[s]->size() - 1));
  for (auto& [cols, index] : indices_) {
    AddRowToIndex(cols, &index, global);
  }
}

void Relation::NoteShardErase() {
  --num_rows_;
  ++version_;
  needs_sync_ = true;
  // Combined indices hold global row ids that no longer resolve; drop them
  // and let SyncShards/EnsureIndex rebuild on demand.
  indices_.clear();
  lookup_index_ = nullptr;
}

bool Relation::InsertIntoShard(size_t s, const ValueId* row) {
  if (shards_[s].use_count() > 1) {
    // COW: don't clone a still-snapshotted shard for a duplicate row. The
    // extra Contains probe only runs on shared shards, keeping the fixpoint
    // hot path (exclusively owned shards) unchanged.
    if (shards_[s]->Contains(row)) return false;
    DetachShard(s);
  }
  if (!shards_[s]->InsertFlat(row)) return false;
  NoteShardInsert(s);
  return true;
}

int64_t Relation::FindRowFlat(const ValueId* row) const {
  if (dedup_.empty()) return -1;
  if (paged_ != nullptr && arity_ > 0) {
    // The probe loop's this->row(r) calls recycle ring slots; `row` may be
    // one. Stabilize into a thread-local (not the ring) before probing.
    thread_local std::vector<ValueId> stable;
    if (row != stable.data()) {
      stable.assign(row, row + arity_);
      row = stable.data();
    }
  }
  bool found = false;
  const size_t pos = ProbeDedup(row, RowTag(row), &found);
  return found ? static_cast<int64_t>(dedup_[pos].row_plus1 - 1) : -1;
}

namespace {

// Removes one occurrence of `id` from `ids` (swap-pop; order is irrelevant
// for index posting lists).
void RemoveRowId(std::vector<uint32_t>* ids, uint32_t id) {
  for (size_t i = 0; i < ids->size(); ++i) {
    if ((*ids)[i] == id) {
      (*ids)[i] = ids->back();
      ids->pop_back();
      return;
    }
  }
}

void ReplaceRowId(std::vector<uint32_t>* ids, uint32_t from, uint32_t to) {
  for (uint32_t& id : *ids) {
    if (id == from) {
      id = to;
      return;
    }
  }
}

}  // namespace

void Relation::RemoveRowFromIndexes(uint32_t r) {
  const ValueId* cells = row(r);
  for (auto& [cols, index] : indices_) {
    key_scratch_.clear();
    for (int c : cols) key_scratch_.push_back(cells[c]);
    auto it = index.buckets.find(key_scratch_);
    if (it == index.buckets.end()) continue;
    RemoveRowId(&it->second, r);
    if (it->second.empty()) index.buckets.erase(it);
  }
}

void Relation::RenumberRowInIndexes(uint32_t from, uint32_t to) {
  const ValueId* cells = row(from);
  for (auto& [cols, index] : indices_) {
    key_scratch_.clear();
    for (int c : cols) key_scratch_.push_back(cells[c]);
    auto it = index.buckets.find(key_scratch_);
    if (it != index.buckets.end()) ReplaceRowId(&it->second, from, to);
  }
}

bool Relation::EraseFlat(const ValueId* row) {
  if (dedup_.empty()) return false;
  if (paged_ != nullptr && arity_ > 0 && row != erase_scratch_.data()) {
    // The probe loop's this->row(r) calls recycle copy-out ring slots `row`
    // may point into; stabilize it for the whole erase.
    erase_scratch_.assign(row, row + arity_);
    row = erase_scratch_.data();
  }
  bool found = false;
  const size_t pos = ProbeDedup(row, RowTag(row), &found);
  if (!found) return false;
  ++version_;
  uint32_t r = dedup_[pos].row_plus1 - 1;
  uint32_t last = static_cast<uint32_t>(num_rows_ - 1);

  // Unhook row r from the dedup table and every built index while its cells
  // are still intact.
  RemoveSlot(pos);
  RemoveRowFromIndexes(r);

  if (r != last) {
    // The last row moves into slot r: renumber it everywhere, then copy its
    // cells (the index/dedup keys are value-based, so only the id changes).
    const ValueId* last_cells = this->row(last);
    if (paged_ != nullptr) {
      // RenumberRowInIndexes re-reads row(last), recycling ring slots.
      move_scratch_.assign(last_cells, last_cells + arity_);
      last_cells = move_scratch_.data();
    }
    // Renumber the last row's slot: it sits on its tag's chain, and the row
    // id alone identifies it (no cell compare).
    const size_t mask = dedup_.size() - 1;
    size_t lpos = RowTag(last_cells) & mask;
    while (dedup_[lpos].row_plus1 != last + 1) lpos = (lpos + 1) & mask;
    dedup_[lpos].row_plus1 = r + 1;
    RenumberRowInIndexes(last, r);
    if (arity_ > 0) WriteRowStorage(r, last_cells);
    if (counts_enabled_) counts_[r] = counts_[last];
  }
  if (arity_ > 0) PopBackStorage();
  if (counts_enabled_) counts_.pop_back();
  --num_rows_;
  return true;
}

bool Relation::Erase(const ValueId* row) {
  if (shards_.empty()) return EraseFlat(row);
  size_t s = ShardOf(row);
  if (shards_[s].use_count() > 1) {
    // COW: don't clone a still-snapshotted shard for an absent row.
    if (!shards_[s]->Contains(row)) return false;
    DetachShard(s);
  }
  if (!shards_[s]->EraseFlat(row)) return false;
  NoteShardErase();
  return true;
}

void Relation::EnableSupportCounts() {
  FACTLOG_DCHECK(shards_.empty());  // counted relations are flat
  counts_enabled_ = true;
  ++version_;
  // Counted relations are write-hot delta/view state; keep them in RAM
  // (AttachPagedStore refuses them for the same reason).
  if (paged_ != nullptr) MaterializeToRam();
  counts_.assign(num_rows_, 0);
}

int64_t Relation::SupportOf(const ValueId* row) const {
  if (!counts_enabled_) return Contains(row) ? 1 : 0;
  int64_t r = FindRowFlat(row);
  return r < 0 ? 0 : counts_[static_cast<size_t>(r)];
}

int64_t Relation::AddSupport(const ValueId* row, int64_t delta) {
  FACTLOG_DCHECK(shards_.empty());  // counted relations are flat
  // Auto-enabling on an empty relation lets delta buffers skip the explicit
  // call; on a populated one the caller must have enabled (and rebuilt)
  // counts already, or the zeroed counts would misreport support.
  if (!counts_enabled_) EnableSupportCounts();
  int64_t r = FindRowFlat(row);
  if (r < 0) {
    if (delta <= 0) return 0;
    InsertFlat(row);
    counts_.back() = delta;
    return delta;
  }
  int64_t count = counts_[static_cast<size_t>(r)] + delta;
  if (count <= 0) {
    EraseFlat(row);
    return 0;
  }
  counts_[static_cast<size_t>(r)] = count;
  return count;
}

bool Relation::Contains(const ValueId* row) const {
  const Relation* r = shards_.empty() ? this : shards_[ShardOf(row)].get();
  return r->FindRowFlat(row) >= 0;
}

void Relation::AddRowToIndex(const std::vector<int>& cols, Index* index,
                             uint32_t r) {
  key_scratch_.clear();
  const ValueId* cells = row(r);
  for (int c : cols) key_scratch_.push_back(cells[c]);
  // try_emplace copies the scratch key only when the bucket is new.
  auto [it, inserted] = index->buckets.try_emplace(key_scratch_);
  (void)inserted;
  it->second.push_back(r);
}

Relation::Index& Relation::IndexFor(const std::vector<int>& cols) {
  auto [it, inserted] = indices_.try_emplace(cols);
  Index& index = it->second;
  if (!inserted) return index;
  ++version_;  // frozen copies must re-copy to pick up the new index
  for (uint32_t r = 0; r < num_rows_; ++r) {
    AddRowToIndex(cols, &index, r);
  }
  return index;
}

void Relation::EnsureIndex(const std::vector<int>& cols) { IndexFor(cols); }

void Relation::EnsureShardIndexes(const std::vector<int>& cols) {
  if (shards_.empty()) {
    EnsureIndex(cols);
    return;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    // Detach only shards that lack the index — building mutates the shard;
    // shards that already carry it stay shared with any frozen copy.
    if (shards_[s]->HasIndex(cols)) continue;
    DetachShard(s);
    shards_[s]->EnsureIndex(cols);
  }
}

const std::vector<uint32_t>* Relation::FindIndexed(
    const std::vector<int>& cols, const std::vector<ValueId>& key) const {
  auto it = indices_.find(cols);
  if (it == indices_.end()) return nullptr;
  auto bucket = it->second.buckets.find(key);
  if (bucket == it->second.buckets.end()) return &kEmptyRows;
  return &bucket->second;
}

const std::vector<uint32_t>& Relation::Lookup(const std::vector<int>& cols,
                                              const std::vector<ValueId>& key) {
  if (lookup_index_ == nullptr || cols != lookup_cols_) {
    lookup_index_ = &IndexFor(cols);
    lookup_cols_ = cols;
  }
  auto bucket = lookup_index_->buckets.find(key);
  return bucket == lookup_index_->buckets.end() ? kEmptyRows : bucket->second;
}

void Relation::Clear() {
  // The dedup table keeps its capacity. Only a populated table needs the
  // zero-fill: erases leave empty slots behind, never tombstones.
  if (num_rows_ != 0) std::fill(dedup_.begin(), dedup_.end(), DedupSlot{});
  num_rows_ = 0;
  ++version_;
  cells_.clear();
  if (paged_ != nullptr) {
    Status st = paged_->Clear();
    if (!st.ok()) {
      std::fprintf(stderr, "factlog: paged clear failed: %s\n",
                   st.ToString().c_str());
    }
  }
  indices_.clear();
  lookup_index_ = nullptr;
  row_locs_.clear();
  counts_.clear();
  needs_sync_ = false;
  for (auto& sh : shards_) {
    if (sh.use_count() > 1) {
      // Still referenced by a frozen copy: replace instead of clearing.
      sh = std::make_shared<Relation>(arity_);
    } else {
      sh->Clear();
    }
  }
}

size_t Relation::Absorb(const Relation& other) {
  if (!shards_.empty() && other.shards_.size() == shards_.size() &&
      other.part_cols_ == part_cols_) {
    // Same partition function on both sides: every row of other's shard s
    // belongs in our shard s, so skip the route hash. Reads other's shards
    // directly, so `other` need not be synced.
    size_t inserted = 0;
    ReserveGeometric(&row_locs_, num_rows_ + other.num_rows_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      const Relation& src = *other.shards_[s];
      if (src.empty()) continue;
      DetachShard(s);  // rows are coming; detach once instead of per row
      shards_[s]->Reserve(shards_[s]->size() + src.size());
      const bool src_paged = src.paged_ != nullptr;
      for (size_t r = 0; r < src.size(); ++r) {
        const ValueId* src_row = src.row(r);
        if (src_paged) {
          // src.row(r) points into the copy-out ring; the insert's own row()
          // probes would recycle it. Hold it in a stable buffer instead.
          move_scratch_.assign(src_row, src_row + arity_);
          src_row = move_scratch_.data();
        }
        if (InsertIntoShard(s, src_row)) ++inserted;
      }
    }
    return inserted;
  }
  Reserve(num_rows_ + other.size());
  size_t inserted = 0;
  const bool other_paged = other.is_paged();
  for (size_t r = 0; r < other.size(); ++r) {
    const ValueId* src_row = other.row(r);
    if (other_paged) {
      move_scratch_.assign(src_row, src_row + arity_);
      src_row = move_scratch_.data();
    }
    if (Insert(src_row)) ++inserted;
  }
  return inserted;
}

void Relation::MergeShard(size_t s, const Relation& rows) {
  if (shards_.empty()) {
    Absorb(rows);
    return;
  }
  DetachShard(s);
  shards_[s]->Absorb(rows);
}

// ---- Paged-store plumbing ---------------------------------------------------

const ValueId* Relation::PagedRow(size_t idx) const {
  // Per-thread copy-out ring: each call fills the next slot, so a thread can
  // hold up to kRingSlots live row() pointers across *all* paged relations.
  // The evaluators consume each row before fetching the next (one live
  // pointer); the probe loops that hold one across many row() calls
  // stabilize it first. Each slot is its own vector so growing one slot for
  // a wider relation never invalidates pointers handed out from the others.
  constexpr size_t kRingSlots = 16;
  thread_local std::array<std::vector<ValueId>, kRingSlots> ring;
  thread_local size_t next_slot = 0;
  std::vector<ValueId>& slot = ring[next_slot];
  next_slot = (next_slot + 1) % kRingSlots;
  if (slot.size() < arity_) slot.resize(arity_);
  Status st = paged_->CopyRow(idx, slot.data());
  if (!st.ok()) {
    // No recovery path here (callers hold raw pointers); zero the row and
    // complain loudly rather than hand out garbage.
    std::fprintf(stderr, "factlog: paged row read failed: %s\n",
                 st.ToString().c_str());
    std::fill(slot.begin(), slot.end(), 0);
  }
  return slot.data();
}

void Relation::AppendRowStorage(const ValueId* row) {
  if (paged_ != nullptr) {
    Status st = paged_->Append(row);
    if (st.ok()) return;
    std::fprintf(stderr,
                 "factlog: paged append failed (%s); relation falls back to "
                 "RAM\n",
                 st.ToString().c_str());
    MaterializeToRam();  // copies the num_rows_ existing rows; row is new
  }
  cells_.insert(cells_.end(), row, row + arity_);
}

void Relation::WriteRowStorage(uint32_t r, const ValueId* src) {
  if (paged_ != nullptr) {
    Status st = paged_->WriteRow(r, src);
    if (st.ok()) return;
    std::fprintf(stderr,
                 "factlog: paged write failed (%s); relation falls back to "
                 "RAM\n",
                 st.ToString().c_str());
    MaterializeToRam();
  }
  // memmove: in RAM mode `src` may alias cells_ (the swapped last row).
  std::memmove(&cells_[r * arity_], src, arity_ * sizeof(ValueId));
}

void Relation::PopBackStorage() {
  if (paged_ != nullptr) {
    Status st = paged_->PopBack();
    if (st.ok()) return;
    std::fprintf(stderr,
                 "factlog: paged pop failed (%s); relation falls back to "
                 "RAM\n",
                 st.ToString().c_str());
    MaterializeToRam();
  }
  cells_.resize((num_rows_ - 1) * arity_);
}

void Relation::RebuildDedup() {
  dedup_.clear();
  GrowDedup(num_rows_);
  for (uint32_t r = 0; r < static_cast<uint32_t>(num_rows_); ++r) {
    PlaceSlot(r, RowTag(this->row(r)));
  }
}

bool Relation::AttachPagedStore(std::shared_ptr<storage::TableSpace> space) {
  if (arity_ == 0 || counts_enabled_) return false;
  if (!shards_.empty()) {
    bool all = true;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s]->paged_ != nullptr) continue;
      DetachShard(s);  // never page a shard a frozen copy still reads
      all = shards_[s]->AttachPagedStore(space) && all;
    }
    return all;
  }
  if (paged_ != nullptr) return true;
  if (!storage::PagedRowStore::RowFits(arity_ * sizeof(ValueId))) return false;
  auto store = std::make_unique<storage::PagedRowStore>(
      std::move(space), arity_ * sizeof(ValueId));
  for (size_t r = 0; r < num_rows_; ++r) {
    Status st = store->Append(cells_.data() + r * arity_);
    if (!st.ok()) {
      // Stay in RAM; the partially built store frees its pages on destroy.
      std::fprintf(stderr, "factlog: paging relation failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
  }
  cells_.clear();
  cells_.shrink_to_fit();
  paged_ = std::move(store);
  return true;
}

bool Relation::is_paged() const {
  if (shards_.empty()) return paged_ != nullptr;
  for (const auto& sh : shards_) {
    if (sh->paged_ != nullptr) return true;
  }
  return false;
}

void Relation::MaterializeToRam() {
  if (shards_.empty()) {
    if (paged_ == nullptr) return;
    cells_.resize(num_rows_ * arity_);
    for (size_t r = 0; r < num_rows_; ++r) {
      Status st = paged_->CopyRow(r, cells_.data() + r * arity_);
      if (!st.ok()) {
        std::fprintf(stderr, "factlog: paged row read failed: %s\n",
                     st.ToString().c_str());
      }
    }
    paged_.reset();  // frees the chain (pending) via the store's dtor
    return;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->paged_ == nullptr) continue;
    DetachShard(s);
    shards_[s]->MaterializeToRam();
  }
}

Status Relation::AdoptPagedChains(
    std::shared_ptr<storage::TableSpace> space,
    const std::vector<std::vector<uint32_t>>& chains,
    const std::vector<uint64_t>& row_counts) {
  if (num_rows_ != 0) {
    return Status::Internal("AdoptPagedChains: relation not empty");
  }
  if (chains.size() != shard_count() || row_counts.size() != shard_count()) {
    return Status::Internal("AdoptPagedChains: shard count mismatch");
  }
  if (shards_.empty()) {
    num_rows_ = static_cast<size_t>(row_counts[0]);
    if (arity_ > 0 && num_rows_ > 0) {
      auto store = std::make_unique<storage::PagedRowStore>(
          std::move(space), arity_ * sizeof(ValueId));
      store->Restore(std::vector<storage::PageId>(chains[0].begin(),
                                                  chains[0].end()),
                     num_rows_);
      paged_ = std::move(store);
    }
    RebuildDedup();
    ++version_;
    return Status::OK();
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    FACTLOG_RETURN_IF_ERROR(
        shards_[s]->AdoptPagedChains(space, {chains[s]}, {row_counts[s]}));
  }
  needs_sync_ = true;
  SyncShards();  // rebuild row_locs_ and num_rows_ from the adopted shards
  return Status::OK();
}

void Relation::SealPages() {
  if (paged_ != nullptr) paged_->SealAll();
  for (auto& sh : shards_) {
    if (sh->paged_ != nullptr) sh->paged_->SealAll();
  }
}

void Relation::DumpPagedChains(std::vector<std::vector<uint32_t>>* chains,
                               std::vector<uint64_t>* rows) const {
  chains->clear();
  rows->clear();
  if (shards_.empty()) {
    chains->push_back(paged_ != nullptr
                          ? std::vector<uint32_t>(paged_->chain().begin(),
                                                  paged_->chain().end())
                          : std::vector<uint32_t>{});
    rows->push_back(num_rows_);
    return;
  }
  for (const auto& sh : shards_) {
    chains->push_back(sh->paged_ != nullptr
                          ? std::vector<uint32_t>(sh->paged_->chain().begin(),
                                                  sh->paged_->chain().end())
                          : std::vector<uint32_t>{});
    rows->push_back(sh->size());
  }
}

void Relation::SyncShards() {
  if (shards_.empty()) return;
  size_t total = 0;
  for (const auto& sh : shards_) total += sh->size();
  // MergeShard leaves the counts unequal; Erase balances them but raises the
  // flag (local row ids shifted under the stale location table).
  if (total == num_rows_ && !needs_sync_) return;
  // Rows merged shard-directly have no global order yet; rebuild it
  // shard-major. Combined indices hold the old global ids, so drop them and
  // let EnsureIndex rebuild on demand.
  row_locs_.clear();
  row_locs_.reserve(total);
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (size_t local = 0; local < shards_[s]->size(); ++local) {
      row_locs_.push_back(PackLoc(s, local));
    }
  }
  num_rows_ = total;
  ++version_;  // MergeShard deltas become visible here, not per merge
  indices_.clear();
  lookup_index_ = nullptr;
  needs_sync_ = false;
}

}  // namespace factlog::eval
