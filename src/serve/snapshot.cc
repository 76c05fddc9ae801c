#include "serve/snapshot.h"

#include <utility>

#include "plan/join_plan.h"

namespace factlog::serve {

std::shared_ptr<Snapshot> SnapshotBuilder::Build(eval::Database* live) {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = next_epoch_++;
  snap->db = std::make_shared<eval::Database>(live->shared_store(),
                                             live->storage_options());
  for (const auto& [name, rel] : live->relations()) {
    // Mutation entry points leave relations synced; FrozenCopy requires it
    // (a stale location table would be published otherwise). No-op when
    // already in sync.
    rel->SyncShards();
    Cached& c = cache_[name];
    if (c.frozen == nullptr || c.version != rel->version()) {
      c.frozen = rel->FrozenCopy();
      c.version = rel->version();
      ++copies_;
    }
    snap->db->PutRelation(name, c.frozen);
  }
  return snap;
}

std::shared_ptr<const Snapshot> SnapshotManager::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

void SnapshotManager::Install(std::shared_ptr<const Snapshot> snap) {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(snap);
  installs_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SnapshotManager::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ == nullptr ? 0 : current_->epoch;
}

void IndexVocabulary::Register(const std::string& rel,
                               const std::vector<int>& cols) {
  if (cols.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  needs_[rel].insert(cols);
}

void IndexVocabulary::RegisterFromPlan(const core::CompiledQuery& compiled,
                                       const plan::ProgramPlan& evaluated) {
  for (const auto& [pred, cols] :
       plan::BaseIndexNeeds(compiled.program, evaluated, compiled.query)) {
    Register(pred, cols);
  }
}

std::map<std::string, std::set<std::vector<int>>> IndexVocabulary::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::set<std::vector<int>>> out;
  out.swap(needs_);
  return out;
}

size_t IndexVocabulary::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [rel, set] : needs_) n += set.size();
  return n;
}

}  // namespace factlog::serve
