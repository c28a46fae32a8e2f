#include "serve/sharded_service.h"

#include <algorithm>
#include <map>
#include <utility>

namespace hcore {

CommunityResult ShardedServiceView::Community(
    const std::vector<VertexId>& query, int h) const {
  const Graph& g = graph();
  if (query.empty() || g.num_vertices() == 0) return {};
  for (VertexId q : query) HCORE_CHECK(q < g.num_vertices());
  return DistanceCocktailPartyFromCores(g, query, h, snap_->Cores(h));
}

ShardedHCoreService::ShardedHCoreService(Graph g,
                                         const ShardedServiceOptions& options)
    : options_(options), index_(std::move(g), options.index) {
  HCORE_CHECK(options_.num_shards == 1);
  // Not shared yet, but view_ is guarded — hold the lock it names.
  MutexLock lock(mu_);
  view_.reset(new ShardedServiceView(index_.snapshot()));
}

std::shared_ptr<const ShardedServiceView> ShardedHCoreService::view() const {
  MutexLock lock(mu_);
  return view_;
}

size_t ShardedHCoreService::ApplyBatch(std::span<const EdgeEdit> edits) {
  if (options_.group_commit) return GroupCommit(edits);
  MutexLock writer(update_mu_);
  return ApplyLocked(edits).size();
}

std::vector<EdgeEdit> ShardedHCoreService::ApplyLocked(
    std::span<const EdgeEdit> edits) {
  const std::shared_ptr<const ShardedServiceView> prev = view();
  EdgeEditSummary summary;
  std::vector<EdgeEdit> effective =
      prev->graph().CanonicalEffectiveEdits(edits, &summary);
  if (effective.empty()) return effective;
  std::shared_ptr<const ShardedServiceView> next(
      new ShardedServiceView(index_.ApplyPrepared(effective, summary)));

  // Copy-on-write accounting: what this epoch's graph shared vs rebuilt of
  // its predecessor's pages.
  const size_t shared_pages = CountSharedPages(prev->graph(), next->graph());
  const size_t copied_pages = next->graph().num_pages() - shared_pages;

  MutexLock lock(mu_);
  view_ = std::move(next);
  memory_.pages_shared += shared_pages;
  memory_.pages_copied += copied_pages;
  return effective;
}

size_t ShardedHCoreService::GroupCommit(std::span<const EdgeEdit> edits) {
  PendingWrite req;
  req.edits = edits;
  std::vector<PendingWrite*> group;
  {
    MutexLock lock(commit_mu_);
    commit_queue_.push_back(&req);
    for (;;) {
      if (req.done) return req.applied;  // a leader carried this write
      if (!commit_leader_) break;        // become the leader
      commit_cv_.Wait(lock);
    }
    commit_leader_ = true;
    group = std::move(commit_queue_);
    commit_queue_.clear();
  }
  CommitGroup(group);
  {
    MutexLock lock(commit_mu_);
    for (PendingWrite* w : group) w->done = true;
    commit_leader_ = false;
  }
  // Wake coalesced members AND any writer that queued during the commit —
  // the latter sees the leader flag clear and elects itself.
  commit_cv_.NotifyAll();
  return req.applied;
}

void ShardedHCoreService::CommitGroup(std::span<PendingWrite* const> group) {
  // Concatenate in arrival order: canonicalization's last-edit-wins then
  // composes across writers exactly as if they had serialized.
  std::vector<EdgeEdit> combined;
  size_t total = 0;
  for (const PendingWrite* w : group) total += w->edits.size();
  combined.reserve(total);
  for (const PendingWrite* w : group) {
    combined.insert(combined.end(), w->edits.begin(), w->edits.end());
  }
  std::vector<EdgeEdit> effective;
  {
    MutexLock writer(update_mu_);
    effective = ApplyLocked(combined);
  }

  // Attribution: each effective edit belongs to the writer holding the LAST
  // edit of that edge in arrival order (the one canonicalization kept).
  std::map<std::pair<VertexId, VertexId>, size_t> last_writer;
  for (size_t i = 0; i < group.size(); ++i) {
    for (const EdgeEdit& e : group[i]->edits) {
      last_writer[std::minmax(e.u, e.v)] = i;
    }
  }
  for (const EdgeEdit& e : effective) {
    ++group[last_writer.at({e.u, e.v})]->applied;
  }
}

ShardedServiceStats ShardedHCoreService::stats() const {
  ShardedServiceStats out;
  out.index = index_.stats();
  MutexLock lock(mu_);
  out.memory = memory_;
  // Point-in-time footprint of the current epoch's graph.
  out.memory.resident_bytes = view_->graph().MemoryBytes();
  out.memory.graph_pages = view_->graph().num_pages();
  return out;
}

void ShardedHCoreService::ResetStats() {
  index_.ResetStats();
  MutexLock lock(mu_);
  memory_ = GraphMemoryStats{};
}

}  // namespace hcore
