#include "core/memory_manager.h"

#include <utility>

#include "common/check.h"

namespace rtq::core {

MemoryManager::MemoryManager(PageCount total_pages,
                             std::unique_ptr<AllocationStrategy> strategy,
                             ApplyFn apply)
    : total_(total_pages),
      strategy_(std::move(strategy)),
      apply_(std::move(apply)) {
  RTQ_CHECK_MSG(total_pages > 0, "pool must be positive");
  RTQ_CHECK(strategy_ != nullptr);
  RTQ_CHECK(apply_ != nullptr);
}

void MemoryManager::SetStrategy(
    std::unique_ptr<AllocationStrategy> strategy) {
  RTQ_CHECK(strategy != nullptr);
  strategy_ = std::move(strategy);
  cache_valid_ = false;
  Reallocate();
}

void MemoryManager::SetAdmissionGate(AdmissionGate* gate) {
  RTQ_CHECK_MSG(index_.empty(),
                "admission gate must be installed on an empty manager");
  gate_ = gate;
  cache_valid_ = false;
}

void MemoryManager::SetAllocation(Entry& entry, PageCount pages) {
  allocated_sum_ += pages - entry.allocation;
  admitted_count_ += (pages > 0) - (entry.allocation > 0);
  entry.allocation = pages;
  apply_(entry.request.id, pages);
}

bool MemoryManager::InsertIsStable(const MemRequest& request) const {
  if (reallocating_ || !cache_valid_) return false;
  if (request.min_memory <= spare_min_ ||
      request.max_memory <= spare_max_) {
    return false;  // the strategy might grant it something
  }
  if (frontier_is_end_) {
    return !index_.empty() &&
           EdIndex::EdLess(index_.last()->request, request);
  }
  return EdIndex::EdLess(frontier_, request);
}

void MemoryManager::AddQuery(const MemRequest& request) {
  RTQ_CHECK_MSG(request.min_memory >= 0 &&
                    request.max_memory >= request.min_memory,
                "invalid memory demands");
  RTQ_CHECK_MSG(request.max_memory <= total_,
                "query demands more memory than the machine has");
  // Decide the fast path before the insert mutates the ED order.
  bool stable = InsertIsStable(request);
  auto [it, inserted] = by_id_.try_emplace(request.id);
  RTQ_CHECK_MSG(inserted, "duplicate query id");
  Entry& entry = it->second;
  entry.request = request;
  index_.Insert(&entry);
  // Fast path: the request parks in the denied tail with no allocation
  // and nobody else moves; the cached hint stays valid (the admission
  // frontier is untouched). No apply callbacks would have fired.
  if (stable) return;
  Reallocate();
}

void MemoryManager::RemoveQuery(QueryId id) {
  RTQ_CHECK_MSG(!reallocating_, "RemoveQuery inside an apply callback");
  auto it = by_id_.find(id);
  RTQ_CHECK_MSG(it != by_id_.end(), "RemoveQuery: unknown query");
  Entry& entry = it->second;
  PageCount held = entry.allocation;
  // Fast path: dropping a zero-allocation query from strictly behind the
  // admission frontier cannot move the frontier or free memory, so every
  // other allocation is provably unchanged.
  bool stable = cache_valid_ && held == 0 && !frontier_is_end_ &&
                EdIndex::EdLess(frontier_, entry.request);
  if (held > 0) {
    if (gate_ != nullptr) gate_->Release();
    allocated_sum_ -= held;
    --admitted_count_;
    (entry.prev_admitted != nullptr ? entry.prev_admitted->next_admitted
                                    : admitted_head_) = entry.next_admitted;
    if (entry.next_admitted != nullptr) {
      entry.next_admitted->prev_admitted = entry.prev_admitted;
    }
  }
  index_.Erase(&entry);
  by_id_.erase(it);
  // Tell the receiver the query's pages are gone before anyone else
  // is granted them (keeps external accounting conservative).
  if (held > 0) apply_(id, 0);
  if (stable) return;
  Reallocate();
}

void MemoryManager::BuildDiff() {
  diff_.clear();
  PageCount sum = 0;
  Entry* old = admitted_head_;
  const Entry* prev = nullptr;
  for (const Grant& grant : alloc_.grants) {
    Entry* entry = AsEntry(grant.query);
    RTQ_CHECK_MSG(grant.pages >= 0, "negative allocation from strategy");
    RTQ_CHECK_MSG(grant.pages <= entry->request.max_memory,
                  "strategy exceeded a query's maximum");
    RTQ_CHECK_MSG(prev == nullptr ||
                      EdIndex::EdLess(prev->request, entry->request),
                  "strategy grants out of ED order");
    prev = entry;
    sum += grant.pages;
    // Previously admitted queries the strategy skipped drop to zero.
    while (old != nullptr && EdIndex::EdLess(old->request, entry->request)) {
      diff_.push_back({old, 0});
      old = old->next_admitted;
    }
    if (old == entry) old = old->next_admitted;
    diff_.push_back({entry, grant.pages});
  }
  for (; old != nullptr; old = old->next_admitted) diff_.push_back({old, 0});
  RTQ_CHECK_MSG(sum <= total_, "strategy oversubscribed the pool");
}

void MemoryManager::Reallocate() {
  // An apply callback may add a query or switch strategy; defer nested
  // reallocation requests to the outermost call.
  if (reallocating_) {
    realloc_again_ = true;
    return;
  }
  reallocating_ = true;
  do {
    realloc_again_ = false;
    cache_valid_ = false;
    ++recomputes_;

    alloc_.grants.clear();
    alloc_.hint = StableTailHint{};
    strategy_->Allocate(index_, total_, &alloc_);
    // Queries outside (admitted list ∪ grants) stay at zero: the diff
    // visits only the union, in ED order.
    BuildDiff();

    // Gate pass: release the slots of queries this recompute demotes to
    // zero, then claim one slot per would-be admission in ED order —
    // refused queries are vetoed back to zero (the strategy's pages for
    // them simply go unused this round; they retry on every recompute).
    if (gate_ != nullptr) {
      for (const Change& c : diff_) {
        if (c.pages == 0 && c.entry->allocation > 0) gate_->Release();
      }
      for (Change& c : diff_) {
        if (c.pages > 0 && c.entry->allocation == 0 && !gate_->TryAcquire()) {
          c.pages = 0;
        }
      }
    }

    // Apply shrinks before grows so the pool never oversubscribes.
    for (const Change& c : diff_) {
      if (c.pages < c.entry->allocation) SetAllocation(*c.entry, c.pages);
    }
    for (const Change& c : diff_) {
      if (c.pages > c.entry->allocation) SetAllocation(*c.entry, c.pages);
    }

    // Relink the admitted list from the diff, which already is in ED
    // order and holds every query that can have pages now.
    Entry* tail = nullptr;
    admitted_head_ = nullptr;
    for (const Change& c : diff_) {
      if (c.entry->allocation == 0) continue;
      c.entry->prev_admitted = tail;
      c.entry->next_admitted = nullptr;
      (tail != nullptr ? tail->next_admitted : admitted_head_) = c.entry;
      tail = c.entry;
    }

    // Cache the strategy's stable-tail proof for the fast paths; only
    // when this pass is final (a deferred nested request means the state
    // already moved under us).
    const StableTailHint& hint = alloc_.hint;
    if (!realloc_again_ && hint.valid && gate_ == nullptr) {
      spare_min_ = hint.spare_min;
      spare_max_ = hint.spare_max;
      frontier_is_end_ = hint.from == nullptr;
      if (!frontier_is_end_) frontier_ = hint.from->request;
      cache_valid_ = true;
    }
  } while (realloc_again_);
  reallocating_ = false;
}

PageCount MemoryManager::allocation_of(QueryId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? 0 : it->second.allocation;
}

}  // namespace rtq::core
