// The reallocation engine.
//
// Tracks every live query (waiting or admitted), and on every membership
// or policy change recomputes all allocations with the active strategy
// and pushes the deltas out through a callback. This is the mechanism
// Section 3.2 describes: "the memory allocation of a query can vary
// between maximum, minimum, or no allocation as higher-priority queries
// enter and leave the system".
//
// A recompute costs O(admitted + changed + log live), not O(live):
//
//  * live queries sit in an EdIndex (ed_index.h), an ED-ordered treap
//    that strategies walk only up to their admission frontier, and that
//    lets Max-with-bypass jump between requests that fit;
//  * strategies answer with sparse grants, and the apply diff visits
//    only the union of the previously admitted queries (an ED-ordered
//    intrusive list) and the new grants.
//
// Steady-state churn skips even that: strategies publish a
// StableTailHint (strategy.h) proving that requests sorting behind the
// admission frontier neither receive memory nor disturb anyone else, so
// an arrival that lands in that dead zone — or the removal of a waiting
// query parked there — triggers no recompute at all. Every allocation
// and every apply and gate callback is bit-identical to a full
// recompute over the whole live list on every change.

#ifndef RTQ_CORE_MEMORY_MANAGER_H_
#define RTQ_CORE_MEMORY_MANAGER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "common/types.h"
#include "core/ed_index.h"
#include "core/strategy.h"

namespace rtq::core {

/// Cross-cutting admission veto consulted during reallocation. The
/// manager calls TryAcquire once for every query about to move from zero
/// to a positive allocation; returning false keeps that query at zero for
/// this recompute (it stays registered and is retried on every later
/// one). Release is the inverse transition: an admitted query left the
/// system or was demoted back to zero. The cross-shard global-MPL
/// coordinator (core::ShardCoordinator) is the canonical implementation.
class AdmissionGate {
 public:
  virtual ~AdmissionGate() = default;
  virtual bool TryAcquire() = 0;
  virtual void Release() = 0;
};

class MemoryManager {
 public:
  /// Invoked with (query, new_allocation) whenever a query's allocation
  /// changes. The receiver is responsible for reserving buffer-pool pages
  /// and informing the operator.
  using ApplyFn = std::function<void(QueryId, PageCount)>;

  MemoryManager(PageCount total_pages,
                std::unique_ptr<AllocationStrategy> strategy, ApplyFn apply);

  /// Replaces the strategy and reallocates.
  void SetStrategy(std::unique_ptr<AllocationStrategy> strategy);

  /// Installs an admission gate (not owned; null clears). Must be set
  /// before the first AddQuery — slot accounting starts from an empty
  /// system. A gated manager never caches stable-tail hints: the gate's
  /// verdict depends on state outside this manager (other shards), so no
  /// incremental proof survives between recomputes.
  void SetAdmissionGate(AdmissionGate* gate);

  /// Registers an arriving query and reallocates (incrementally when the
  /// strategy's stable-tail proof applies).
  void AddQuery(const MemRequest& request);

  /// Deregisters a completed/aborted query and reallocates. The apply
  /// callback first sees (id, 0) if the query still held pages. Must not
  /// be called from inside an apply callback.
  void RemoveQuery(QueryId id);

  /// Recomputes allocations with the current strategy (idempotent).
  void Reallocate();

  const AllocationStrategy& strategy() const { return *strategy_; }

  // --- introspection -----------------------------------------------------
  PageCount total_pages() const { return total_; }
  PageCount allocated_pages() const { return allocated_sum_; }
  /// Queries with a non-zero allocation.
  int64_t admitted_count() const { return admitted_count_; }
  /// Queries registered but currently at zero allocation.
  int64_t waiting_count() const { return live_count() - admitted_count_; }
  int64_t live_count() const { return static_cast<int64_t>(index_.size()); }
  /// Full strategy recomputations performed so far. Membership changes
  /// absorbed by the StableTailHint fast paths do not count — the gap
  /// between membership changes and recomputes() measures how often a
  /// strategy's incremental proof actually engages.
  int64_t recomputes() const { return recomputes_; }
  PageCount allocation_of(QueryId id) const;

 private:
  /// One live query: its slot in the ED index plus its admitted-list
  /// links (ED order, members hold allocation > 0).
  struct Entry : EdIndex::Node {
    PageCount allocation = 0;
    Entry* prev_admitted = nullptr;
    Entry* next_admitted = nullptr;
  };

  /// One query the apply diff visits, with its new allocation.
  struct Change {
    Entry* entry;
    PageCount pages;
  };

  static Entry* AsEntry(const EdIndex::Node* node) {
    return static_cast<Entry*>(const_cast<EdIndex::Node*>(node));
  }

  /// Records an allocation change and forwards it to the apply callback.
  void SetAllocation(Entry& entry, PageCount pages);

  /// Merges the admitted list with the strategy's grants into diff_ (ED
  /// order), checking every grant.
  void BuildDiff();

  /// True when the cached hint proves that inserting `request` changes
  /// no existing allocation and grants nothing.
  bool InsertIsStable(const MemRequest& request) const;

  PageCount total_;
  std::unique_ptr<AllocationStrategy> strategy_;
  ApplyFn apply_;
  AdmissionGate* gate_ = nullptr;
  // Entries live in the id map's nodes (stable addresses), which recycle
  // through a pool, so steady-state arrival/retire churn costs no heap
  // allocation. The pool outlives (is declared before) the map.
  NodePool node_pool_;
  using ById =
      std::unordered_map<QueryId, Entry, std::hash<QueryId>,
                         std::equal_to<QueryId>,
                         PoolAllocator<std::pair<const QueryId, Entry>>>;
  ById by_id_{8, std::hash<QueryId>(), std::equal_to<QueryId>(),
              PoolAllocator<std::pair<const QueryId, Entry>>(&node_pool_)};
  EdIndex index_;                   // every entry, ED order
  Entry* admitted_head_ = nullptr;  // entries with allocation > 0
  PageCount allocated_sum_ = 0;   // invariant: sum of entry.allocation
  int64_t admitted_count_ = 0;    // invariant: #entries with allocation > 0
  int64_t recomputes_ = 0;
  bool reallocating_ = false;     // guards against re-entrant reallocation
  bool realloc_again_ = false;

  // --- incremental-reallocation cache ------------------------------------
  // Valid between a full recompute and the next change it cannot absorb.
  bool cache_valid_ = false;
  PageCount spare_min_ = -1;  // the cached StableTailHint thresholds
  PageCount spare_max_ = -1;
  /// The hint's frontier request when the hint was computed (only its
  /// ED position matters); `frontier_is_end_` means the frontier was
  /// past the last live query (only inserts sorting after *every* live
  /// query qualify).
  MemRequest frontier_;
  bool frontier_is_end_ = false;
  // Scratch reused across recomputes so steady state allocates nothing.
  Allocation alloc_;
  std::vector<Change> diff_;
};

}  // namespace rtq::core

#endif  // RTQ_CORE_MEMORY_MANAGER_H_
