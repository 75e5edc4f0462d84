// The memory-allocation strategies of Section 3.2 and Table 5.
//
//   Max            — every admitted query gets its maximum demand; queries
//                    that do not fit get nothing. No explicit MPL limit.
//   MinMax-N       — the N highest-priority (ED) queries are admitted;
//                    pass 1 gives each its minimum, pass 2 tops up to the
//                    maximum in priority order, so urgent queries end at
//                    max and the rest at min (one query may land between).
//                    N < 0 means MinMax-infinity, the paper's "MinMax".
//   Proportional-N — like MinMax-N, but the admitted queries all receive
//                    the same percentage of their maximum demand, floored
//                    at their minimum.
//
// All three walk the ED index only up to their admission frontier, and
// Max-with-bypass hops from one fitting request to the next through the
// index, so a reallocation costs O(admitted · log live), never O(live).
//
// PMM itself is not a strategy here: it is a controller (pmm.h) that
// dynamically switches the memory manager between Max and MinMax-N.

#ifndef RTQ_CORE_STRATEGY_H_
#define RTQ_CORE_STRATEGY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/ed_index.h"

namespace rtq::core {

/// A proof emitted alongside an allocation that lets MemoryManager skip
/// recomputation for steady-state membership churn. When `valid`, the
/// strategy certifies that, against the exact input it just allocated:
///
///  * inserting a request sorting after `from` whose min_memory >
///    `spare_min` AND max_memory > `spare_max` would receive no
///    allocation and leave every other allocation unchanged, and
///  * removing a zero-allocation request sorting after `from` would
///    leave every other allocation unchanged.
///
/// Both properties survive any sequence of such inserts/removals (the
/// admitted prefix and its leftover memory are untouched), so one hint
/// can absorb a whole burst of tail churn. Thresholds use strict `>`
/// with -1 meaning "any request qualifies". Strategies without an
/// incremental proof leave `valid` false: MemoryManager then recomputes
/// on every change, which is always correct.
struct StableTailHint {
  bool valid = false;
  /// The admission frontier: the first request the strategy did not
  /// admit in ED order. Null when every request was considered (e.g.
  /// Max-with-bypass), so only inserts sorting after the whole list
  /// qualify.
  const EdIndex::Node* from = nullptr;
  PageCount spare_min = -1;
  PageCount spare_max = -1;
};

/// One admitted query's share of the pool.
struct Grant {
  const EdIndex::Node* query = nullptr;
  PageCount pages = 0;
};

/// A strategy's answer for one reallocation: who gets memory, and the
/// stable-tail proof. Queries without a grant get nothing.
struct Allocation {
  /// Strictly increasing ED order, at most one grant per query.
  std::vector<Grant> grants;
  StableTailHint hint;
};

class AllocationStrategy {
 public:
  virtual ~AllocationStrategy() = default;

  /// Divides `total` pages among the requests in `live` (ED order).
  /// `out` arrives with no grants and an invalid hint; the strategy
  /// appends its grants and, if it has an incremental proof, fills the
  /// hint. Strategies that only ever look at an admission frontier walk
  /// `live` from the front and stop there, so their cost follows the
  /// admitted queries rather than the live ones; strategies whose math
  /// needs the whole list use AllocateMaterialized.
  virtual void Allocate(const EdIndex& live, PageCount total,
                        Allocation* out) const = 0;

  virtual std::string name() const = 0;
};

/// Runs `strategy` over an explicit list taken in the given order (which
/// need not be ED order) and returns out[i] = pages for ordered[i],
/// 0 = not admitted. For wrapper strategies that reorder or filter the
/// live list, and for tests and benches.
AllocationVector AllocateDense(const AllocationStrategy& strategy,
                               const std::vector<MemRequest>& ordered,
                               PageCount total);

/// The materialize helper: copies `live` out as an ED-sorted vector,
/// lets `dense` allocate it (one entry per request, 0 = not admitted)
/// and emits the non-zero entries as grants. The hint stays invalid.
/// Costs O(live) per reallocation — the price of needing every request.
void AllocateMaterialized(
    const EdIndex& live, Allocation* out,
    const std::function<AllocationVector(const std::vector<MemRequest>&)>&
        dense);

/// Shared machinery for "filter, delegate, scatter" wrapper strategies
/// (per-class quotas, feasibility shedding): requests `keep` rejects
/// (called once per request, in ED order — may be stateful) receive 0;
/// the survivors are allocated by `inner`. When every request is kept
/// the wrapper is a no-op, so this delegates to `inner` on `live`
/// itself and the inner stable-tail proof lands in `out->hint` verbatim
/// — each wrapper decides whether exposing it is sound (quotas: yes;
/// time-dependent filters: no, discard it). When anything is filtered,
/// the hint is invalid.
void AllocateThroughFilter(const AllocationStrategy& inner,
                           const EdIndex& live, PageCount total,
                           const std::function<bool(const MemRequest&)>& keep,
                           Allocation* out);

class MaxStrategy : public AllocationStrategy {
 public:
  /// `bypass_blocked`: when the highest-priority waiting query does not
  /// fit, whether lower-priority queries may still be admitted around it.
  /// The paper's Max "admits as many queries at their maximum allocations
  /// as memory permits" and realizes an average MPL close to 2 on the
  /// baseline workload, which requires bypassing — so bypass is the
  /// default. Strict ED (no bypass, immune to starving an urgent large
  /// query) is kept for the A1 ablation bench.
  explicit MaxStrategy(bool bypass_blocked = true)
      : bypass_blocked_(bypass_blocked) {}

  void Allocate(const EdIndex& live, PageCount total,
                Allocation* out) const override;
  std::string name() const override;

 private:
  bool bypass_blocked_;
};

class MinMaxStrategy : public AllocationStrategy {
 public:
  /// `mpl_limit` = N; negative means unlimited (MinMax-infinity).
  explicit MinMaxStrategy(int64_t mpl_limit = -1) : mpl_limit_(mpl_limit) {}

  void Allocate(const EdIndex& live, PageCount total,
                Allocation* out) const override;
  std::string name() const override;

  int64_t mpl_limit() const { return mpl_limit_; }

 private:
  int64_t mpl_limit_;
};

class ProportionalStrategy : public AllocationStrategy {
 public:
  /// `mpl_limit` = N; negative means unlimited (Proportional-infinity).
  explicit ProportionalStrategy(int64_t mpl_limit = -1)
      : mpl_limit_(mpl_limit) {}

  void Allocate(const EdIndex& live, PageCount total,
                Allocation* out) const override;
  std::string name() const override;

 private:
  int64_t mpl_limit_;
};

}  // namespace rtq::core

#endif  // RTQ_CORE_STRATEGY_H_
