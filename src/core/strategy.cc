#include "core/strategy.h"

#include <algorithm>

#include "common/check.h"

namespace rtq::core {
namespace {

/// Emits dense[i] != 0 as a grant to nodes[i] (negative entries too, so
/// MemoryManager's bounds checks see them).
void EmitDense(const std::vector<const EdIndex::Node*>& nodes,
               const AllocationVector& dense, Allocation* out) {
  RTQ_CHECK_MSG(dense.size() == nodes.size(),
                "strategy must return one allocation per request");
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (dense[i] != 0) out->grants.push_back({nodes[i], dense[i]});
  }
}

}  // namespace

AllocationVector AllocateDense(const AllocationStrategy& strategy,
                               const std::vector<MemRequest>& ordered,
                               PageCount total) {
  std::vector<EdIndex::Node> nodes(ordered.size());
  for (size_t i = 0; i < ordered.size(); ++i) nodes[i].request = ordered[i];
  EdIndex index;
  index.Assign(nodes.data(), nodes.size());
  Allocation alloc;
  strategy.Allocate(index, total, &alloc);
  AllocationVector out(ordered.size(), 0);
  for (const Grant& g : alloc.grants) out[g.query - nodes.data()] = g.pages;
  return out;
}

void AllocateMaterialized(
    const EdIndex& live, Allocation* out,
    const std::function<AllocationVector(const std::vector<MemRequest>&)>&
        dense) {
  std::vector<MemRequest> requests;
  std::vector<const EdIndex::Node*> nodes;
  requests.reserve(live.size());
  nodes.reserve(live.size());
  for (const EdIndex::Node* n = live.first(); n != nullptr;
       n = EdIndex::Next(n)) {
    requests.push_back(n->request);
    nodes.push_back(n);
  }
  EmitDense(nodes, dense(requests), out);
}

void AllocateThroughFilter(const AllocationStrategy& inner,
                           const EdIndex& live, PageCount total,
                           const std::function<bool(const MemRequest&)>& keep,
                           Allocation* out) {
  // Record rejects only: `keep` may be stateful, so it runs exactly once
  // per request, and the common everything-kept reallocation copies
  // nothing.
  std::vector<const EdIndex::Node*> rejected;
  for (const EdIndex::Node* n = live.first(); n != nullptr;
       n = EdIndex::Next(n)) {
    if (!keep(n->request)) rejected.push_back(n);
  }
  if (rejected.empty()) {
    inner.Allocate(live, total, out);
    return;
  }
  std::vector<MemRequest> kept;
  std::vector<const EdIndex::Node*> kept_nodes;
  kept.reserve(live.size() - rejected.size());
  kept_nodes.reserve(live.size() - rejected.size());
  size_t next_reject = 0;
  for (const EdIndex::Node* n = live.first(); n != nullptr;
       n = EdIndex::Next(n)) {
    if (next_reject < rejected.size() && rejected[next_reject] == n) {
      ++next_reject;
      continue;
    }
    kept.push_back(n->request);
    kept_nodes.push_back(n);
  }
  EmitDense(kept_nodes, AllocateDense(inner, kept, total), out);
}

void MaxStrategy::Allocate(const EdIndex& live, PageCount total,
                           Allocation* out) const {
  PageCount remaining = total;
  const EdIndex::Node* frontier = nullptr;
  if (bypass_blocked_) {
    // Every request that fits in what is left gets its maximum, in ED
    // order: hop straight to the next one that fits.
    for (const EdIndex::Node* q = live.NextFitting(nullptr, remaining);
         q != nullptr; q = live.NextFitting(q, remaining)) {
      out->grants.push_back({q, q->request.max_memory});
      remaining -= q->request.max_memory;
    }
  } else {
    // Strict ED: nobody may jump over a blocked higher-priority query.
    frontier = live.first();
    while (frontier != nullptr &&
           frontier->request.max_memory <= remaining) {
      out->grants.push_back({frontier, frontier->request.max_memory});
      remaining -= frontier->request.max_memory;
      frontier = EdIndex::Next(frontier);
    }
  }
  // Bypass mode considers every request, so only an insert sorting after
  // the whole list is provably ignorable; strict mode stops at the first
  // blocked request, so anything behind that block is. Either way a
  // request whose maximum exceeds the leftover at the stop point gets
  // nothing and changes nothing.
  out->hint.valid = true;
  out->hint.from = frontier;
  out->hint.spare_min = -1;
  out->hint.spare_max = remaining;
}

std::string MaxStrategy::name() const {
  return bypass_blocked_ ? "Max" : "Max(strict)";
}

void MinMaxStrategy::Allocate(const EdIndex& live, PageCount total,
                              Allocation* out) const {
  std::vector<Grant>& grants = out->grants;
  // Pass 1: minimum allocations in ED order, until memory or the MPL
  // limit runs out. Strict priority: stop at the first query whose
  // minimum does not fit.
  PageCount remaining = total;
  int64_t admitted = 0;
  const EdIndex::Node* q = live.first();
  for (; q != nullptr && (mpl_limit_ < 0 || admitted < mpl_limit_);
       q = EdIndex::Next(q)) {
    if (q->request.min_memory > remaining) break;
    grants.push_back({q, q->request.min_memory});
    remaining -= q->request.min_memory;
    ++admitted;
  }
  // A request behind the admission frontier is never reached when the
  // MPL cap closed admission (spare_min = -1: deny all), and otherwise
  // is denied — becoming the new pass-1 breaker — iff its minimum
  // exceeds the pass-1 leftover.
  out->hint.valid = true;
  out->hint.from = q;
  out->hint.spare_min = admitted == mpl_limit_ ? -1 : remaining;
  out->hint.spare_max = -1;
  // Pass 2: top up to maximum in ED order. The last query topped up may
  // land between its minimum and maximum ("the query that gets the last
  // few memory pages", Section 3.2).
  for (size_t i = 0; i < grants.size() && remaining > 0; ++i) {
    PageCount want = grants[i].query->request.max_memory - grants[i].pages;
    PageCount grant = std::min(want, remaining);
    grants[i].pages += grant;
    remaining -= grant;
  }
}

std::string MinMaxStrategy::name() const {
  if (mpl_limit_ < 0) return "MinMax";
  return "MinMax-" + std::to_string(mpl_limit_);
}

void ProportionalStrategy::Allocate(const EdIndex& live, PageCount total,
                                    Allocation* out) const {
  std::vector<Grant>& grants = out->grants;
  // Admit the longest ED prefix whose minimum demands fit.
  PageCount min_sum = 0;
  int64_t admitted = 0;
  const EdIndex::Node* q = live.first();
  for (; q != nullptr && (mpl_limit_ < 0 || admitted < mpl_limit_);
       q = EdIndex::Next(q)) {
    if (min_sum + q->request.min_memory > total) break;
    min_sum += q->request.min_memory;
    grants.push_back({q, 0});
    ++admitted;
  }
  // Same frontier reasoning as MinMax: a denied insert at/behind the
  // frontier leaves the admitted prefix — and hence the fitted fraction
  // below — untouched.
  out->hint.valid = true;
  out->hint.from = q;
  out->hint.spare_min = admitted == mpl_limit_ ? -1 : total - min_sum;
  out->hint.spare_max = -1;
  if (grants.empty()) return;

  // Find the largest fraction f in [0, 1] such that
  //   sum_i max(min_i, f * max_i) <= total.
  // The left side is piecewise-linear and nondecreasing in f; binary
  // search converges well below one page of slack in 50 iterations.
  auto need = [&](double f) {
    double sum = 0.0;
    for (const Grant& g : grants) {
      const MemRequest& r = g.query->request;
      sum += std::max(static_cast<double>(r.min_memory),
                      f * static_cast<double>(r.max_memory));
    }
    return sum;
  };
  double lo = 0.0, hi = 1.0;
  if (need(1.0) <= static_cast<double>(total)) {
    lo = 1.0;
  } else {
    for (int iter = 0; iter < 50; ++iter) {
      double mid = (lo + hi) / 2.0;
      if (need(mid) <= static_cast<double>(total)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  for (Grant& g : grants) {
    const MemRequest& r = g.query->request;
    PageCount alloc = std::max(
        r.min_memory, static_cast<PageCount>(
                          lo * static_cast<double>(r.max_memory)));
    g.pages = std::min(alloc, r.max_memory);
  }
}

std::string ProportionalStrategy::name() const {
  if (mpl_limit_ < 0) return "Proportional";
  return "Proportional-" + std::to_string(mpl_limit_);
}

}  // namespace rtq::core
