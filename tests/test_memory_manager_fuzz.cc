// Reference fuzzer for MemoryManager's incremental reallocation.
//
// The reference manager below keeps the live set in a sorted vector,
// runs a dense, textbook implementation of each strategy over the whole
// list on every membership change, and diffs every query. It also
// tracks which changes the StableTailHint fast paths may absorb, so it
// can predict recomputes() — but it recomputes from scratch anyway, so a
// fast path that wrongly skips work shows up as a missing callback.
// Random sequences of arrivals, removals (front, middle and tail of the
// ED order), strategy swaps and duplicate deadlines drive both managers;
// every apply callback, gate call and counter must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/memory_manager.h"
#include "core/strategy.h"

namespace rtq::core {
namespace {

enum Kind { kMax, kMaxStrict, kMinMaxN, kMinMax, kPropN, kProp, kFcfs };
constexpr int kKinds = 7;
constexpr int64_t kMplLimit = 5;

/// FCFS at maximum grants: a strategy whose math needs the whole list,
/// so it runs through the materialize helper.
AllocationVector FcfsDense(const std::vector<MemRequest>& ed,
                           PageCount total) {
  std::vector<size_t> order(ed.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return ed[a].id < ed[b].id; });
  AllocationVector out(ed.size(), 0);
  PageCount remaining = total;
  for (size_t i : order) {
    PageCount grant = std::min(ed[i].max_memory, remaining);
    if (grant < ed[i].min_memory) continue;
    out[i] = grant;
    remaining -= grant;
  }
  return out;
}

class FcfsStrategy : public AllocationStrategy {
 public:
  void Allocate(const EdIndex& live, PageCount total,
                Allocation* out) const override {
    AllocateMaterialized(live, out, [total](const std::vector<MemRequest>& ed) {
      return FcfsDense(ed, total);
    });
  }
  std::string name() const override { return "FCFS"; }
};

std::unique_ptr<AllocationStrategy> MakeStrategy(int kind) {
  switch (kind) {
    case kMax: return std::make_unique<MaxStrategy>(true);
    case kMaxStrict: return std::make_unique<MaxStrategy>(false);
    case kMinMaxN: return std::make_unique<MinMaxStrategy>(kMplLimit);
    case kMinMax: return std::make_unique<MinMaxStrategy>(-1);
    case kPropN: return std::make_unique<ProportionalStrategy>(kMplLimit);
    case kProp: return std::make_unique<ProportionalStrategy>(-1);
    default: return std::make_unique<FcfsStrategy>();
  }
}

/// The reference strategies: one dense pass over the whole ED list, with
/// the stable-tail proof expressed as an ED position.
struct RefHint {
  bool valid = false;
  size_t from = 0;
  PageCount spare_min = -1;
  PageCount spare_max = -1;
};

AllocationVector RefAllocate(int kind,
                             const std::vector<const MemRequest*>& ed_ptrs,
                             PageCount total, RefHint* hint) {
  *hint = RefHint{};
  if (kind == kFcfs) {
    std::vector<MemRequest> copy;
    for (const MemRequest* r : ed_ptrs) copy.push_back(*r);
    return FcfsDense(copy, total);
  }
  struct Ed {
    const std::vector<const MemRequest*>& v;
    const MemRequest& operator[](size_t i) const { return *v[i]; }
    size_t size() const { return v.size(); }
  } ed{ed_ptrs};
  AllocationVector out(ed.size(), 0);
  if (kind == kMax || kind == kMaxStrict) {
    PageCount remaining = total;
    size_t frontier = ed.size();
    for (size_t i = 0; i < ed.size(); ++i) {
      if (ed[i].max_memory <= remaining) {
        out[i] = ed[i].max_memory;
        remaining -= ed[i].max_memory;
      } else if (kind == kMaxStrict) {
        frontier = i;
        break;
      }
    }
    *hint = {true, frontier, -1, remaining};
    return out;
  }
  const int64_t cap = (kind == kMinMaxN || kind == kPropN) ? kMplLimit : -1;
  size_t limit = cap < 0 ? ed.size()
                         : std::min<size_t>(ed.size(),
                                            static_cast<size_t>(cap));
  size_t admitted = 0;
  PageCount remaining = total;
  while (admitted < limit && ed[admitted].min_memory <= remaining) {
    remaining -= ed[admitted].min_memory;
    ++admitted;
  }
  const bool capped = cap >= 0 && admitted == static_cast<size_t>(cap);
  *hint = {true, admitted, capped ? -1 : remaining, -1};
  if (kind == kMinMaxN || kind == kMinMax) {
    for (size_t i = 0; i < admitted; ++i) out[i] = ed[i].min_memory;
    for (size_t i = 0; i < admitted && remaining > 0; ++i) {
      PageCount grant = std::min(ed[i].max_memory - out[i], remaining);
      out[i] += grant;
      remaining -= grant;
    }
    return out;
  }
  if (admitted == 0) return out;
  auto need = [&](double f) {
    double sum = 0.0;
    for (size_t i = 0; i < admitted; ++i) {
      sum += std::max(static_cast<double>(ed[i].min_memory),
                      f * static_cast<double>(ed[i].max_memory));
    }
    return sum;
  };
  double lo = 0.0, hi = 1.0;
  if (need(1.0) <= static_cast<double>(total)) {
    lo = 1.0;
  } else {
    for (int iter = 0; iter < 50; ++iter) {
      double mid = (lo + hi) / 2.0;
      (need(mid) <= static_cast<double>(total) ? lo : hi) = mid;
    }
  }
  for (size_t i = 0; i < admitted; ++i) {
    PageCount a = std::max(
        ed[i].min_memory,
        static_cast<PageCount>(lo * static_cast<double>(ed[i].max_memory)));
    out[i] = std::min(a, ed[i].max_memory);
  }
  return out;
}

/// One observable side effect: an apply callback, a TryAcquire (with its
/// verdict) or a Release.
struct Call {
  char what;  // 'A'pply, 'T'ryAcquire, 'R'elease
  QueryId id;
  PageCount pages;
  bool operator==(const Call& o) const {
    return what == o.what && id == o.id && pages == o.pages;
  }
};

std::string Describe(const std::vector<Call>& log) {
  std::string s;
  for (size_t i = 0; i < log.size() && i < 12; ++i) {
    s += std::string(1, log[i].what) + "(" + std::to_string(log[i].id) +
         "," + std::to_string(log[i].pages) + ") ";
  }
  return s;
}

/// Deterministic refusing gate: a slot cap, plus every fifth request
/// refused outright even when a slot is free.
class LoggingGate final : public AdmissionGate {
 public:
  LoggingGate(int64_t capacity, std::vector<Call>* log)
      : capacity_(capacity), log_(log) {}
  bool TryAcquire() override {
    bool ok = in_use_ < capacity_ && ++asks_ % 5 != 0;
    in_use_ += ok;
    log_->push_back({'T', 0, ok});
    return ok;
  }
  void Release() override {
    ASSERT_GT(in_use_, 0);
    --in_use_;
    log_->push_back({'R', 0, 0});
  }

 private:
  int64_t capacity_;
  int64_t in_use_ = 0;
  int64_t asks_ = 0;
  std::vector<Call>* log_;
};

class ReferenceManager {
 public:
  ReferenceManager(PageCount total, int kind, AdmissionGate* gate,
                   std::vector<Call>* log)
      : total_(total), kind_(kind), gate_(gate), log_(log) {}

  void SetStrategy(int kind) {
    kind_ = kind;
    cache_valid_ = false;
    Recompute(/*counted=*/true);
  }

  void Add(const MemRequest& r) {
    bool stable = cache_valid_ && r.min_memory > spare_min_ &&
                  r.max_memory > spare_max_ &&
                  (frontier_is_end_ ? !ed_.empty() && Less(*ed_.back(), r)
                                    : Less(frontier_, r));
    const MemRequest* stored = &requests_.emplace(r.id, r).first->second;
    auto at = std::upper_bound(
        ed_.begin(), ed_.end(), stored,
        [](const MemRequest* a, const MemRequest* b) { return Less(*a, *b); });
    pages_.insert(pages_.begin() + (at - ed_.begin()), 0);
    ed_.insert(at, stored);
    Recompute(!stable);
  }

  void Remove(QueryId id) {
    size_t i = Find(id);
    PageCount held = pages_[i];
    bool stable = cache_valid_ && held == 0 && !frontier_is_end_ &&
                  Less(frontier_, *ed_[i]);
    if (held > 0) {
      if (gate_ != nullptr) gate_->Release();
      allocated_ -= held;
      --admitted_;
    }
    ed_.erase(ed_.begin() + static_cast<std::ptrdiff_t>(i));
    pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(i));
    requests_.erase(id);
    if (held > 0) log_->push_back({'A', id, 0});
    Recompute(!stable);
  }

  size_t size() const { return ed_.size(); }
  QueryId IdAt(size_t i) const { return ed_[i]->id; }
  PageCount allocation_of(QueryId id) const { return pages_[Find(id)]; }
  int64_t recomputes() const { return recomputes_; }
  int64_t admitted_count() const { return admitted_; }
  PageCount allocated_pages() const { return allocated_; }

 private:
  static bool Less(const MemRequest& a, const MemRequest& b) {
    return a.deadline != b.deadline ? a.deadline < b.deadline : a.id < b.id;
  }
  size_t Find(QueryId id) const {
    const MemRequest& r = requests_.at(id);
    return static_cast<size_t>(
        std::lower_bound(ed_.begin(), ed_.end(), &r,
                         [](const MemRequest* a, const MemRequest* b) {
                           return Less(*a, *b);
                         }) -
        ed_.begin());
  }

  // Always a full recompute; `counted` says whether the real manager is
  // allowed to skip it (fast path) — then the outcome must be a no-op.
  void Recompute(bool counted) {
    RefHint hint;
    AllocationVector a = RefAllocate(kind_, ed_, total_, &hint);
    if (gate_ != nullptr) {
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] == 0 && pages_[i] > 0) gate_->Release();
      }
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] > 0 && pages_[i] == 0 && !gate_->TryAcquire()) a[i] = 0;
      }
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] < pages_[i]) Set(i, a[i]);
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] > pages_[i]) Set(i, a[i]);
    }
    if (!counted) return;
    ++recomputes_;
    cache_valid_ = hint.valid && gate_ == nullptr;
    if (!cache_valid_) return;
    spare_min_ = hint.spare_min;
    spare_max_ = hint.spare_max;
    frontier_is_end_ = hint.from >= ed_.size();
    if (!frontier_is_end_) frontier_ = *ed_[hint.from];
  }

  void Set(size_t i, PageCount pages) {
    allocated_ += pages - pages_[i];
    admitted_ += (pages > 0) - (pages_[i] > 0);
    pages_[i] = pages;
    log_->push_back({'A', ed_[i]->id, pages});
  }

  PageCount total_;
  int kind_;
  AdmissionGate* gate_;
  std::vector<Call>* log_;
  std::unordered_map<QueryId, MemRequest> requests_;  // stable storage
  std::vector<const MemRequest*> ed_;                 // ED order
  std::vector<PageCount> pages_;  // pages_[i] is ed_[i]'s allocation
  PageCount allocated_ = 0;
  int64_t admitted_ = 0;
  int64_t recomputes_ = 0;
  bool cache_valid_ = false;
  PageCount spare_min_ = -1;
  PageCount spare_max_ = -1;
  bool frontier_is_end_ = false;
  MemRequest frontier_;
};

struct FuzzRun {
  int kind;
  bool gated;
  uint64_t seed;
  int64_t max_live;
  int64_t steps;
  /// Drain to a quarter of max_live after every fill (otherwise hover
  /// around max_live once it is reached).
  bool swing;
  /// Strategy swaps pick among kinds [0, swap_kinds).
  int swap_kinds;
};

void Drive(const FuzzRun& run) {
  constexpr PageCount kPool = 2560;
  std::vector<Call> real_log, ref_log;
  LoggingGate real_gate(8, &real_log), ref_gate(8, &ref_log);
  MemoryManager mm(kPool, MakeStrategy(run.kind),
                   [&](QueryId id, PageCount pages) {
                     real_log.push_back({'A', id, pages});
                   });
  if (run.gated) mm.SetAdmissionGate(&real_gate);
  ReferenceManager ref(kPool, run.kind, run.gated ? &ref_gate : nullptr,
                       &ref_log);
  Rng rng(run.seed);
  QueryId next_id = 1;
  double now = 0.0;
  int64_t target = run.max_live;
  int64_t peak = 0;

  for (int64_t step = 0; step < run.steps; ++step) {
    const int64_t live = static_cast<int64_t>(ref.size());
    peak = std::max(peak, live);
    if (run.swing && live >= run.max_live) target = run.max_live / 4;
    if (live <= target / 2) target = run.max_live;
    const double add_odds = live < target ? (run.swing ? 0.7 : 0.97) : 0.3;
    double u = rng.NextDouble();
    std::string op;
    if (u < 0.01) {
      int kind = static_cast<int>(rng.UniformInt(0, run.swap_kinds - 1));
      op = "swap to " + std::to_string(kind);
      mm.SetStrategy(MakeStrategy(kind));
      ref.SetStrategy(kind);
    } else if (live == 0 || u < add_odds) {
      MemRequest r;
      r.id = next_id++;
      // Coarse deadlines: many queries share one, ties break by id.
      r.deadline = static_cast<double>(static_cast<int64_t>(now) +
                                       rng.UniformInt(0, 40));
      r.min_memory = rng.NextDouble() < 0.05 ? 0 : rng.UniformInt(1, 120);
      r.max_memory = r.min_memory + (rng.NextDouble() < 0.05
                                         ? 0
                                         : rng.UniformInt(0, 1800));
      op = "add " + std::to_string(r.id);
      mm.AddQuery(r);
      ref.Add(r);
      now += 0.5;
    } else {
      size_t n = ref.size();
      double where = rng.NextDouble();
      size_t pos = where < 0.3   ? static_cast<size_t>(rng.UniformInt(
                                       0, std::min<int64_t>(3, n - 1)))
                   : where < 0.6 ? n - 1 -
                                       static_cast<size_t>(rng.UniformInt(
                                           0, std::min<int64_t>(3, n - 1)))
                                 : static_cast<size_t>(
                                       rng.UniformInt(0, n - 1));
      QueryId id = ref.IdAt(pos);
      op = "remove " + std::to_string(id);
      mm.RemoveQuery(id);
      ref.Remove(id);
    }
    ASSERT_EQ(real_log.size(), ref_log.size())
        << "step " << step << " (" << op << ")\n real: "
        << Describe(real_log) << "\n  ref: " << Describe(ref_log);
    for (size_t i = 0; i < ref_log.size(); ++i) {
      ASSERT_TRUE(real_log[i] == ref_log[i])
          << "step " << step << " (" << op << ") call " << i
          << "\n real: " << Describe(real_log)
          << "\n  ref: " << Describe(ref_log);
    }
    real_log.clear();
    ref_log.clear();
    ASSERT_EQ(mm.recomputes(), ref.recomputes())
        << "step " << step << " (" << op << ")";
    ASSERT_EQ(mm.admitted_count(), ref.admitted_count()) << "step " << step;
    ASSERT_EQ(mm.allocated_pages(), ref.allocated_pages()) << "step " << step;
    ASSERT_EQ(mm.live_count(), static_cast<int64_t>(ref.size()));
    if (ref.size() > 0) {
      QueryId probe = ref.IdAt(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ref.size()) - 1)));
      ASSERT_EQ(mm.allocation_of(probe), ref.allocation_of(probe));
    }
  }
  EXPECT_GE(peak, run.max_live) << "the run never reached its live-set size";
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(mm.allocation_of(ref.IdAt(i)), ref.allocation_of(ref.IdAt(i)));
  }
}

class MemoryManagerFuzz
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(MemoryManagerFuzz, MatchesFullRecomputeReference) {
  auto [kind, gated] = GetParam();
  const int64_t max_live[] = {40, 150, 600};
  for (uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Drive({kind, gated, seed * 7919 + static_cast<uint64_t>(kind),
           max_live[seed], 3000, /*swing=*/true, kKinds});
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
  static const char* const kNames[] = {"Max",   "MaxStrict", "MinMax5",
                                       "MinMax", "Prop5",    "Prop",
                                       "Fcfs"};
  return std::string(kNames[std::get<0>(info.param)]) +
         (std::get<1>(info.param) ? "Gated" : "Open");
}

INSTANTIATE_TEST_SUITE_P(Strategies, MemoryManagerFuzz,
                         ::testing::Combine(::testing::Range(0, kKinds),
                                            ::testing::Bool()),
                         CaseName);

// Ten thousand live queries, for the strategies that stop at their
// admission frontier (the vector-only FCFS costs O(live log live) per
// change in both managers, so it is covered at the sizes above).
class MemoryManagerFuzzLarge : public MemoryManagerFuzz {};

TEST_P(MemoryManagerFuzzLarge, MatchesReferenceAtTenThousandLive) {
  auto [kind, gated] = GetParam();
  Drive({kind, gated, 424242 + static_cast<uint64_t>(kind), 10000, 12000,
         /*swing=*/false, kFcfs});
}

INSTANTIATE_TEST_SUITE_P(Strategies, MemoryManagerFuzzLarge,
                         ::testing::Combine(::testing::Range(0, int{kFcfs}),
                                            ::testing::Bool()),
                         CaseName);

}  // namespace
}  // namespace rtq::core
