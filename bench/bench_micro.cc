// Micro-benchmarks (google-benchmark) of the hot substrates: the event
// calendar, the least-squares fits PMM recomputes every batch, the
// allocation strategies, the LRU page cache, the disk geometry model,
// the MemoryManager reallocation path, and policy-registry dispatch.

#include <benchmark/benchmark.h>

#include <deque>
#include <memory>
#include <vector>

#include "buffer/lru_cache.h"
#include "common/arena.h"
#include "common/inline_callback.h"
#include "common/rng.h"
#include "core/memory_manager.h"
#include "core/policy_registry.h"
#include "core/strategy.h"
#include "engine/metrics.h"
#include "model/disk.h"
#include "model/disk_geometry.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "stats/quadratic_fit.h"

namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  rtq::Rng rng(1);
  for (auto _ : state) {
    rtq::sim::EventQueue q;
    for (int i = 0; i < state.range(0); ++i) {
      q.Schedule(rng.NextDouble(), [] {});
    }
    while (!q.Empty()) benchmark::DoNotOptimize(q.Pop().first);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  rtq::Rng rng(2);
  for (auto _ : state) {
    rtq::sim::EventQueue q;
    std::vector<rtq::sim::EventId> ids;
    for (int i = 0; i < state.range(0); ++i) {
      ids.push_back(q.Schedule(rng.NextDouble(), [] {}));
    }
    for (size_t i = 0; i < ids.size(); i += 2) q.Cancel(ids[i]);
    while (!q.Empty()) benchmark::DoNotOptimize(q.Pop().first);
  }
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(4096);

// Steady-state calendar churn, the simulator's per-event signature: one
// schedule + one pop per iteration against a standing population, with a
// tunable fraction of cancellations (arg 1, percent). Sparse (5%)
// resembles the baseline workload — deadline events are cancelled when
// queries finish in time; dense (50%) stresses slab recycling and the
// lazy skim the way an overloaded firm-deadline run does.
void BM_EventQueueChurn(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  const int64_t cancel_pct = state.range(1);
  rtq::Rng rng(11);
  rtq::sim::EventQueue q;
  std::vector<rtq::sim::EventId> ids(population, rtq::sim::kInvalidEventId);
  double now = 0.0;
  for (size_t i = 0; i < population; ++i) {
    ids[i] = q.Schedule(rng.Uniform(0.0, 100.0), [] {});
  }
  size_t slot = 0;
  for (auto _ : state) {
    ids[slot] = q.Schedule(now + rng.Uniform(0.0, 100.0), [] {});
    slot = (slot + 1) % population;
    if (rng.UniformInt(0, 99) < cancel_pct) {
      // May hit an already-popped id; that O(1) rejection is part of the
      // realistic mix.
      q.Cancel(ids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(population) - 1))]);
    }
    if (!q.Empty()) now = q.Pop().first;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn)
    ->Args({1024, 5})
    ->Args({1024, 50})
    ->Args({16384, 5});

void BM_QuadraticFit(benchmark::State& state) {
  rtq::Rng rng(3);
  std::vector<std::pair<double, double>> points;
  for (int i = 0; i < 200; ++i) {
    double x = rng.Uniform(1.0, 30.0);
    points.emplace_back(x, 0.01 * x * x - 0.2 * x + 2.0);
  }
  for (auto _ : state) {
    rtq::stats::QuadraticFit fit;
    for (auto [x, y] : points) fit.Add(x, y);
    benchmark::DoNotOptimize(fit.Fit());
    benchmark::DoNotOptimize(fit.Classify());
  }
}
BENCHMARK(BM_QuadraticFit);

// One strategy call per iteration over a prebuilt index of `queries`
// (taken in the given order) with a 2560-page pool.
void AllocateLoop(benchmark::State& state,
                  const rtq::core::AllocationStrategy& strategy,
                  const std::vector<rtq::core::MemRequest>& queries) {
  std::vector<rtq::core::EdIndex::Node> nodes(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) nodes[i].request = queries[i];
  rtq::core::EdIndex index;
  index.Assign(nodes.data(), nodes.size());
  rtq::core::Allocation alloc;
  for (auto _ : state) {
    alloc.grants.clear();
    strategy.Allocate(index, 2560, &alloc);
    benchmark::DoNotOptimize(alloc.grants.data());
  }
}

void BM_MinMaxAllocate(benchmark::State& state) {
  rtq::Rng rng(4);
  std::vector<rtq::core::MemRequest> queries;
  for (int i = 0; i < state.range(0); ++i) {
    rtq::core::MemRequest q;
    q.id = static_cast<rtq::QueryId>(i);
    q.deadline = rng.Uniform(0.0, 1000.0);
    q.min_memory = 38;
    q.max_memory = rng.UniformInt(600, 2000);
    queries.push_back(q);
  }
  std::sort(queries.begin(), queries.end(),
            [](const auto& a, const auto& b) {
              return a.deadline < b.deadline;
            });
  rtq::core::MinMaxStrategy strategy(-1);
  AllocateLoop(state, strategy, queries);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MinMaxAllocate)->Arg(16)->Arg(128);

void BM_ProportionalAllocate(benchmark::State& state) {
  rtq::Rng rng(5);
  std::vector<rtq::core::MemRequest> queries;
  for (int i = 0; i < 64; ++i) {
    rtq::core::MemRequest q;
    q.id = static_cast<rtq::QueryId>(i);
    q.deadline = rng.Uniform(0.0, 1000.0);
    q.min_memory = 38;
    q.max_memory = rng.UniformInt(600, 2000);
    queries.push_back(q);
  }
  rtq::core::ProportionalStrategy strategy(-1);
  AllocateLoop(state, strategy, queries);
}
BENCHMARK(BM_ProportionalAllocate);

void BM_LruCacheChurn(benchmark::State& state) {
  rtq::Rng rng(6);
  rtq::buffer::LruCache cache(1024);
  for (auto _ : state) {
    uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 4095));
    if (!cache.Lookup(key)) cache.Insert(key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheChurn);

// Pure promote path: every probe hits a resident key, so the cost is one
// hash find plus the intrusive head-splice — the buffer-manager fast
// path a query pays per page reference once its working set is warm.
void BM_LruTouch(benchmark::State& state) {
  rtq::Rng rng(12);
  rtq::buffer::LruCache cache(1024);
  for (uint64_t key = 0; key < 1024; ++key) cache.Insert(key);
  for (auto _ : state) {
    uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 1023));
    benchmark::DoNotOptimize(cache.Lookup(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruTouch);

// The per-request disk timing model: every simulated I/O pays one
// AccessTime evaluation, so this sits squarely on the event hot path.
void BM_DiskGeometryAccessTime(benchmark::State& state) {
  rtq::Rng rng(7);
  rtq::model::DiskGeometry geometry{rtq::model::DiskParams{}};
  const rtq::PageCount capacity = geometry.params().capacity();
  std::vector<std::pair<rtq::Cylinder, rtq::PageCount>> accesses;
  for (int i = 0; i < 1024; ++i) {
    accesses.emplace_back(
        static_cast<rtq::Cylinder>(
            rng.UniformInt(0, geometry.params().num_cylinders - 1)),
        rng.UniformInt(0, capacity - 64));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto [head, start] = accesses[i++ & 1023];
    benchmark::DoNotOptimize(geometry.AccessTime(head, start, 6));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiskGeometryAccessTime);

// The elevator pick at a fixed queue depth (arg 0): submit `depth`
// requests in a handful of deadline buckets (so the cylinder-sweep
// tie-break, not just ED, decides) and drain the disk. Each service
// completion pays one PickByElevator over the remaining queue, which is
// what the (deadline, cylinder, seq) index made O(log n).
void BM_DiskElevatorDrain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  rtq::Rng rng(12);
  rtq::model::DiskParams params;
  struct Req {
    double deadline;
    rtq::PageCount start;
  };
  std::vector<Req> reqs;
  for (int i = 0; i < depth; ++i) {
    reqs.push_back(Req{100.0 * static_cast<double>(rng.UniformInt(1, 4)),
                       rng.UniformInt(0, params.capacity() - 7)});
  }
  for (auto _ : state) {
    rtq::sim::Simulator sim;
    rtq::model::Disk disk(&sim, params, 0);
    for (const Req& r : reqs) {
      rtq::model::DiskRequest req;
      req.query = 1;
      req.deadline = r.deadline;
      req.start_page = r.start;
      req.pages = 6;
      disk.Submit(std::move(req));
    }
    sim.RunToCompletion();
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_DiskElevatorDrain)->Arg(4)->Arg(32)->Arg(256);

// MemoryManager::Reallocate with N live queries: the full recompute the
// engine triggers on every arrival, completion, and policy revision.
void BM_MemoryManagerReallocate(benchmark::State& state) {
  rtq::Rng rng(8);
  rtq::core::MemoryManager mm(
      2560, std::make_unique<rtq::core::MinMaxStrategy>(-1),
      [](rtq::QueryId, rtq::PageCount) {});
  for (int i = 0; i < state.range(0); ++i) {
    rtq::core::MemRequest q;
    q.id = static_cast<rtq::QueryId>(i);
    q.deadline = rng.Uniform(0.0, 1000.0);
    q.min_memory = 38;
    q.max_memory = rng.UniformInt(600, 2000);
    mm.AddQuery(q);
  }
  for (auto _ : state) {
    mm.Reallocate();
    benchmark::DoNotOptimize(mm.allocated_pages());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemoryManagerReallocate)->Arg(16)->Arg(128);

// Arrival/completion churn at a standing population of `live` queries
// (arg 0) under the paper's strategy arg 1 (0 = Max, 1 = MinMax,
// 2 = Proportional) — the overloaded steady state where most of the
// population waits behind the admission frontier. Each iteration is one
// arrival plus one completion (the oldest query leaves), the membership
// churn the engine generates per finished query. A recompute should
// cost the same at 10 000 live as at 100: it scales with the admitted
// queries, not the waiting ones.
std::unique_ptr<rtq::core::AllocationStrategy> ChurnStrategy(int64_t kind) {
  switch (kind) {
    case 0: return std::make_unique<rtq::core::MaxStrategy>();
    case 1: return std::make_unique<rtq::core::MinMaxStrategy>(-1);
    default: return std::make_unique<rtq::core::ProportionalStrategy>(-1);
  }
}

void BM_MemoryManagerChurn(benchmark::State& state) {
  const int64_t live = state.range(0);
  rtq::Rng rng(13);
  rtq::core::MemoryManager mm(2560, ChurnStrategy(state.range(1)),
                              [](rtq::QueryId, rtq::PageCount) {});
  double now = 0.0;
  rtq::QueryId next_id = 0;
  std::deque<rtq::QueryId> fifo;
  auto arrive = [&] {
    rtq::core::MemRequest q;
    q.id = next_id++;
    q.deadline = now + rng.Uniform(50.0, 500.0);
    q.min_memory = 38;
    q.max_memory = rng.UniformInt(600, 2000);
    fifo.push_back(q.id);
    mm.AddQuery(q);
  };
  for (int64_t i = 0; i < live; ++i) arrive();
  const int64_t warm_recomputes = mm.recomputes();
  for (auto _ : state) {
    now += 1.0;
    arrive();
    mm.RemoveQuery(fifo.front());
    fifo.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["recomputes_per_op"] =
      static_cast<double>(mm.recomputes() - warm_recomputes) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_MemoryManagerChurn)
    ->ArgNames({"live", "strategy"})
    ->ArgsProduct({{10, 100, 1000, 10000}, {0, 1, 2}});

// Spec string -> policy instance through the registry: the dispatch
// cost the PolicyRegistry redesign added to system construction (it
// runs once per Rtdbs::Create, so it only needs to stay trivially
// cheap, not free).
void BM_PolicyRegistryCreate(benchmark::State& state) {
  const std::string specs[] = {"max", "minmax:10", "pmm",
                               "pmm-fair:w=1,2"};
  size_t i = 0;
  for (auto _ : state) {
    auto policy =
        rtq::core::PolicyRegistry::Global().Create(specs[i++ & 3]);
    benchmark::DoNotOptimize(policy.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyRegistryCreate);

// The allocation pattern of one query phase: a burst of small
// mixed-size node allocations, then everything freed at once. Arg 0
// plays it against the global heap (malloc per node, free per node);
// arg 1 against a phase-scoped Arena (bump pointer, one Reset). The gap
// is what the per-query runtime arenas buy on admission.
void BM_ArenaVsMalloc(benchmark::State& state) {
  const bool use_arena = state.range(0) != 0;
  constexpr int kNodes = 256;
  constexpr size_t kSizes[] = {16, 24, 40, 64, 96};
  rtq::Arena arena;
  std::vector<void*> ptrs;
  ptrs.reserve(kNodes);
  for (auto _ : state) {
    if (use_arena) {
      for (int i = 0; i < kNodes; ++i) {
        benchmark::DoNotOptimize(arena.Allocate(kSizes[i % 5], 8));
      }
      arena.Reset();
    } else {
      ptrs.clear();
      for (int i = 0; i < kNodes; ++i) {
        ptrs.push_back(::operator new(kSizes[i % 5]));
      }
      for (void* p : ptrs) ::operator delete(p);
    }
  }
  state.SetItemsProcessed(state.iterations() * kNodes);
  state.SetLabel(use_arena ? "arena" : "malloc");
}
BENCHMARK(BM_ArenaVsMalloc)->Arg(0)->Arg(1);

// One simulated event's callback life-cycle: construct in a slot,
// relocate once (slab slot -> simulator-loop holder, as PopInto does),
// dispatch through the ops table. The capture is two pointers and a
// payload — the shape of the engine's completion continuations.
void BM_InlineCallbackDispatch(benchmark::State& state) {
  uint64_t sink = 0;
  uint64_t* sink_ptr = &sink;
  int64_t payload = 0;
  rtq::InlineCallback<48> slot;
  for (auto _ : state) {
    ++payload;
    slot = [sink_ptr, payload] { *sink_ptr += static_cast<uint64_t>(payload); };
    rtq::InlineCallback<48> holder(std::move(slot));
    holder();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InlineCallbackDispatch);

// One `stats` reply's summary over a run with range(0) finished queries
// in three classes: the cost rtq_serve pays per command, which must not
// grow with the run's length.
void BM_Summarize(benchmark::State& state) {
  constexpr int32_t kClasses = 3;
  rtq::Rng rng(14);
  rtq::engine::MetricsCollector metrics(/*miss_ci_batch=*/200, kClasses);
  for (int64_t i = 0; i < state.range(0); ++i) {
    rtq::engine::CompletionRecord r;
    r.info.id = i;
    r.info.query_class = static_cast<int32_t>(rng.UniformInt(0, kClasses - 1));
    r.info.missed = rng.NextDouble() < 0.2;
    r.info.admission_wait = rng.Uniform(0.0, 10.0);
    r.info.execution_time = rng.Uniform(0.0, 30.0);
    r.mem_fluctuations = rng.UniformInt(0, 5);
    metrics.Record(r);
  }
  rtq::engine::ClassSummary overall;
  std::vector<rtq::engine::ClassSummary> per_class;
  for (auto _ : state) {
    metrics.Summarize(&overall, &per_class);
    benchmark::DoNotOptimize(overall);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Summarize)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
