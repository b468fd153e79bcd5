// Dynamic half of the zero-alloc contract for the simulator substrate: the
// statically-checked mstlint zero-alloc regions in engine.cpp/platform_sim.cpp
// ban allocating constructs at the token level; these tests pin the actual
// runtime behaviour with the shared global-allocation probe.
//
// Two claims:
//  1. the event engine's steady state — scheduling and firing events on a
//     warm heap — performs zero allocations;
//  2. the streaming driver's whole-run allocation *count* is independent
//     of the task count: the per-task cost is zero, everything that does
//     allocate is per-run or per-node setup.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/api/solve_scratch.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/obs/observation.hpp"
#include "mst/platform/generator.hpp"
#include "mst/sim/engine.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/workload.hpp"
#include "support/alloc_probe.hpp"

namespace mst {
namespace {

/// Self-rescheduling event: each firing schedules the next until the
/// countdown ends.  Two machine words — fits the inline callback storage.
struct Ticker {
  sim::Engine* engine;
  int remaining;
  void operator()() const {
    if (remaining > 0) engine->after(1, Ticker{engine, remaining - 1});
  }
};

TEST(EngineZeroAlloc, SteadyStateEventLoopIsAllocationFree) {
  sim::Engine engine;
  engine.reserve(8);
  // Warm-up: sizes the heap vector and touches every code path once.
  engine.at(0, Ticker{&engine, 100});
  engine.run();

  alloc_probe::Scope probe;
  // Four interleaved tickers exercise heap sift-up/down, not just a
  // single-element queue.
  for (int lane = 0; lane < 4; ++lane) {
    engine.at(engine.now() + lane, Ticker{&engine, 2500});
  }
  engine.run();
  EXPECT_EQ(probe.count(), 0);
  EXPECT_GE(engine.events_processed(), 10000u);
}

/// Ticker that counts every firing through a metric handle — the
/// instrumented twin of the test above.  The handle is one pointer, so the
/// capture still fits the inline storage.
struct CountingTicker {
  sim::Engine* engine;
  int remaining;
  mutable obs::Counter fired;  // handle updates are non-const (atomic RMW)
  void operator()() const {
    fired.increment();
    if (remaining > 0) engine->after(1, CountingTicker{engine, remaining - 1, fired});
  }
};

TEST(EngineZeroAlloc, InstrumentedEventLoopIsAllocationFree) {
  // Both halves of the observability cost model: a disabled handle (the
  // uninstrumented default) and an enabled, preregistered one — neither may
  // allocate in the steady state.
  obs::MetricsRegistry registry;
  for (const bool enabled : {false, true}) {
    obs::Counter fired = enabled ? registry.counter("engine.fired") : obs::Counter{};
    EXPECT_EQ(fired.enabled(), enabled);
    sim::Engine engine;
    engine.reserve(8);
    engine.at(0, CountingTicker{&engine, 100, fired});
    engine.run();

    alloc_probe::Scope probe;
    for (int lane = 0; lane < 4; ++lane) {
      engine.at(engine.now() + lane, CountingTicker{&engine, 2500, fired});
    }
    engine.run();
    EXPECT_EQ(probe.count(), 0) << (enabled ? "enabled" : "disabled");
  }
  const std::vector<obs::MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_GE(samples[0].value, 10000);
}

TEST(MetricsZeroAlloc, WarmResetAndReRegistrationAllocateNothing) {
  // A journaled sweep worker resets one registry before every cell and
  // registers the cell's metrics into it again: neither may allocate, and
  // neither may a merge into a warm target.
  auto cell = std::make_unique<obs::MetricsRegistry>();
  auto total = std::make_unique<obs::MetricsRegistry>();
  const auto record_cell = [&] {
    cell->reset();
    cell->counter("api.solve.optimal").increment();
    cell->gauge("sim.queue.high_water").record(4);
    cell->histogram("stream.latency").observe(9);
    cell->counter("scenario.cell.wall_us", obs::DeterminismClass::kWallTime).add(12);
    cell->merge_into(*total);
  };
  record_cell();  // warm: every name is registered in `total`

  alloc_probe::Scope probe;
  for (int i = 0; i < 16; ++i) record_cell();
  EXPECT_EQ(probe.count(), 0);

  const std::vector<obs::MetricSample> samples = total->snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "api.solve.optimal");
  EXPECT_EQ(samples[0].value, 17);
}

TEST(EngineZeroAlloc, OversizedCaptureWouldNotCompile) {
  // Compile-time contract documented here: InplaceCallback rejects
  // captures beyond kStorage via static_assert, so nothing silently heap
  // allocates per event.  This test just pins the storage constant the
  // simulator's lambdas were sized against.
  static_assert(sim::InplaceCallback::kStorage >= 7 * sizeof(void*));
  SUCCEED();
}

/// Total allocations of one full streaming run (policy and workload are
/// built outside the probed window; the run itself is driver + simulator +
/// metrics).
long stream_allocations(std::size_t n, obs::MetricsRegistry* metrics = nullptr) {
  Rng rng(99);
  const Tree tree = random_tree(rng, 12, {1, 9, PlatformClass::kUniform});
  const auto policy = sim::make_stream_policy(tree, sim::OnlinePolicy::kRoundRobin);
  const Workload workload = Workload::identical(n);

  alloc_probe::Scope probe;
  const sim::StreamResult result =
      sim::simulate_stream(tree, workload, *policy, obs::Observation{metrics, nullptr});
  EXPECT_EQ(result.sim.tasks.size(), n);
  return probe.count();
}

TEST(StreamingZeroAlloc, RunAllocationCountIndependentOfTaskCount) {
  const long small = stream_allocations(256);
  const long large = stream_allocations(2048);
  // Setup (result arrays, route cache, event heap, metrics vector) may
  // allocate; the steady-state loop may not — so 8x the tasks must not add
  // a single extra allocation.
  EXPECT_GT(small, 0);
  EXPECT_EQ(small, large);
}

TEST(StreamingZeroAlloc, MetricsAttachedRunAllocatesNothingExtra) {
  // The observability contract end to end: with a metrics registry attached
  // the driver registers into fixed slots and updates atomics, so the run's
  // allocation count neither grows with the task count nor exceeds the
  // uninstrumented run's.
  obs::MetricsRegistry registry;
  const long small = stream_allocations(256, &registry);
  const long large = stream_allocations(2048, &registry);
  EXPECT_GT(small, 0);
  EXPECT_EQ(small, large);
  EXPECT_EQ(small, stream_allocations(256));

  const std::vector<obs::MetricSample> samples = registry.snapshot();
  EXPECT_FALSE(samples.empty());
  for (const obs::MetricSample& sample : samples) {
    if (sample.name == "stream.arrivals") {
      EXPECT_EQ(sample.value, 256 + 2048);
    }
  }
}

/// Allocations of one *materialized* solve on a warm `api::SolveScratch`:
/// two warm-up solves size every pool (schedule payloads included — each is
/// recycled back into the scratch, the consumer half of the contract), then
/// the third solve runs under the probe.
long solve_allocations(const api::Platform& platform, const char* algorithm, std::size_t n) {
  const api::Registry& registry = api::registry();
  api::SolveScratch scratch;
  api::SolveOptions options;
  options.materialize = true;
  options.scratch = &scratch;
  for (int warm = 0; warm < 2; ++warm) {
    scratch.recycle(registry.solve(platform, algorithm, n, options));
  }

  alloc_probe::Scope probe;
  api::SolveResult result = registry.solve(platform, algorithm, n, options);
  const long count = probe.count();
  EXPECT_EQ(result.tasks, n);
  scratch.recycle(std::move(result));
  return count;
}

TEST(SolveZeroAlloc, MaterializedOptimalSolvesAreAllocationFree) {
  // The tentpole claim: with a warm scratch, a full schedule-producing
  // solve on each closed-form platform allocates nothing — the plan is
  // rebuilt in place inside recycled pool capacity.
  Rng rng(7);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  const api::Platform chain(random_chain(rng, 12, params));
  const api::Platform fork(random_fork(rng, 12, params));
  const api::Platform spider(random_spider(rng, 6, 3, params));
  EXPECT_EQ(solve_allocations(chain, "optimal", 300), 0) << "chain";
  EXPECT_EQ(solve_allocations(fork, "optimal", 300), 0) << "fork";
  EXPECT_EQ(solve_allocations(spider, "optimal", 300), 0) << "spider";
}

TEST(SolveZeroAlloc, WarmCountOnlyMakespansAllocateNothing) {
  // The count-only makespan form — the search alone, about one merge and
  // linear passes — on warm scratch, at core level and through the
  // registry's `materialize == false` entry.
  Rng rng(8);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  const Fork fork = random_fork(rng, 12, params);
  const Spider spider = random_spider(rng, 6, 3, params);
  const api::Platform fork_platform(fork);
  const api::Platform spider_platform(spider);
  ForkCountScratch fork_scratch;
  SpiderCountScratch spider_scratch;
  api::SolveScratch scratch;
  api::SolveOptions options;
  options.materialize = false;
  options.scratch = &scratch;
  const api::Registry& registry = api::registry();
  Time sum = 0;
  const auto solve_all = [&] {
    for (const std::size_t n : {1u, 40u, 300u}) {
      sum += ForkScheduler::makespan(fork, n, fork_scratch).horizon;
      sum += SpiderScheduler::makespan(spider, n, spider_scratch).horizon;
      sum += registry.solve(fork_platform, "optimal", n, options).makespan;
      sum += registry.solve(spider_platform, "optimal", n, options).makespan;
    }
  };
  for (int warm = 0; warm < 2; ++warm) solve_all();

  alloc_probe::Scope probe;
  solve_all();
  const long count = probe.count();
  EXPECT_GT(sum, 0);
  EXPECT_EQ(count, 0);
}

/// `n` unit tasks with release dates drawn in [0, spread], at least one
/// of them positive.
Workload released_tasks(Rng& rng, std::size_t n, Time spread) {
  std::vector<Time> releases(n);
  for (Time& r : releases) r = rng.uniform(0, spread);
  releases.front() = std::max<Time>(releases.front(), 1);
  return Workload::released(std::move(releases));
}

TEST(SolveZeroAlloc, ScratchSolvesMatchPlainSolvesExactly) {
  // The scratch paths are alternative *materializations*, not alternative
  // algorithms: every field of the result — schedule payload included —
  // must be bit-identical to the scratch-free solve, in the makespan form
  // and in the decision form (pooled at the plain makespan), for identical
  // and released workloads alike.
  const api::Registry& registry = api::registry();
  Rng rng(21);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  const api::Platform chain(random_chain(rng, 9, params));
  const api::Platform fork(random_fork(rng, 9, params));
  const api::Platform spider(random_spider(rng, 5, 4, params));
  const api::Platform tree(random_tree(rng, 10, params));
  const std::vector<Workload> identical = {Workload::identical(1), Workload::identical(17),
                                           Workload::identical(256)};
  std::vector<Workload> mixed = identical;
  mixed.push_back(released_tasks(rng, 1, 30));
  mixed.push_back(released_tasks(rng, 24, 60));
  mixed.push_back(released_tasks(rng, 64, 400));
  struct Case {
    const api::Platform& platform;
    const char* algorithm;
    std::vector<Workload> workloads;
  };
  const Case cases[] = {
      {chain, "optimal", mixed},
      {fork, "optimal", mixed},
      {spider, "optimal", mixed},
      {tree, "spider-cover", identical},
      {tree, "forward-greedy", identical},
      // Local search re-evaluates O(n^2) moves: smaller task counts.
      {tree, "local-search", {Workload::identical(1), Workload::identical(17),
                              Workload::identical(24)}},
  };
  api::SolveScratch scratch;
  for (const Case& c : cases) {
    for (const Workload& workload : c.workloads) {
      const std::string what = std::string(c.algorithm) + " on " + api::describe(c.platform) +
                               ", " + workload.describe();
      api::SolveOptions plain_options;
      plain_options.materialize = true;
      const api::SolveResult plain = registry.solve(c.platform, c.algorithm, workload,
                                                    plain_options);

      api::SolveOptions scratch_options = plain_options;
      scratch_options.scratch = &scratch;
      api::SolveResult pooled = registry.solve(c.platform, c.algorithm, workload,
                                               scratch_options);

      EXPECT_EQ(pooled.makespan, plain.makespan) << what;
      EXPECT_EQ(pooled.lower_bound, plain.lower_bound) << what;
      EXPECT_EQ(pooled.tasks, plain.tasks) << what;
      EXPECT_EQ(pooled.optimal, plain.optimal) << what;
      EXPECT_EQ(pooled.schedule == plain.schedule, true) << what;
      scratch.recycle(std::move(pooled));

      // Count-only (the fork/spider `optimal` entries take the search-only
      // makespan form on identical workloads): every field but the payload.
      api::SolveOptions count_options = scratch_options;
      count_options.materialize = false;
      const api::SolveResult counted = registry.solve(c.platform, c.algorithm, workload,
                                                      count_options);
      EXPECT_EQ(counted.makespan, plain.makespan) << what;
      EXPECT_EQ(counted.lower_bound, plain.lower_bound) << what;
      EXPECT_EQ(counted.tasks, plain.tasks) << what;
      EXPECT_EQ(counted.optimal, plain.optimal) << what;
      EXPECT_EQ(counted.algorithm, plain.algorithm) << what;
      EXPECT_EQ(counted.kind, plain.kind) << what;
      EXPECT_TRUE(std::holds_alternative<std::monostate>(counted.schedule)) << what;

      plain_options.workload = std::make_shared<const Workload>(workload);
      scratch_options.workload = plain_options.workload;
      const api::DecisionResult plain_within =
          registry.solve_within(c.platform, c.algorithm, plain.makespan, plain_options);
      api::DecisionResult pooled_within =
          registry.solve_within(c.platform, c.algorithm, plain.makespan, scratch_options);
      EXPECT_EQ(pooled_within.tasks, plain_within.tasks) << what;
      EXPECT_EQ(pooled_within.makespan, plain_within.makespan) << what;
      EXPECT_EQ(pooled_within.optimal, plain_within.optimal) << what;
      EXPECT_EQ(pooled_within.schedule == plain_within.schedule, true) << what;
      scratch.recycle(std::move(pooled_within));
    }
  }
}

TEST(ReleasedZeroAlloc, WarmReleasedForkSpiderIntoPathsAllocateNothing) {
  // Core level (the registry copies the Workload into every result): the
  // released makespan and decision `_into` paths — count probes, the
  // selecting pass, the replay — on warm scratch allocate nothing.
  Rng rng(41);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  const Fork fork = random_fork(rng, 8, params);
  const Spider spider = random_spider(rng, 4, 3, params);
  const Workload workload = released_tasks(rng, 48, 300);
  ForkCountScratch fork_scratch;
  ForkSchedule fork_out;
  SpiderSolveScratch spider_scratch;
  SpiderSchedule spider_out;
  const std::size_t n = workload.count();
  std::size_t scheduled = 0;
  const auto solve_all = [&] {
    ForkScheduler::schedule_into(fork, workload, fork_scratch, fork_out);
    const Time fork_horizon = fork_out.makespan();
    ForkScheduler::schedule_within_into(fork, fork_horizon, workload, n, fork_scratch, fork_out);
    scheduled = fork_out.tasks.size();
    scheduled +=
        ForkScheduler::makespan_within(fork, fork_horizon, workload, n, fork_scratch).first;
    SpiderScheduler::schedule_into(spider, workload, spider_scratch, spider_out);
    const Time spider_horizon = spider_out.makespan();
    SpiderScheduler::schedule_within_into(spider, spider_horizon, workload, n, spider_scratch,
                                          spider_out);
    scheduled += spider_out.tasks.size();
  };
  for (int warm = 0; warm < 2; ++warm) solve_all();

  alloc_probe::Scope probe;
  solve_all();
  const long count = probe.count();
  EXPECT_EQ(scheduled, 3 * n);
  EXPECT_EQ(count, 0);
}

TEST(SolveZeroAlloc, TreeHeuristicAllocationCountIndependentOfTaskCount) {
  // Tree-shaped platforms keep per-solve state (`TreeAsapState` caches the
  // path table of one tree, so it cannot live in the platform-agnostic
  // scratch); the contract is the streaming one — the allocation count is
  // per-*tree*, never per-task.
  Rng rng(33);
  const api::Platform tree(random_tree(rng, 10, {1, 9, PlatformClass::kUniform}));
  for (const char* algorithm : {"spider-cover", "forward-greedy"}) {
    const long small = solve_allocations(tree, algorithm, 256);
    const long large = solve_allocations(tree, algorithm, 2048);
    EXPECT_EQ(small, large) << algorithm;
  }
  // Local search swaps are O(n^2) re-evaluations — same contract, smaller n.
  const long small = solve_allocations(tree, "local-search", 24);
  const long large = solve_allocations(tree, "local-search", 48);
  EXPECT_EQ(small, large) << "local-search";
}

}  // namespace
}  // namespace mst
