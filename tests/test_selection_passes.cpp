// The deterministic selection-pass count of the fork/spider makespan forms:
// one selection per search probe, plus one at the horizon only when the
// search returned its unprobed ceiling — the selection of the smallest
// feasible probe is reused, never recomputed.  Pinned on the fixed grid of
// test_search.cpp's probe total, so a second selection pass sneaking back
// into the materialization fails on any machine; the merge count beside it
// pins merge-ahead (most probes are linear passes over one merge).  The
// linear passes themselves are checked against fresh count probes at every
// horizon below a merge, and the count-only makespan form against the
// materializing one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "mst/common/rng.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"

namespace mst {
namespace {

/// The searches' ceilings: all tasks on the single best slave or leg.
Time fork_ceiling(const Fork& fork, std::size_t n) {
  Time best = kTimeInfinity;
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& s = fork.slave(i);
    best = std::min(best, s.comm + static_cast<Time>(n - 1) * fork.cadence(i) + s.work);
  }
  return best;
}

Time spider_ceiling(const Spider& spider, std::size_t n) {
  Time best = kTimeInfinity;
  for (const Chain& leg : spider.legs()) best = std::min(best, leg.t_infinity(n));
  return best;
}

constexpr PlatformClass kClasses[] = {PlatformClass::kUniform, PlatformClass::kCommBound,
                                      PlatformClass::kComputeBound, PlatformClass::kCorrelated,
                                      PlatformClass::kAntiCorrelated};

/// `proc` with its link latency zeroed with probability 1/3.
Processor maybe_zero_link(Rng& rng, Processor proc) {
  if (rng.uniform(0, 2) == 0) proc.comm = 0;
  return proc;
}

/// Merges the runs at `merge_at` (through `count_within(t, n, scratch)`,
/// which leaves the runs at `t` in the scratch), then checks the linear pass
/// at every horizon `t` in `[0, merge_at]` against a fresh count probe at
/// `t`: the pass clamped to the cap equals the count, and its per-run counts
/// equal the probe's.
template <typename Scratch, typename CountWithin>
void expect_passes_equal_counts(CountWithin count_within, Time merge_at, std::size_t n,
                                const std::string& what) {
  Scratch merged;
  Scratch probe;
  count_within(merge_at, n, merged);
  const std::size_t merges = merged.merges;
  const std::size_t selections = merged.selections;
  run_select::record_merge(merge_at, merged);
  for (Time t = 0; t <= merge_at; ++t) {
    const std::size_t want = count_within(t, n, probe);
    const std::size_t got = std::min(run_select::select_merged(t, merged), n);
    ASSERT_EQ(got, want) << what << " n=" << n << " M=" << merge_at << " T=" << t;
    ASSERT_EQ(merged.counts, probe.counts) << what << " n=" << n << " M=" << merge_at
                                           << " T=" << t;
  }
  EXPECT_EQ(merged.merges - merges, 1u);
  EXPECT_EQ(merged.selections - selections, static_cast<std::size_t>(merge_at) + 1);
}

TEST(SelectionPasses, LinearPassesEqualCountsBelowTheMerge) {
  Rng rng(1306);
  for (const PlatformClass cls : kClasses) {
    const GeneratorParams params{1, 12, cls};
    for (const std::size_t p : {2u, 5u, 9u}) {
      std::vector<Processor> slaves = random_fork(rng, p, params).slaves();
      for (Processor& slave : slaves) slave = maybe_zero_link(rng, slave);
      const Fork fork(std::move(slaves));
      const Spider drawn = random_spider(rng, p, 3, params);
      std::vector<Chain> legs;
      for (const Chain& leg : drawn.legs()) {
        std::vector<Processor> procs = leg.procs();
        procs.front() = maybe_zero_link(rng, procs.front());
        legs.emplace_back(std::move(procs));
      }
      const Spider spider(std::move(legs));
      for (const std::size_t n : {1u, 7u, 40u, 150u}) {
        // Merged past the optimum, so the passes cover both feasible and
        // infeasible horizons.
        const Time fork_at = ForkScheduler::makespan(fork, n) * 5 / 4 + 1;
        expect_passes_equal_counts<ForkCountScratch>(
            [&](Time t, std::size_t cap, ForkCountScratch& s) {
              return ForkScheduler::count_within(fork, t, cap, s);
            },
            fork_at, n, fork.describe());
        const Time spider_at = SpiderScheduler::makespan(spider, n) * 5 / 4 + 1;
        expect_passes_equal_counts<SpiderCountScratch>(
            [&](Time t, std::size_t cap, SpiderCountScratch& s) {
              return SpiderScheduler::count_within(spider, t, cap, s);
            },
            spider_at, n, spider.describe());
      }
    }
  }
}

TEST(SelectionPasses, OnePassPerProbeOnTheProbeGrid) {
  // The grid (and generator draws) of `SeededSearch.ProbeTotalIsPinned`.
  // A pass at the horizon after every search would make this 385 + 120.
  Rng rng(1304);
  ForkCountScratch fork_scratch;
  SpiderSolveScratch spider_scratch;
  ForkSchedule fork_out;
  SpiderSchedule spider_out;
  std::size_t probes = 0;
  std::size_t solves = 0;
  std::size_t at_ceiling = 0;  // optimal makespan == the search's ceiling
  for (const PlatformClass cls : kClasses) {
    const GeneratorParams params{1, 12, cls};
    for (const std::size_t p : {2u, 5u, 9u}) {
      const Fork fork = random_fork(rng, p, params);
      const Spider spider = random_spider(rng, p, 3, params);
      for (const std::size_t n : {1u, 7u, 40u, 150u}) {
        probes += ForkScheduler::schedule_into(fork, n, fork_scratch, fork_out);
        probes += SpiderScheduler::schedule_into(spider, n, spider_scratch, spider_out);
        at_ceiling += fork_out.makespan() == fork_ceiling(fork, n) ? 1 : 0;
        at_ceiling += spider_out.makespan() == spider_ceiling(spider, n) ? 1 : 0;
        solves += 2;
      }
    }
  }
  EXPECT_EQ(solves, 120u);
  EXPECT_EQ(probes, 385u);
  // The ceiling is never probed, so a solve whose optimum is the ceiling
  // (every n = 1 solve among them) selects once more, at the horizon.
  EXPECT_EQ(at_ceiling, 63u);
  EXPECT_EQ(fork_scratch.selections + spider_scratch.count.selections, probes + at_ceiling);
  EXPECT_EQ(fork_scratch.selections + spider_scratch.count.selections, 448u);
  // Merge-ahead: about one merge per solve, each answering the probes at or
  // below it with linear passes (a merge per selection would make 448).
  EXPECT_EQ(fork_scratch.merges + spider_scratch.count.merges, 166u);
}

TEST(SelectionPasses, CountOnlyMakespanEqualsTheMaterializedOne) {
  // Same grid and draws: the count-only form's horizon is the materialized
  // schedule's makespan, reached with the same probes; the materialized
  // spider solve builds no leg task past the kept counts.
  Rng rng(1304);
  ForkCountScratch fork_scratch;
  ForkCountScratch fork_count;
  SpiderSolveScratch spider_scratch;
  SpiderCountScratch spider_count;
  ForkSchedule fork_out;
  SpiderSchedule spider_out;
  for (const PlatformClass cls : kClasses) {
    const GeneratorParams params{1, 12, cls};
    for (const std::size_t p : {2u, 5u, 9u}) {
      const Fork fork = random_fork(rng, p, params);
      const Spider spider = random_spider(rng, p, 3, params);
      for (const std::size_t n : {1u, 7u, 40u, 150u}) {
        const std::size_t fork_probes = ForkScheduler::schedule_into(fork, n, fork_scratch,
                                                                     fork_out);
        const run_select::SearchResult fork_found = ForkScheduler::makespan(fork, n, fork_count);
        EXPECT_EQ(fork_found.horizon, fork_out.makespan()) << fork.describe() << " n=" << n;
        EXPECT_EQ(fork_found.probes, fork_probes) << fork.describe() << " n=" << n;
        EXPECT_EQ(ForkScheduler::makespan(fork, n), fork_out.makespan());

        const std::size_t spider_probes =
            SpiderScheduler::schedule_into(spider, n, spider_scratch, spider_out);
        // Each leg was built only as far as its kept suffix.
        for (std::size_t l = 0; l < spider.num_legs(); ++l) {
          EXPECT_EQ(spider_scratch.legs[l].tasks.size(), spider_scratch.count.kept[l])
              << spider.describe() << " n=" << n << " leg " << l;
        }
        const run_select::SearchResult spider_found =
            SpiderScheduler::makespan(spider, n, spider_count);
        EXPECT_EQ(spider_found.horizon, spider_out.makespan()) << spider.describe() << " n=" << n;
        EXPECT_EQ(spider_found.probes, spider_probes) << spider.describe() << " n=" << n;
        EXPECT_EQ(SpiderScheduler::makespan(spider, n), spider_out.makespan());
      }
    }
  }
  // The count-only form selects once per probe and builds no schedule: it
  // skips the one selection at an unprobed ceiling.
  EXPECT_EQ(fork_count.selections + spider_count.selections, 385u);
}

TEST(SelectionPasses, DecisionFormsMakeOnePass) {
  Rng rng(1305);
  const Fork fork = random_fork(rng, 6, GeneratorParams{1, 12, PlatformClass::kUniform});
  const Spider spider = random_spider(rng, 4, 3, GeneratorParams{1, 12, PlatformClass::kUniform});
  ForkCountScratch fork_scratch;
  SpiderSolveScratch spider_scratch;
  ForkSchedule fork_out;
  SpiderSchedule spider_out;
  (void)ForkScheduler::count_within(fork, 60, 50, fork_scratch);
  (void)ForkScheduler::makespan_within(fork, 60, 50, fork_scratch);
  ForkScheduler::schedule_within_into(fork, 60, 50, fork_scratch, fork_out);
  EXPECT_EQ(fork_scratch.selections, 3u);
  (void)SpiderScheduler::count_within(spider, 60, 50, spider_scratch.count);
  SpiderScheduler::schedule_within_into(spider, 60, 50, spider_scratch, spider_out);
  EXPECT_EQ(spider_scratch.count.selections, 2u);
}

}  // namespace
}  // namespace mst
