// The deterministic selection-pass count of the fork/spider makespan forms:
// one run-kernel pass per search probe, plus one at the horizon only when
// the search returned its unprobed ceiling — the selection of the smallest
// feasible probe is reused, never recomputed.  Pinned on the fixed grid of
// test_search.cpp's probe total, so a second selection pass sneaking back
// into the materialization fails on any machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

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
  for (const PlatformClass cls :
       {PlatformClass::kUniform, PlatformClass::kCommBound, PlatformClass::kComputeBound,
        PlatformClass::kCorrelated, PlatformClass::kAntiCorrelated}) {
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
