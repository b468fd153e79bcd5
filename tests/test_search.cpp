// The makespan form's seeded horizon search (core/search.hpp): unit tests
// of `min_feasible_horizon` on step predicates, a cross-check of every
// seeded scheduler search against a plain bisection, and a pinned probe
// total so a search regression fails on any machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/search.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/platform/generator.hpp"

namespace mst {
namespace {

/// The oracle: plain bisection of `[0, hi]` for the smallest horizon the
/// monotone predicate accepts (`hi` itself assumed feasible).
template <typename Feasible>
Time bisect(Time hi, Feasible&& feasible) {
  Time lo = 0;
  while (lo < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Runs the search on the step predicate `t >= threshold`, checking every
/// probe stays inside `[0, ceiling)`; returns the answer and the probes.
std::pair<Time, std::size_t> search_step(Time floor, Time ceiling, Time threshold) {
  std::size_t probes = 0;
  const Time found = min_feasible_horizon(floor, ceiling, [&](Time t) {
    ++probes;
    EXPECT_GE(t, 0);
    EXPECT_LT(t, ceiling);
    return t >= threshold;
  });
  return {found, probes};
}

TEST(MinFeasibleHorizon, ReturnsTheThresholdFromAnyFloor) {
  const Time ceiling = 1000;
  for (const Time threshold : {Time{0}, Time{1}, Time{437}, ceiling}) {
    for (const Time floor : {Time{-5}, Time{0}, threshold / 2, threshold - 1, threshold,
                             threshold + 1, threshold + 77, ceiling, ceiling + 50}) {
      const auto [found, probes] = search_step(floor, ceiling, threshold);
      EXPECT_EQ(found, threshold) << "floor " << floor << " threshold " << threshold;
      EXPECT_LE(probes, 2 * 11u) << "floor " << floor << " threshold " << threshold;
    }
  }
}

TEST(MinFeasibleHorizon, TightFloorCostsTwoProbes) {
  // Probe the floor, then certify with floor - 1.  At 0 nothing lies below;
  // at the ceiling the floor itself is known feasible.
  EXPECT_EQ(search_step(437, 1000, 437), (std::pair<Time, std::size_t>{437, 2}));
  EXPECT_EQ(search_step(0, 1000, 0), (std::pair<Time, std::size_t>{0, 1}));
  EXPECT_EQ(search_step(1000, 1000, 1000), (std::pair<Time, std::size_t>{1000, 1}));
  EXPECT_EQ(search_step(1, 1000, 1), (std::pair<Time, std::size_t>{1, 2}));
}

TEST(MinFeasibleHorizon, FloorBelowTheAnswerGallops) {
  // A floor d below the answer costs about 2*log2(d) probes, far under a
  // bisection of the whole range.
  for (const Time gap : {Time{1}, Time{2}, Time{3}, Time{10}, Time{100}}) {
    const auto [found, probes] = search_step(5000 - gap, 1'000'000, 5000);
    EXPECT_EQ(found, 5000);
    std::size_t log2_gap = 0;
    while ((Time{1} << log2_gap) < gap) ++log2_gap;
    EXPECT_LE(probes, 2 * log2_gap + 2) << "gap " << gap;
  }
}

TEST(MinFeasibleHorizon, DegenerateRangesAndHugeCeilings) {
  EXPECT_EQ(search_step(0, 0, 0).first, 0);
  EXPECT_EQ(search_step(-3, 0, 0), (std::pair<Time, std::size_t>{0, 0}));
  EXPECT_EQ(search_step(7, 0, 0).first, 0);
  // Offsets keep doubling toward a ceiling near the top of the Time range
  // without overflowing.
  const Time top = std::numeric_limits<Time>::max() - 1;
  for (const Time threshold : {Time{0}, top / 3, top - 1, top}) {
    EXPECT_EQ(search_step(0, top, threshold).first, threshold);
    EXPECT_EQ(search_step(top / 2, top, threshold).first, threshold);
  }
}

// ---------------------------------------------------------------------------
// Every seeded scheduler search against the plain bisection

constexpr PlatformClass kClasses[] = {PlatformClass::kUniform, PlatformClass::kCommBound,
                                      PlatformClass::kComputeBound, PlatformClass::kCorrelated,
                                      PlatformClass::kAntiCorrelated};

Workload released(Rng& rng, std::size_t n) {
  const Time spread = rng.uniform(0, 4 * static_cast<Time>(n));
  std::vector<Time> releases(n);
  for (Time& r : releases) r = rng.uniform(0, spread);
  return Workload::released(std::move(releases));
}

/// (p, n) draws spanning p in [1, 32] and n in [1, 300], corners included.
struct Size {
  std::size_t p;
  std::size_t n;
};
std::vector<Size> sizes(Rng& rng, int draws) {
  std::vector<Size> out{{1, 1}, {32, 300}, {1, 300}, {32, 1}};
  for (int i = 0; i < draws; ++i) {
    out.push_back({static_cast<std::size_t>(rng.uniform(1, 32)),
                   static_cast<std::size_t>(rng.uniform(1, 300))});
  }
  return out;
}

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

TEST(SeededSearch, ForkMatchesPlainBisection) {
  Rng rng(1301);
  ForkCountScratch scratch;
  for (const PlatformClass cls : kClasses) {
    for (const auto [p, n] : sizes(rng, 6)) {
      const Fork fork = random_fork(rng, p, GeneratorParams{1, 20, cls});
      const Time want = bisect(fork_ceiling(fork, n), [&](Time t) {
        return ForkScheduler::count_within(fork, t, n, scratch) >= n;
      });
      EXPECT_EQ(ForkScheduler::schedule(fork, n), ForkScheduler::schedule_within(fork, want, n))
          << fork.describe() << " n=" << n;

      const Workload workload = released(rng, n);
      const Time want_released =
          bisect(fork_ceiling(fork, n) + workload.last_release(), [&](Time t) {
            return ForkScheduler::count_within(fork, t, workload, n, scratch) >= n;
          });
      EXPECT_EQ(ForkScheduler::schedule(fork, workload),
                ForkScheduler::schedule_within(fork, want_released, workload, n))
          << fork.describe() << " released n=" << n;
    }
  }
}

TEST(SeededSearch, SpiderMatchesPlainBisection) {
  Rng rng(1302);
  SpiderCountScratch scratch;
  for (const PlatformClass cls : kClasses) {
    for (const auto [p, n] : sizes(rng, 4)) {
      const Spider spider = random_spider(rng, p, 3, GeneratorParams{1, 20, cls});
      const Time want = bisect(spider_ceiling(spider, n), [&](Time t) {
        return SpiderScheduler::count_within(spider, t, n, scratch) >= n;
      });
      SpiderSchedule expected = SpiderScheduler::schedule_within(spider, want, n);
      expected.normalize();
      EXPECT_EQ(SpiderScheduler::schedule(spider, n), expected)
          << spider.describe() << " n=" << n;

      const Workload workload = released(rng, n);
      const Time want_released =
          bisect(spider_ceiling(spider, n) + workload.last_release(), [&](Time t) {
            return SpiderScheduler::count_within(spider, t, workload, n, scratch) >= n;
          });
      EXPECT_EQ(SpiderScheduler::schedule(spider, workload),
                SpiderScheduler::schedule_within(spider, want_released, workload, n))
          << spider.describe() << " released n=" << n;
    }
  }
}

TEST(SeededSearch, ReleasedChainMatchesPlainBisection) {
  Rng rng(1303);
  ChainCountScratch scratch;
  for (const PlatformClass cls : kClasses) {
    for (const auto [p, n] : sizes(rng, 6)) {
      const Chain chain = random_chain(rng, p, GeneratorParams{1, 20, cls});
      const Workload workload = released(rng, n);
      const Time want = bisect(chain.t_infinity(n) + workload.last_release(), [&](Time t) {
        return ChainScheduler::count_within(chain, t, workload, n, scratch) >= n;
      });
      EXPECT_EQ(ChainScheduler::schedule(chain, workload),
                ChainScheduler::schedule_within(chain, want, workload, n))
          << chain.describe() << " released n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// The deterministic probe count

TEST(SeededSearch, ProbeTotalIsPinned) {
  // A small fixed fork + spider grid.  The total is a pure function of the
  // inputs, so any change to the search or its seeding shows up here.  The
  // plain [0, T∞] bisection takes 744 probes on this grid.
  Rng rng(1304);
  ForkCountScratch fork_scratch;
  SpiderSolveScratch spider_scratch;
  ForkSchedule fork_out;
  SpiderSchedule spider_out;
  obs::MetricsRegistry metrics;
  api::SolveOptions options;
  options.materialize = false;
  options.metrics = &metrics;
  std::size_t total = 0;
  std::size_t solves = 0;
  for (const PlatformClass cls : kClasses) {
    const GeneratorParams params{1, 12, cls};
    for (const std::size_t p : {2u, 5u, 9u}) {
      const Fork fork = random_fork(rng, p, params);
      const Spider spider = random_spider(rng, p, 3, params);
      for (const std::size_t n : {1u, 7u, 40u, 150u}) {
        total += ForkScheduler::schedule_into(fork, n, fork_scratch, fork_out);
        total += SpiderScheduler::schedule_into(spider, n, spider_scratch, spider_out);
        (void)api::registry().solve(fork, "optimal", n, options);
        (void)api::registry().solve(spider, "optimal", n, options);
        solves += 2;
      }
    }
  }
  EXPECT_EQ(solves, 120u);
  EXPECT_EQ(total, 385u);
  // The registry's optimal makespan entries report the same probes.
  std::int64_t counted = -1;
  for (const obs::MetricSample& sample : metrics.snapshot()) {
    if (sample.name == "core.search.probes") counted = sample.value;
  }
  EXPECT_EQ(counted, static_cast<std::int64_t>(total));
}

}  // namespace
}  // namespace mst
