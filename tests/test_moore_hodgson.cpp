// Tests of the one-machine deadline selector (Moore–Hodgson) underlying the
// fork algorithm, including optimality against subset enumeration, and of
// its run-merged kernels — plain and positional-release — against the
// generic selections: on random run sets, and on the fork/spider node sets
// and released schedules, rebuilt here the way the schedulers used to
// build them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "mst/common/rng.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/core/virtual_nodes.hpp"
#include "mst/platform/generator.hpp"
#include "mst/workload/workload.hpp"

namespace mst {
namespace {

TEST(MooreHodgson, SelectsEverythingWhenLoose) {
  std::vector<DeadlineJob> jobs = {{2, 100, 0}, {3, 100, 1}, {4, 100, 2}};
  const auto picked = moore_hodgson(jobs);
  EXPECT_EQ(picked.size(), 3u);
}

TEST(MooreHodgson, EvictsLongestOnOverflow) {
  // Classic example: deadlines force dropping the long job.
  std::vector<DeadlineJob> jobs = {{1, 2, 0}, {5, 6, 1}, {1, 7, 2}, {1, 8, 3}};
  const auto picked = moore_hodgson(jobs);
  // All four need 8 by deadline 8 but job 1 (len 5) forces overflow at its
  // own deadline? total after {1,5} = 6 <= 6 OK; +1 -> 7 <= 7 OK; +1 -> 8 <=
  // 8 OK: everything fits.
  EXPECT_EQ(picked.size(), 4u);
}

TEST(MooreHodgson, DropsExactlyTheLongJob) {
  std::vector<DeadlineJob> jobs = {{4, 4, 0}, {2, 5, 1}, {2, 7, 2}};
  // EDD: 0 (t=4<=4), +1: t=6 > 5 -> evict longest (job 0, len 4), t=2.
  // +2: t=4 <= 7.  Selected {1,2}.
  const auto picked = moore_hodgson(jobs);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], 1u);
  EXPECT_EQ(picked[1], 2u);
}

TEST(MooreHodgson, ImpossibleJobNeverSelected) {
  std::vector<DeadlineJob> jobs = {{5, 3, 0}, {1, 10, 1}};
  const auto picked = moore_hodgson(jobs);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], 1u);
}

TEST(MooreHodgson, EmptyAndSingleton) {
  EXPECT_TRUE(moore_hodgson({}).empty());
  const auto one = moore_hodgson({{3, 3, 7}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7u);
  EXPECT_TRUE(moore_hodgson({{3, 2, 7}}).empty());
}

TEST(MooreHodgson, ZeroLengthJobsAlwaysFit) {
  std::vector<DeadlineJob> jobs = {{0, 0, 0}, {0, 0, 1}, {5, 5, 2}};
  EXPECT_EQ(moore_hodgson(jobs).size(), 3u);
}

TEST(EddFeasible, MatchesManualCheck) {
  EXPECT_TRUE(edd_feasible({{2, 2, 0}, {2, 4, 1}}));
  EXPECT_FALSE(edd_feasible({{2, 2, 0}, {2, 3, 1}}));
  EXPECT_TRUE(edd_feasible({}));
}

TEST(SequenceEdd, ProducesBackToBackStarts) {
  const std::vector<DeadlineJob> jobs = {{2, 10, 0}, {3, 4, 1}, {1, 20, 2}};
  const auto starts = sequence_edd(jobs);
  // EDD order: job1 (d=4), job0 (d=10), job2 (d=20).
  EXPECT_EQ(starts[1], 0);
  EXPECT_EQ(starts[0], 3);
  EXPECT_EQ(starts[2], 5);
}

TEST(SequenceEdd, ThrowsOnInfeasibleSet) {
  EXPECT_THROW(sequence_edd({{5, 2, 0}}), std::logic_error);
}

/// Exhaustive optimality check: Moore–Hodgson must match the best subset
/// over all 2^N subsets on random instances.
class MooreHodgsonProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MooreHodgsonProperty, MatchesExhaustiveOptimum) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.uniform(1, 10));
    std::vector<DeadlineJob> jobs;
    for (int i = 0; i < n; ++i) {
      jobs.push_back({rng.uniform(0, 8), rng.uniform(0, 20), static_cast<std::size_t>(i)});
    }
    std::size_t best = 0;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      std::vector<DeadlineJob> subset;
      for (int i = 0; i < n; ++i) {
        if (mask & (1u << i)) subset.push_back(jobs[static_cast<std::size_t>(i)]);
      }
      if (edd_feasible(subset)) best = std::max(best, subset.size());
    }
    const auto picked = moore_hodgson(jobs);
    EXPECT_EQ(picked.size(), best) << "trial " << trial;
    // The returned selection itself must be feasible.
    std::vector<DeadlineJob> chosen;
    for (std::size_t id : picked) chosen.push_back(jobs[id]);
    EXPECT_TRUE(edd_feasible(chosen));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MooreHodgsonProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// ---------------------------------------------------------------------------
// The run kernel

/// Runs given as (proc, ascending deadlines); flattened for the kernel.
struct RunSet {
  std::vector<JobRun> runs;
  std::vector<Time> deadlines;

  void add(Time proc, std::vector<Time> run_deadlines) {
    std::sort(run_deadlines.begin(), run_deadlines.end());
    const std::size_t begin = deadlines.size();
    deadlines.insert(deadlines.end(), run_deadlines.begin(), run_deadlines.end());
    runs.push_back(JobRun{proc, begin, deadlines.size()});
  }
};

/// The oracle: generic `moore_hodgson` on the concatenated runs with
/// run-major ids, its selected ids mapped back to runs.
std::vector<std::size_t> oracle_counts(const RunSet& set) {
  std::vector<DeadlineJob> jobs;
  std::vector<std::size_t> run_of;
  for (std::size_t i = 0; i < set.runs.size(); ++i) {
    for (std::size_t j = set.runs[i].begin; j < set.runs[i].end; ++j) {
      jobs.push_back({set.runs[i].proc, set.deadlines[j], jobs.size()});
      run_of.push_back(i);
    }
  }
  std::vector<std::size_t> counts(set.runs.size(), 0);
  for (const std::size_t id : moore_hodgson(std::move(jobs))) ++counts[run_of[id]];
  return counts;
}

/// Checks the kernel against the oracle on one run set (and once more on
/// the same scratch, which must not leak state between passes).
void expect_matches_oracle(const RunSet& set, RunSelectScratch& scratch, const char* what) {
  const std::vector<std::size_t> want = oracle_counts(set);
  std::size_t want_total = 0;
  for (const std::size_t c : want) want_total += c;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::size_t> counts{99};
    EXPECT_EQ(moore_hodgson_runs(set.runs, set.deadlines, scratch, counts), want_total) << what;
    EXPECT_EQ(counts, want) << what;
  }
}

TEST(MooreHodgsonRuns, NoRunsAndEmptyRuns) {
  RunSelectScratch scratch;
  std::vector<std::size_t> counts{7};
  EXPECT_EQ(moore_hodgson_runs({}, {}, scratch, counts), 0u);
  EXPECT_TRUE(counts.empty());

  RunSet set;
  set.add(3, {});
  set.add(0, {});
  EXPECT_EQ(moore_hodgson_runs(set.runs, set.deadlines, scratch, counts), 0u);
  EXPECT_EQ(counts, (std::vector<std::size_t>{0, 0}));
}

TEST(MooreHodgsonRuns, SingleRunTakesWhatFits) {
  RunSelectScratch scratch;
  RunSet set;
  set.add(3, {2, 3, 5, 6, 7, 30});  // 2 < proc: never; then 3, 6, and 30 fit
  std::vector<std::size_t> counts;
  EXPECT_EQ(moore_hodgson_runs(set.runs, set.deadlines, scratch, counts), 3u);
  EXPECT_EQ(counts, (std::vector<std::size_t>{3}));
  expect_matches_oracle(set, scratch, "p = 1");
}

TEST(MooreHodgsonRuns, LongerRunIsEvictedFirst) {
  // The long job fits alone, then two short ones overflow deadline 5: the
  // long one goes, as in `DropsExactlyTheLongJob`.
  RunSelectScratch scratch;
  RunSet set;
  set.add(4, {4});
  set.add(2, {5, 7});
  std::vector<std::size_t> counts;
  EXPECT_EQ(moore_hodgson_runs(set.runs, set.deadlines, scratch, counts), 2u);
  EXPECT_EQ(counts, (std::vector<std::size_t>{0, 2}));
}

TEST(MooreHodgsonRuns, TiesEvictTheHigherRunIndex) {
  // Equal procs and equal deadlines everywhere: the generic rule evicts the
  // largest id, i.e. the last run — so the earlier runs keep their jobs.
  RunSelectScratch scratch;
  RunSet set;
  for (int i = 0; i < 4; ++i) set.add(2, {4, 4, 6});
  std::vector<std::size_t> counts;
  EXPECT_EQ(moore_hodgson_runs(set.runs, set.deadlines, scratch, counts), 3u);
  EXPECT_EQ(counts, oracle_counts(set));
  expect_matches_oracle(set, scratch, "all tied");
}

TEST(MooreHodgsonRuns, ZeroProcJobsAlwaysFit) {
  RunSelectScratch scratch;
  RunSet set;
  set.add(0, {0, 0, 1});
  set.add(5, {5, 5});
  set.add(0, {-1});  // a negative deadline is missed even at zero length
  std::vector<std::size_t> counts;
  EXPECT_EQ(moore_hodgson_runs(set.runs, set.deadlines, scratch, counts), 4u);
  EXPECT_EQ(counts, (std::vector<std::size_t>{3, 1, 0}));
  expect_matches_oracle(set, scratch, "zero procs");
}

class MooreHodgsonRunsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MooreHodgsonRunsProperty, MatchesGenericSelection) {
  // Small value ranges force ties across runs (equal deadlines, equal
  // procs), proc = 0 and deadlines below proc; runs may be empty.
  Rng rng(GetParam());
  RunSelectScratch scratch;  // shared across sets of every size
  for (int trial = 0; trial < 300; ++trial) {
    const auto p = static_cast<std::size_t>(rng.uniform(1, 7));
    const Time max_proc = rng.uniform(0, 6);
    const Time max_deadline = rng.uniform(0, 40);
    RunSet set;
    for (std::size_t i = 0; i < p; ++i) {
      std::vector<Time> deadlines(static_cast<std::size_t>(rng.uniform(0, 9)));
      for (Time& d : deadlines) d = rng.uniform(-2, max_deadline);
      set.add(rng.uniform(0, max_proc), std::move(deadlines));
    }
    expect_matches_oracle(set, scratch, "random run set");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MooreHodgsonRunsProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---------------------------------------------------------------------------
// The positional-release run kernel

/// The released oracle: generic `moore_hodgson_released` on the
/// concatenated runs with run-major ids, each picked id mapped to its run.
std::vector<std::size_t> released_oracle(const RunSet& set, const std::vector<Time>& releases,
                                         std::size_t max_count) {
  std::vector<DeadlineJob> jobs;
  std::vector<std::size_t> run_of;
  for (std::size_t i = 0; i < set.runs.size(); ++i) {
    for (std::size_t j = set.runs[i].begin; j < set.runs[i].end; ++j) {
      jobs.push_back({set.runs[i].proc, set.deadlines[j], jobs.size()});
      run_of.push_back(i);
    }
  }
  std::vector<std::size_t> runs;
  for (const std::size_t id : moore_hodgson_released(std::move(jobs), releases, max_count)) {
    runs.push_back(run_of[id]);
  }
  return runs;
}

/// Checks both policies against the oracle — the count, and the run of
/// every position — twice on one scratch, which must not leak state.
void expect_released_matches_oracle(const RunSet& set, const std::vector<Time>& releases,
                                    std::size_t max_count, RunSelectScratch& scratch,
                                    const char* what) {
  const std::vector<std::size_t> want = released_oracle(set, releases, max_count);
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(moore_hodgson_released_runs(set.runs, set.deadlines, releases, max_count, scratch),
              want.size())
        << what;
    std::vector<std::size_t> picked{99};
    EXPECT_EQ(moore_hodgson_released_runs(set.runs, set.deadlines, releases, max_count, scratch,
                                          &picked),
              want.size())
        << what;
    EXPECT_EQ(picked, want) << what;
  }
}

TEST(MooreHodgsonReleasedRuns, NoRunsEmptyRunsAndZeroLimit) {
  RunSelectScratch scratch;
  std::vector<std::size_t> picked{7};
  EXPECT_EQ(moore_hodgson_released_runs({}, {}, {0, 1}, 5, scratch, &picked), 0u);
  EXPECT_TRUE(picked.empty());

  RunSet set;
  set.add(3, {});
  set.add(1, {4, 9});
  set.add(0, {});
  expect_released_matches_oracle(set, {0, 1}, 5, scratch, "empty runs");
  // limit = min(max_count, releases) = 0 selects nothing, either way.
  EXPECT_EQ(moore_hodgson_released_runs(set.runs, set.deadlines, {0, 1}, 0, scratch, &picked), 0u);
  EXPECT_TRUE(picked.empty());
  EXPECT_EQ(moore_hodgson_released_runs(set.runs, set.deadlines, {}, 5, scratch), 0u);
}

TEST(MooreHodgsonReleasedRuns, ReleasesDelayLaterPositions) {
  // One run (p = 1), proc 2, deadlines 3, 5, 20.  Without a late release
  // all three fit back to back; a release of 4 at position 1 pushes its
  // completion to 6, so only two jobs fit (deadlines 5 and 20, or 3 and 20).
  RunSelectScratch scratch;
  RunSet set;
  set.add(2, {3, 5, 20});
  std::vector<std::size_t> picked;
  EXPECT_EQ(moore_hodgson_released_runs(set.runs, set.deadlines, {0, 0, 10}, 3, scratch, &picked),
            3u);
  EXPECT_EQ(picked, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(moore_hodgson_released_runs(set.runs, set.deadlines, {0, 4, 10}, 3, scratch), 2u);
  expect_released_matches_oracle(set, {0, 4, 10}, 3, scratch, "p = 1");
  // limit 1: the first position only.
  expect_released_matches_oracle(set, {0, 4, 10}, 1, scratch, "limit 1");
  EXPECT_EQ(moore_hodgson_released_runs(set.runs, set.deadlines, {0, 4, 10}, 1, scratch), 1u);
}

TEST(MooreHodgsonReleasedRuns, ZeroProcTiesAndDeadlinesBelowProc) {
  RunSelectScratch scratch;
  RunSet set;
  set.add(0, {0, 0, 1});  // equal deadlines within a run, proc = 0
  set.add(2, {1, 4, 4});  // a deadline below proc; ties across runs at 4
  set.add(2, {4, 6});
  set.add(0, {-1, 4});    // a negative deadline is missed even at zero length
  for (const std::size_t limit : {0u, 1u, 2u, 5u, 20u}) {
    expect_released_matches_oracle(set, {0, 0, 1, 1, 3, 3, 5, 9}, limit, scratch, "ties");
  }
}

TEST(MooreHodgsonReleasedRuns, EdgeOfTheTimeDomain) {
  // Completions at and past kTimeInfinity are ordinary times: a release one
  // below it still admits a second job whose deadline lies beyond it.
  RunSelectScratch scratch;
  RunSet set;
  set.add(3, {3'000'000'000'000'000'000 - 5, 3'000'000'000'000'000'000});
  EXPECT_EQ(moore_hodgson_released_runs(set.runs, set.deadlines, {0, kTimeInfinity - 1}, 2,
                                        scratch),
            2u);
}

class MooreHodgsonReleasedRunsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MooreHodgsonReleasedRunsProperty, MatchesGenericReleasedSelection) {
  // Small value ranges force deadline and proc ties within and across
  // runs, proc = 0 and deadlines below proc; runs may be empty; limits
  // run from 0 past the job count.
  Rng rng(GetParam());
  RunSelectScratch scratch;  // shared across sets of every size
  for (int trial = 0; trial < 300; ++trial) {
    const auto p = static_cast<std::size_t>(rng.uniform(1, 6));
    const Time max_proc = rng.uniform(0, 5);
    const Time max_deadline = rng.uniform(0, 40);
    RunSet set;
    for (std::size_t i = 0; i < p; ++i) {
      std::vector<Time> deadlines(static_cast<std::size_t>(rng.uniform(0, 7)));
      for (Time& d : deadlines) d = rng.uniform(-2, max_deadline);
      set.add(rng.uniform(0, max_proc), std::move(deadlines));
    }
    std::vector<Time> releases(static_cast<std::size_t>(rng.uniform(0, 12)));
    for (Time& r : releases) r = rng.uniform(0, max_deadline / 2);
    std::sort(releases.begin(), releases.end());
    const auto max_count = static_cast<std::size_t>(rng.uniform(0, 14));
    expect_released_matches_oracle(set, releases, max_count, scratch, "random run set");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MooreHodgsonReleasedRunsProperty,
                         ::testing::Values(61u, 62u, 63u, 64u, 65u));

// ---------------------------------------------------------------------------
// The fork/spider selections against the generic pipeline

/// Selected nodes per source of the generic pipeline: node ids in
/// expansion order, generic Moore–Hodgson, ids mapped to `source`.
std::vector<std::size_t> generic_counts(const std::vector<VirtualNode>& nodes, Time t_lim,
                                        std::size_t sources) {
  std::vector<DeadlineJob> jobs;
  for (std::size_t idx = 0; idx < nodes.size(); ++idx) {
    jobs.push_back({nodes[idx].comm, nodes[idx].deadline(t_lim), idx});
  }
  std::vector<std::size_t> counts(sources, 0);
  for (const std::size_t id : moore_hodgson(std::move(jobs))) ++counts[nodes[id].source];
  return counts;
}

/// Sets every first-link latency to zero with probability 1/3.
std::vector<Processor> zero_some_links(Rng& rng, std::vector<Processor> procs) {
  for (Processor& proc : procs) {
    if (rng.uniform(0, 2) == 0) proc.comm = 0;
  }
  return procs;
}

constexpr PlatformClass kClasses[] = {PlatformClass::kUniform, PlatformClass::kCommBound,
                                      PlatformClass::kComputeBound, PlatformClass::kCorrelated,
                                      PlatformClass::kAntiCorrelated};

TEST(RunKernelCrossCheck, ForkCountsMatchGenericPipeline) {
  Rng rng(1401);
  ForkCountScratch scratch;
  for (const PlatformClass cls : kClasses) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto p = static_cast<std::size_t>(rng.uniform(1, 9));
      const Fork drawn = random_fork(rng, p, GeneratorParams{1, 12, cls});
      const Fork fork(trial % 2 == 0 ? drawn.slaves() : zero_some_links(rng, drawn.slaves()));
      const auto cap = static_cast<std::size_t>(rng.uniform(1, 30));
      for (Time t = 0; t <= 80; ++t) {
        const std::vector<std::size_t> want =
            generic_counts(expand_fork(fork, t, cap), t, fork.size());
        std::size_t total = 0;
        for (const std::size_t c : want) total += c;
        EXPECT_EQ(ForkScheduler::count_within(fork, t, cap, scratch), std::min(total, cap));
        EXPECT_EQ(scratch.counts, want) << fork.describe() << " T=" << t << " cap=" << cap;
      }
    }
  }
}

TEST(RunKernelCrossCheck, SpiderCountsMatchGenericPipeline) {
  Rng rng(1402);
  SpiderCountScratch scratch;
  for (const PlatformClass cls : kClasses) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto legs = static_cast<std::size_t>(rng.uniform(1, 6));
      const Spider drawn = random_spider(rng, legs, 3, GeneratorParams{1, 12, cls});
      std::vector<Chain> chains;
      for (const Chain& leg : drawn.legs()) {
        chains.emplace_back(trial % 2 == 0 ? leg.procs() : zero_some_links(rng, leg.procs()));
      }
      const Spider spider(std::move(chains));
      const auto cap = static_cast<std::size_t>(rng.uniform(1, 30));
      for (Time t = 0; t <= 80; ++t) {
        const SpiderTransformation tf = SpiderScheduler::transform(spider, t, cap);
        const std::vector<std::size_t> want = generic_counts(tf.nodes, t, spider.num_legs());
        std::size_t total = 0;
        for (const std::size_t c : want) total += c;
        EXPECT_EQ(SpiderScheduler::count_within(spider, t, cap, scratch), std::min(total, cap));
        EXPECT_EQ(scratch.counts, want) << spider.describe() << " T=" << t << " cap=" << cap;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The released fork/spider schedules against the generic pipeline

/// A released workload of 1..12 unit tasks with at least one positive
/// release date (an all-zero one would normalize to the identical path).
Workload released_workload(Rng& rng) {
  std::vector<Time> releases(static_cast<std::size_t>(rng.uniform(1, 12)));
  for (Time& r : releases) r = rng.uniform(0, 30);
  releases.front() = std::max<Time>(releases.front(), 1);
  return Workload::released(std::move(releases));
}

/// The generic released selection over the expansion-ordered `nodes`: the
/// node picked at each position.
std::vector<std::size_t> generic_released(const std::vector<VirtualNode>& nodes, Time t_lim,
                                          const Workload& workload, std::size_t cap) {
  std::vector<DeadlineJob> jobs;
  for (std::size_t idx = 0; idx < nodes.size(); ++idx) {
    jobs.push_back({nodes[idx].comm, nodes[idx].deadline(t_lim), idx});
  }
  return moore_hodgson_released(std::move(jobs), workload.releases(),
                                std::min(cap, workload.count()));
}

/// The generic released fork schedule: `expand_fork` nodes, the generic
/// selection, and its replay in the selection's own order.
ForkSchedule generic_fork_schedule(const Fork& fork, Time t_lim, const Workload& workload,
                                   std::size_t cap) {
  const std::vector<VirtualNode> nodes =
      expand_fork(fork, t_lim, std::min(cap, workload.count()));
  ForkSchedule schedule{fork, {}};
  std::vector<Time> slave_free(fork.size(), 0);
  Time port = 0;
  const std::vector<std::size_t> picked = generic_released(nodes, t_lim, workload, cap);
  for (std::size_t position = 0; position < picked.size(); ++position) {
    const VirtualNode& node = nodes[picked[position]];
    const Processor& slave = fork.slave(node.source);
    const Time emission = std::max(port, workload.releases()[position]);
    port = emission + slave.comm;
    EXPECT_LE(port, node.deadline(t_lim));
    const Time start = std::max(port, slave_free[node.source]);
    slave_free[node.source] = start + slave.work;
    schedule.tasks.push_back(ForkTask{node.source, emission, start});
  }
  return schedule;
}

/// The generic released spider schedule: `transform`, the generic
/// selection, and each leg's positions mapped in order onto the suffix
/// tasks of its leg schedule.
SpiderSchedule generic_spider_schedule(const Spider& spider, Time t_lim,
                                       const Workload& workload, std::size_t cap) {
  const SpiderTransformation tf =
      SpiderScheduler::transform(spider, t_lim, std::min(cap, workload.count()));
  const std::vector<std::size_t> picked = generic_released(tf.nodes, t_lim, workload, cap);
  std::vector<std::size_t> counts(spider.num_legs(), 0);
  for (const std::size_t idx : picked) ++counts[tf.nodes[idx].source];
  std::vector<std::size_t> next_of_leg(spider.num_legs(), 0);
  SpiderSchedule schedule{spider, {}};
  Time port = 0;
  for (std::size_t position = 0; position < picked.size(); ++position) {
    const VirtualNode& node = tf.nodes[picked[position]];
    const std::size_t leg = node.source;
    const ChainSchedule& ls = tf.leg_schedules[leg];
    const ChainTask& src = ls.tasks[ls.tasks.size() - counts[leg] + next_of_leg[leg]++];
    const Time emission = std::max(port, workload.releases()[position]);
    port = emission + spider.leg(leg).comm(0);
    EXPECT_LE(port, node.deadline(t_lim));
    SpiderTask task{leg, src.proc, src.start, src.emissions};
    task.emissions.front() = emission;
    schedule.tasks.push_back(std::move(task));
  }
  return schedule;
}

TEST(ReleasedCrossCheck, ForkSchedulesMatchGenericPipeline) {
  Rng rng(1501);
  ForkCountScratch scratch;  // shared across every call: no state may leak
  ForkSchedule out;
  for (const PlatformClass cls : kClasses) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto p = static_cast<std::size_t>(rng.uniform(1, 6));
      const Fork drawn = random_fork(rng, p, GeneratorParams{1, 12, cls});
      const Fork fork(trial % 2 == 0 ? drawn.slaves() : zero_some_links(rng, drawn.slaves()));
      const Workload workload = released_workload(rng);
      const auto cap = static_cast<std::size_t>(rng.uniform(1, 14));
      for (Time t = 0; t <= 80; t += 2) {
        const ForkSchedule want = generic_fork_schedule(fork, t, workload, cap);
        ForkScheduler::schedule_within_into(fork, t, workload, cap, scratch, out);
        EXPECT_EQ(out, want) << fork.describe() << " T=" << t << " cap=" << cap;
        EXPECT_EQ(ForkScheduler::count_within(fork, t, workload, cap, scratch),
                  want.tasks.size());
        EXPECT_EQ(ForkScheduler::makespan_within(fork, t, workload, cap, scratch),
                  std::make_pair(want.tasks.size(), want.makespan()));
      }
      // Makespan form: the generic schedule at the smallest horizon whose
      // generic selection admits every task.
      const std::size_t n = workload.count();
      Time horizon = 0;
      while (generic_fork_schedule(fork, horizon, workload, n).tasks.size() < n) ++horizon;
      ForkScheduler::schedule_into(fork, workload, scratch, out);
      EXPECT_EQ(out, generic_fork_schedule(fork, horizon, workload, n)) << fork.describe();
    }
  }
}

TEST(ReleasedCrossCheck, SpiderSchedulesMatchGenericPipeline) {
  Rng rng(1502);
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  for (const PlatformClass cls : kClasses) {
    for (int trial = 0; trial < 5; ++trial) {
      const auto legs = static_cast<std::size_t>(rng.uniform(1, 5));
      const Spider drawn = random_spider(rng, legs, 3, GeneratorParams{1, 12, cls});
      std::vector<Chain> chains;
      for (const Chain& leg : drawn.legs()) {
        chains.emplace_back(trial % 2 == 0 ? leg.procs() : zero_some_links(rng, leg.procs()));
      }
      const Spider spider(std::move(chains));
      const Workload workload = released_workload(rng);
      const auto cap = static_cast<std::size_t>(rng.uniform(1, 14));
      for (Time t = 0; t <= 80; t += 2) {
        const SpiderSchedule want = generic_spider_schedule(spider, t, workload, cap);
        SpiderScheduler::schedule_within_into(spider, t, workload, cap, scratch, out);
        EXPECT_EQ(out, want) << spider.describe() << " T=" << t << " cap=" << cap;
        EXPECT_EQ(SpiderScheduler::count_within(spider, t, workload, cap, scratch.count),
                  want.tasks.size());
      }
      const std::size_t n = workload.count();
      Time horizon = 0;
      while (generic_spider_schedule(spider, horizon, workload, n).tasks.size() < n) ++horizon;
      SpiderScheduler::schedule_into(spider, workload, scratch, out);
      EXPECT_EQ(out, generic_spider_schedule(spider, horizon, workload, n)) << spider.describe();
    }
  }
}

}  // namespace
}  // namespace mst
