#include "mst/core/spider_scheduler.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"
#include "mst/core/bounds.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/search.hpp"

namespace mst {

SpiderTransformation SpiderScheduler::transform(const Spider& spider, Time t_lim,
                                                std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  SpiderTransformation result;
  result.leg_schedules.reserve(spider.num_legs());
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    ChainSchedule leg_schedule = ChainScheduler::schedule_within(spider.leg(l), t_lim, cap);
    auto leg_nodes = expand_leg(leg_schedule, l, t_lim);
    result.nodes.insert(result.nodes.end(), leg_nodes.begin(), leg_nodes.end());
    result.leg_schedules.push_back(std::move(leg_schedule));
  }
  return result;
}

// The selection paths run warm-scratch only — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp and tests/test_zero_alloc.cpp).
// mstlint: zero-alloc
namespace {

/// One run-kernel pass over the runs in `scratch` (one per leg, in leg
/// order): per-leg counts into `scratch.counts`, their total returned.
std::size_t select_runs(SpiderCountScratch& scratch) {
  ++scratch.selections;
  return moore_hodgson_runs(scratch.runs, scratch.deadlines, scratch.select, scratch.counts);
}

/// Steps (1)–(2) in place: each leg's decision schedule into a pooled slot.
void build_legs(const Spider& spider, Time t_lim, std::size_t cap, SpiderSolveScratch& scratch) {
  if (scratch.legs.size() < spider.num_legs()) scratch.legs.resize(spider.num_legs());
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    ChainScheduler::schedule_within_into(spider.leg(l), t_lim, cap, scratch.count.chain,
                                         scratch.legs[l]);
  }
}

/// Step (2) over built legs: a leg's run is its tasks' node deadlines
/// `C¹ + c_1` (`expand_leg`), ascending with the tasks' first emissions.
void leg_runs(const Spider& spider, SpiderSolveScratch& scratch) {
  SpiderCountScratch& count = scratch.count;
  count.deadlines.clear();
  count.runs.clear();
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    const Time c1 = spider.leg(l).comm(0);
    const std::size_t begin = count.deadlines.size();
    for (const ChainTask& t : scratch.legs[l].tasks) {
      count.deadlines.push_back(t.emissions.front() + c1);
    }
    count.runs.push_back(JobRun{c1, begin, count.deadlines.size()});
  }
}

/// Writes task `used` of `out` into a recycled slot: `src`, a task of leg
/// `leg`'s schedule, with its master emission moved to `emission`.
void put_task(SpiderSchedule& out, std::size_t used, std::size_t leg, const ChainTask& src,
              Time emission) {
  if (used == out.tasks.size()) out.tasks.emplace_back();
  SpiderTask& task = out.tasks[used];
  task.leg = leg;
  task.proc = src.proc;
  task.start = src.start;
  task.emissions.assign(src.emissions.begin(), src.emissions.end());
  task.emissions.front() = emission;
}

/// Steps (3b)–(4) from the per-leg counts in `scratch.count.counts`: the
/// global-cap trim, then each leg keeps the *suffix* of its schedule (its
/// smallest-exec nodes — swapping a selected node for an unselected
/// same-comm node with a later deadline keeps the selection EDD-feasible,
/// so counts are preserved), and the master emissions are re-sequenced EDD
/// back-to-back from time 0 by (deadline, leg, task index); everything
/// downstream stays untouched.  `out.tasks` is rebuilt in recycled slots.
void realize_into(const Spider& spider, Time t_lim, std::size_t cap, SpiderSolveScratch& scratch,
                  SpiderSchedule& out) {
  const std::size_t num_legs = spider.num_legs();
  std::vector<std::size_t>& counts = scratch.count.counts;

  // Global cap: trim the hardest node (largest exec among each leg's next
  // removal candidate) until within cap.  Removing never breaks feasibility.
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  for (; total > cap; --total) {
    std::size_t worst_leg = num_legs;
    Time worst_exec = -1;
    for (std::size_t l = 0; l < num_legs; ++l) {
      if (counts[l] == 0) continue;
      const std::size_t m = scratch.legs[l].tasks.size();
      const ChainTask& t = scratch.legs[l].tasks[m - counts[l]];  // earliest kept task
      const Time exec = t_lim - t.emissions.front() - spider.leg(l).comm(0);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst_leg = l;
      }
    }
    MST_ASSERT(worst_leg < num_legs);
    --counts[worst_leg];
  }

  scratch.chosen.clear();
  for (std::size_t l = 0; l < num_legs; ++l) {
    const ChainSchedule& ls = scratch.legs[l];
    const std::size_t m = ls.tasks.size();
    const Time c1 = spider.leg(l).comm(0);
    for (std::size_t j = m - counts[l]; j < m; ++j) {
      scratch.chosen.emplace_back(ls.tasks[j].emissions.front() + c1, l, j);
    }
  }
  std::sort(scratch.chosen.begin(), scratch.chosen.end());

  out.spider = spider;  // copy-assign reuses the nested leg buffers when warm
  std::size_t used = 0;
  Time port = 0;
  for (const auto& [deadline, leg, task_index] : scratch.chosen) {
    const Time emission = port;
    port += spider.leg(leg).comm(0);
    // Lemma 3: the fork step never needs to emit later than the leg
    // schedule did, so moving the first emission earlier is always legal.
    MST_ASSERT(port <= deadline);
    put_task(out, used++, leg, scratch.legs[leg].tasks[task_index], emission);
  }
  out.tasks.resize(used);
}

/// Step (4) with release gating, from the released selection in
/// `scratch.picked`: replays the kernel's own EDD sequence — position j
/// starts no earlier than the port and the j-th smallest release date, and
/// the DP already proved every completion meets its node's deadline.  Each
/// leg's positions are mapped, in order, onto the *suffix* tasks of its
/// schedule (only suffixes are realizable, Lemma 4): within a leg the EDD
/// order is ascending deadline, and the suffix deadlines dominate any
/// chosen subset's pointwise, so the mapped tasks only ever gain slack.
/// (A global re-sort after the swap would NOT be safe: moving a job to a
/// later EDD position also moves it to a later positional release, which
/// can exceed the relaxed deadline.  Keeping the DP's sequence sidesteps
/// that entirely.)  `out.tasks` is rebuilt in recycled slots.
void replay_released_into(const Spider& spider, const Workload& workload,
                          SpiderSolveScratch& scratch, SpiderSchedule& out) {
  std::vector<std::size_t>& remaining = scratch.count.counts;  // per leg, unmapped positions
  remaining.assign(spider.num_legs(), 0);
  for (const std::size_t leg : scratch.picked) ++remaining[leg];
  const std::vector<Time>& releases = workload.releases();
  out.spider = spider;
  Time port = 0;
  for (std::size_t position = 0; position < scratch.picked.size(); ++position) {
    const std::size_t leg = scratch.picked[position];
    const ChainSchedule& ls = scratch.legs[leg];
    const ChainTask& src = ls.tasks[ls.tasks.size() - remaining[leg]--];
    const Time emission = std::max(port, releases[position]);
    port = emission + spider.leg(leg).comm(0);
    MST_ASSERT(emission <= src.emissions.front());
    put_task(out, position, leg, src, emission);
  }
  out.tasks.resize(scratch.picked.size());
}

}  // namespace

std::size_t SpiderScheduler::count_within(const Spider& spider, Time t_lim, std::size_t cap,
                                          SpiderCountScratch& scratch) {
  return count_within(spider, t_lim, Workload::identical(cap), cap, scratch);
}

void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  schedule_within_into(spider, t_lim, Workload::identical(cap), cap, scratch, out);
}

namespace {

/// All `n` tasks on the single best leg (each leg's trivial
/// first-processor schedule): a feasible horizon, the search ceiling.
Time single_leg_horizon(const Spider& spider, std::size_t n) {
  Time best = kTimeInfinity;
  for (const Chain& leg : spider.legs()) best = std::min(best, leg.t_infinity(n));
  return best;
}

void require_uniform_sizes(const Workload& workload) {
  MST_REQUIRE(workload.uniform_sizes(),
              "the spider reduction is only optimal for identical task sizes");
}

}  // namespace

std::size_t SpiderScheduler::count_within(const Spider& spider, Time t_lim,
                                          const Workload& workload, std::size_t cap,
                                          SpiderCountScratch& scratch) {
  require_uniform_sizes(workload);
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  // Steps (1)–(3) of `schedule_within` without materialization: each leg's
  // backward construction is replayed count-only; its first-link emissions,
  // latest first, reversed and shifted by `c_1`, are the leg's run of node
  // deadlines (`expand_leg`), leg-major as in the generic `transform` order.
  const std::size_t k_cap = std::min(cap, workload.count());
  scratch.deadlines.clear();
  scratch.runs.clear();
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    const Chain& leg = spider.leg(l);
    const std::size_t begin = scratch.deadlines.size();
    ChainScheduler::count_within_emissions(leg, t_lim, k_cap, scratch.chain, scratch.deadlines);
    std::reverse(scratch.deadlines.begin() + static_cast<std::ptrdiff_t>(begin),
                 scratch.deadlines.end());
    const Time c1 = leg.comm(0);
    for (std::size_t j = begin; j < scratch.deadlines.size(); ++j) scratch.deadlines[j] += c1;
    scratch.runs.push_back(JobRun{c1, begin, scratch.deadlines.size()});
  }
  // Step (3): the global cap trim only ever reduces the selected total to
  // `cap`, so `min` reproduces it; release dates swap in the released
  // kernel's count policy.
  if (!workload.has_release_dates()) return std::min(select_runs(scratch), k_cap);
  ++scratch.selections;
  return moore_hodgson_released_runs(scratch.runs, scratch.deadlines, workload.releases(), k_cap,
                                     scratch.select);
}

void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim,
                                           const Workload& workload, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  require_uniform_sizes(workload);
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  const std::size_t k_cap = std::min(cap, workload.count());
  build_legs(spider, t_lim, k_cap, scratch);
  leg_runs(spider, scratch);
  SpiderCountScratch& count = scratch.count;
  if (!workload.has_release_dates()) {
    select_runs(count);
    realize_into(spider, t_lim, k_cap, scratch, out);
    return;
  }
  ++count.selections;
  moore_hodgson_released_runs(count.runs, count.deadlines, workload.releases(), k_cap,
                              count.select, &scratch.picked);
  replay_released_into(spider, workload, scratch, out);
}

std::size_t SpiderScheduler::schedule_into(const Spider& spider, const Workload& workload,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  const std::size_t n = workload.count();
  if (!workload.has_release_dates()) return schedule_into(spider, n, scratch, out);

  // Minimal horizon admitting every task: the single-best-leg schedule
  // shifted past the last release always fits, so the ceiling is feasible.
  // The floor adds the release term: the last emission cannot start before
  // the last release, and that task alone still needs a one-task makespan.
  // Absolute times throughout: release dates pin the origin, so the
  // identical-path normalization shift does not apply.
  SpiderCountScratch& count = scratch.count;
  const Time ceiling = released_ceiling(single_leg_horizon(spider, n), workload.last_release());
  const Time lower = std::max(
      spider_makespan_lower_bound(spider, n, count.bound),
      workload.last_release() + spider_makespan_lower_bound(spider, 1, count.bound));
  std::size_t probes = 0;
  const Time horizon = min_feasible_horizon(lower, ceiling, [&](Time t) {
    ++probes;
    return count_within(spider, t, workload, n, count) >= n;
  });
  schedule_within_into(spider, horizon, workload, n, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  return probes;
}

std::size_t SpiderScheduler::schedule_into(const Spider& spider, std::size_t n,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  MST_REQUIRE(n >= 1, "schedule needs at least one task");
  // Monotone predicate `count_within(t) >= n` on the shared count scratch,
  // from the makespan lower bound up to the single-best-leg horizon.
  // The ceiling goes first: `t_infinity` rejects an `n` outside the numeric
  // domain before the bound's arithmetic could overflow.  Every feasible
  // probe lies below the previous ones, and the search returns the last of
  // them unless it returns the unprobed ceiling, so the per-leg counts kept
  // from each feasible probe are the returned horizon's selection: the legs
  // are built at the horizon, and no selection pass runs after the search.
  SpiderCountScratch& count = scratch.count;
  const Time ceiling = single_leg_horizon(spider, n);
  std::size_t probes = 0;
  Time kept = -1;
  const Time horizon = min_feasible_horizon(
      spider_makespan_lower_bound(spider, n, count.bound), ceiling, [&](Time t) {
        ++probes;
        if (count_within(spider, t, n, count) < n) return false;
        std::swap(count.counts, count.kept);
        kept = t;
        return true;
      });
  build_legs(spider, horizon, n, scratch);
  if (kept == horizon) {
    std::swap(count.counts, count.kept);
  } else {
    leg_runs(spider, scratch);
    select_runs(count);
  }
  realize_into(spider, horizon, n, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  out.normalize();
  return probes;
}
// mstlint: zero-alloc-end

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                std::size_t cap) {
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  schedule_within_into(spider, t_lim, cap, scratch, out);
  return out;
}

std::size_t SpiderScheduler::max_tasks(const Spider& spider, Time t_lim, std::size_t cap) {
  SpiderCountScratch scratch;
  return count_within(spider, t_lim, cap, scratch);
}

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                const Workload& workload, std::size_t cap) {
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  schedule_within_into(spider, t_lim, workload, cap, scratch, out);
  return out;
}

SpiderSchedule SpiderScheduler::schedule(const Spider& spider, const Workload& workload) {
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  schedule_into(spider, workload, scratch, out);
  return out;
}

SpiderSchedule SpiderScheduler::schedule(const Spider& spider, std::size_t n) {
  SpiderSolveScratch scratch;
  SpiderSchedule result;
  schedule_into(spider, n, scratch, result);
  return result;
}

Time SpiderScheduler::makespan(const Spider& spider, std::size_t n) {
  return schedule(spider, n).makespan();
}

}  // namespace mst
