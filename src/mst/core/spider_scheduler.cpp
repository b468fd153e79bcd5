#include "mst/core/spider_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "mst/common/assert.hpp"
#include "mst/core/bounds.hpp"
#include "mst/core/chain_scheduler.hpp"

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

namespace {

/// All `n` tasks on the single best leg (each leg's trivial
/// first-processor schedule): a feasible horizon, the search ceiling.  A
/// leg outside the chain domain is refused here, before any bound or probe
/// arithmetic, by spider and leg index — the chain's own refusal cannot
/// say which leg of which platform it came from.
Time single_leg_horizon(const Spider& spider, std::size_t n) {
  Time best = kTimeInfinity;
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    try {
      best = std::min(best, spider.leg(l).t_infinity(n));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("spider ceiling: leg " + std::to_string(l) + " of " +
                                  std::to_string(spider.num_legs()) + ": " + e.what());
    }
  }
  return best;
}

// The selection paths run warm-scratch only — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp and tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// The spider kind of the run-selection driver: steps (1)–(2).  A leg's run
/// is its decision-form tasks' node deadlines `C¹ + c_1` (`expand_leg`),
/// ascending with the tasks' first emissions, leg-major as in the generic
/// `transform` order.  Counting replays each leg's backward construction
/// count-only; materializing builds the leg schedules into `solve`'s pooled
/// slots, and run node `j` of leg `l` is then task `j` of `legs[l]`.
struct SpiderRuns {
  const Spider& spider;
  SpiderCountScratch& scratch;
  SpiderSolveScratch* solve = nullptr;  ///< the materializing paths' leg schedules

  Time ceiling(std::size_t n) const { return single_leg_horizon(spider, n); }
  Time lower_bound(std::size_t n) const {
    return spider_makespan_lower_bound(spider, n, scratch.bound);
  }
  void count_runs(Time t_lim, std::size_t cap) const {
    // Each leg's first-link emissions, latest first, reversed and shifted
    // by `c_1`.
    scratch.deadlines.clear();
    scratch.runs.clear();
    for (const Chain& leg : spider.legs()) {
      const std::size_t begin = scratch.deadlines.size();
      ChainScheduler::count_within_emissions(leg, t_lim, cap, scratch.chain, scratch.deadlines);
      std::reverse(scratch.deadlines.begin() + static_cast<std::ptrdiff_t>(begin),
                   scratch.deadlines.end());
      const Time c1 = leg.comm(0);
      for (std::size_t j = begin; j < scratch.deadlines.size(); ++j) scratch.deadlines[j] += c1;
      scratch.runs.push_back(JobRun{c1, begin, scratch.deadlines.size()});
    }
  }
  void runs(Time t_lim, std::size_t cap) const {
    std::vector<ChainSchedule>& legs = solve->legs;
    if (legs.size() < spider.num_legs()) legs.resize(spider.num_legs());
    scratch.deadlines.clear();
    scratch.runs.clear();
    for (std::size_t l = 0; l < spider.num_legs(); ++l) {
      ChainScheduler::schedule_within_into(spider.leg(l), t_lim, cap, scratch.chain, legs[l]);
      const Time c1 = spider.leg(l).comm(0);
      const std::size_t begin = scratch.deadlines.size();
      for (const ChainTask& t : legs[l].tasks) scratch.deadlines.push_back(t.emissions.front() + c1);
      scratch.runs.push_back(JobRun{c1, begin, scratch.deadlines.size()});
    }
  }
};

/// Step (4) as the driver's emitter: a selected node becomes its leg task,
/// written into a recycled slot of `out` with the master emission moved to
/// the (earlier, Lemma 3) time the selection chose; everything downstream
/// stays untouched.  `used` counts the slots written.
auto into(const Spider& spider, SpiderSolveScratch& scratch, SpiderSchedule& out,
          std::size_t& used) {
  out.spider = spider;  // copy-assign reuses the nested leg buffers when warm
  used = 0;
  return [&scratch, &out, &used](std::size_t leg, std::size_t node, Time emission) {
    const ChainTask& src = scratch.legs[leg].tasks[node];
    if (used == out.tasks.size()) out.tasks.emplace_back();
    SpiderTask& task = out.tasks[used++];
    task.leg = leg;
    task.proc = src.proc;
    task.start = src.start;
    task.emissions.assign(src.emissions.begin(), src.emissions.end());
    task.emissions.front() = emission;
  };
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

std::size_t SpiderScheduler::count_within(const Spider& spider, Time t_lim,
                                          const Workload& workload, std::size_t cap,
                                          SpiderCountScratch& scratch) {
  SpiderRuns kind{spider, scratch};
  return run_select::count(kind, t_lim, workload, cap, scratch);
}

std::pair<std::size_t, Time> SpiderScheduler::makespan_within(const Spider& spider, Time t_lim,
                                                              const Workload& workload,
                                                              std::size_t cap,
                                                              SpiderCountScratch& scratch) {
  const std::size_t count = count_within(spider, t_lim, workload, cap, scratch);
  return {count, count > 0 ? t_lim : 0};
}

void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim,
                                           const Workload& workload, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  SpiderRuns kind{spider, scratch.count, &scratch};
  std::size_t used = 0;
  run_select::decide(kind, t_lim, workload, cap, scratch.count, into(spider, scratch, out, used));
  out.tasks.resize(used);
}

std::size_t SpiderScheduler::schedule_into(const Spider& spider, std::size_t n,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  return schedule_into(spider, Workload::identical(n), scratch, out);
}

std::size_t SpiderScheduler::schedule_into(const Spider& spider, const Workload& workload,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  SpiderRuns kind{spider, scratch.count, &scratch};
  std::size_t used = 0;
  const std::size_t probes =
      run_select::solve(kind, workload, scratch.count, into(spider, scratch, out, used));
  out.tasks.resize(used);
  MST_ASSERT(used == workload.count());
  // Released schedules keep absolute times: release dates pin the origin.
  if (!workload.has_release_dates()) out.normalize();
  return probes;
}
// mstlint: zero-alloc-end

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                std::size_t cap) {
  return on_fresh_scratch<SpiderSolveScratch, SpiderSchedule>(
      [&](auto& scratch, auto& out) { schedule_within_into(spider, t_lim, cap, scratch, out); });
}

std::size_t SpiderScheduler::max_tasks(const Spider& spider, Time t_lim, std::size_t cap) {
  SpiderCountScratch scratch;
  return count_within(spider, t_lim, cap, scratch);
}

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                const Workload& workload, std::size_t cap) {
  return on_fresh_scratch<SpiderSolveScratch, SpiderSchedule>([&](auto& scratch, auto& out) {
    schedule_within_into(spider, t_lim, workload, cap, scratch, out);
  });
}

SpiderSchedule SpiderScheduler::schedule(const Spider& spider, const Workload& workload) {
  return on_fresh_scratch<SpiderSolveScratch, SpiderSchedule>(
      [&](auto& scratch, auto& out) { schedule_into(spider, workload, scratch, out); });
}

SpiderSchedule SpiderScheduler::schedule(const Spider& spider, std::size_t n) {
  return on_fresh_scratch<SpiderSolveScratch, SpiderSchedule>(
      [&](auto& scratch, auto& out) { schedule_into(spider, n, scratch, out); });
}

Time SpiderScheduler::makespan(const Spider& spider, std::size_t n) {
  return schedule(spider, n).makespan();
}

}  // namespace mst
