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

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                std::size_t cap) {
  const SpiderTransformation tf = transform(spider, t_lim, cap);

  // Step (3): optimal virtual-node selection on the master's one-port.
  std::vector<DeadlineJob> jobs;
  jobs.reserve(tf.nodes.size());
  for (std::size_t idx = 0; idx < tf.nodes.size(); ++idx) {
    jobs.push_back({tf.nodes[idx].comm, tf.nodes[idx].deadline(t_lim), idx});
  }
  const std::vector<std::size_t> picked = moore_hodgson(std::move(jobs));

  // Per-leg counts; normalize each leg to its smallest-exec nodes, i.e. the
  // *suffix* of the leg schedule (rank < count).  Swapping a selected node
  // for an unselected same-comm node with a later deadline keeps the
  // selection EDD-feasible, so counts are preserved.
  std::vector<std::size_t> counts(spider.num_legs(), 0);
  for (std::size_t idx : picked) ++counts[tf.nodes[idx].source];

  // Global cap: trim the hardest node (largest exec among each leg's next
  // removal candidate) until within cap.  Removing never breaks feasibility.
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  while (total > cap) {
    std::size_t worst_leg = spider.num_legs();
    Time worst_exec = -1;
    for (std::size_t l = 0; l < spider.num_legs(); ++l) {
      if (counts[l] == 0) continue;
      const std::size_t m = tf.leg_schedules[l].tasks.size();
      const ChainTask& t = tf.leg_schedules[l].tasks[m - counts[l]];  // earliest kept task
      const Time exec = t_lim - t.emissions.front() - spider.leg(l).comm(0);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst_leg = l;
      }
    }
    MST_ASSERT(worst_leg < spider.num_legs());
    --counts[worst_leg];
    --total;
  }

  // Step (4): revert to a spider schedule.  Gather the suffix tasks with
  // their emission-completion deadlines, re-sequence the master emissions
  // EDD back-to-back from time 0, keep everything downstream untouched.
  struct Chosen {
    std::size_t leg;
    std::size_t task_index;  // into leg_schedules[leg].tasks
    Time deadline;           // original C_1 + c_1
  };
  std::vector<Chosen> chosen;
  chosen.reserve(total);
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    const ChainSchedule& ls = tf.leg_schedules[l];
    const std::size_t m = ls.tasks.size();
    const Time c1 = spider.leg(l).comm(0);
    for (std::size_t j = m - counts[l]; j < m; ++j) {
      chosen.push_back({l, j, ls.tasks[j].emissions.front() + c1});
    }
  }
  std::sort(chosen.begin(), chosen.end(), [](const Chosen& a, const Chosen& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    if (a.leg != b.leg) return a.leg < b.leg;
    return a.task_index < b.task_index;
  });

  SpiderSchedule schedule{spider, {}};
  schedule.tasks.reserve(chosen.size());
  Time port = 0;
  for (const Chosen& item : chosen) {
    const ChainTask& src = tf.leg_schedules[item.leg].tasks[item.task_index];
    const Time c1 = spider.leg(item.leg).comm(0);
    const Time emission = port;
    port += c1;
    // Lemma 3: the fork step never needs to emit later than the leg
    // schedule did, so moving the first emission earlier is always legal.
    MST_ASSERT(port <= item.deadline);
    SpiderTask task;
    task.leg = item.leg;
    task.proc = src.proc;
    task.start = src.start;
    task.emissions = src.emissions;
    task.emissions.front() = emission;
    schedule.tasks.push_back(std::move(task));
  }
  return schedule;
}

std::size_t SpiderScheduler::max_tasks(const Spider& spider, Time t_lim, std::size_t cap) {
  SpiderCountScratch scratch;
  return count_within(spider, t_lim, cap, scratch);
}

// The counting paths run warm-scratch only — statically allocation-checked
// (dynamic twin: tests/test_counting.cpp).
// mstlint: zero-alloc
std::size_t SpiderScheduler::count_within(const Spider& spider, Time t_lim, std::size_t cap,
                                          SpiderCountScratch& scratch) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  // Steps (1)–(3) of `schedule_within` without materialization: each leg's
  // backward construction is replayed count-only, its first-link emissions
  // become virtual-node deadlines (`expand_leg`: deadline = C_1 + c_1), and
  // the count-only Moore–Hodgson gives the selected cardinality.  Counts are
  // per-leg capped like the materialized path; the global cap trim of step
  // (3b) only ever reduces the total to `cap`, so `min` reproduces it.
  scratch.jobs.clear();
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    const Chain& leg = spider.leg(l);
    scratch.emissions.clear();
    ChainScheduler::count_within_emissions(leg, t_lim, cap, scratch.chain, scratch.emissions);
    const Time c1 = leg.comm(0);
    for (const Time emission : scratch.emissions) {
      scratch.jobs.push_back(DeadlineJob{c1, emission + c1, scratch.jobs.size()});
    }
  }
  const std::size_t picked = moore_hodgson_count(scratch.jobs, scratch.heap);
  return std::min(picked, cap);
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
  const std::size_t k_cap = std::min(cap, workload.count());
  if (!workload.has_release_dates()) return count_within(spider, t_lim, k_cap, scratch);
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  // Steps (1)–(2) as in the identical count; step (3) swaps the plain
  // Moore–Hodgson count for the positional-release selection DP.
  scratch.jobs.clear();
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    const Chain& leg = spider.leg(l);
    scratch.emissions.clear();
    ChainScheduler::count_within_emissions(leg, t_lim, k_cap, scratch.chain, scratch.emissions);
    const Time c1 = leg.comm(0);
    for (const Time emission : scratch.emissions) {
      scratch.jobs.push_back(DeadlineJob{c1, emission + c1, scratch.jobs.size()});
    }
  }
  return moore_hodgson_released_count(scratch.jobs, workload.releases(), k_cap, scratch.dp);
}
// mstlint: zero-alloc-end

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                const Workload& workload, std::size_t cap) {
  require_uniform_sizes(workload);
  if (!workload.has_release_dates()) {
    return schedule_within(spider, t_lim, std::min(cap, workload.count()));
  }
  const std::size_t k_cap = std::min(cap, workload.count());
  const SpiderTransformation tf = transform(spider, t_lim, k_cap);

  // Step (3), release-aware: positional-release selection on the one-port.
  std::vector<DeadlineJob> jobs;
  jobs.reserve(tf.nodes.size());
  for (std::size_t idx = 0; idx < tf.nodes.size(); ++idx) {
    jobs.push_back({tf.nodes[idx].comm, tf.nodes[idx].deadline(t_lim), idx});
  }
  const std::vector<std::size_t> picked =
      moore_hodgson_released(std::move(jobs), workload.releases(), k_cap);

  // Step (4) with release gating: replay the DP's own EDD sequence —
  // position j starts no earlier than the j-th smallest release date, and
  // the DP already proved every completion meets its node's deadline.  Each
  // leg's positions are mapped, in order, onto the *suffix* tasks of its
  // schedule (only suffixes are realizable, Lemma 4): within a leg the EDD
  // order is ascending deadline, and the suffix deadlines dominate any
  // chosen subset's pointwise, so the mapped tasks only ever gain slack.
  // (A global re-sort after the swap would NOT be safe: moving a job to a
  // later EDD position also moves it to a later positional release, which
  // can exceed the relaxed deadline.  Keeping the DP's sequence sidesteps
  // that entirely.)
  std::vector<std::size_t> counts(spider.num_legs(), 0);
  for (std::size_t idx : picked) ++counts[tf.nodes[idx].source];

  const std::vector<Time>& releases = workload.releases();
  SpiderSchedule schedule{spider, {}};
  schedule.tasks.reserve(picked.size());
  std::vector<std::size_t> next_of_leg(spider.num_legs(), 0);  // per-leg position counter
  Time port = 0;
  for (std::size_t position = 0; position < picked.size(); ++position) {
    const VirtualNode& node = tf.nodes[picked[position]];
    const std::size_t leg = node.source;
    const ChainSchedule& ls = tf.leg_schedules[leg];
    const std::size_t task_index = ls.tasks.size() - counts[leg] + next_of_leg[leg];
    ++next_of_leg[leg];
    const ChainTask& src = ls.tasks[task_index];
    const Time c1 = spider.leg(leg).comm(0);

    const Time emission = std::max(port, releases[position]);
    port = emission + c1;
    // DP feasibility at the chosen node's deadline; the mapped suffix
    // task's own deadline is no earlier, so the leg timing keeps its slack.
    MST_ASSERT(port <= node.deadline(t_lim));
    MST_ASSERT(emission <= src.emissions.front());

    SpiderTask task;
    task.leg = leg;
    task.proc = src.proc;
    task.start = src.start;
    task.emissions = src.emissions;
    task.emissions.front() = emission;
    schedule.tasks.push_back(std::move(task));
  }
  return schedule;
}

SpiderSchedule SpiderScheduler::schedule(const Spider& spider, const Workload& workload) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  const std::size_t n = workload.count();
  if (!workload.has_release_dates()) return schedule(spider, n);

  // Minimal horizon admitting every task: the single-best-leg schedule
  // shifted past the last release always fits, so the ceiling is feasible.
  // The floor adds the release term: the last emission cannot start before
  // the last release, and that task alone still needs a one-task makespan.
  const Time ceiling = single_leg_horizon(spider, n) + workload.last_release();
  SpiderCountScratch scratch;
  const Time lower = std::max(
      spider_makespan_lower_bound(spider, n, scratch.bound),
      workload.last_release() + spider_makespan_lower_bound(spider, 1, scratch.bound));
  const Time horizon = min_feasible_horizon(
      lower, ceiling, [&](Time t) { return count_within(spider, t, workload, n, scratch) >= n; });
  SpiderSchedule result = schedule_within(spider, horizon, workload, n);
  MST_ASSERT(result.tasks.size() == n);
  // Absolute times throughout: release dates pin the origin, so the
  // identical-path normalization shift does not apply.
  return result;
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

// Scratch-reusing materialization.  Equality with `schedule_within` rests on
// three invariants, all pinned by tests/test_zero_alloc.cpp:
//  * the per-leg `_into` builds equal `ChainScheduler::schedule_within`;
//  * node ids are assigned in the exact `transform`/`expand_leg` order
//    (leg-major, ascending first emission), so the Moore–Hodgson mirror —
//    EDD by (deadline, proc_time, id), eviction of the max (proc_time, id) —
//    selects the identical set;
//  * `scratch.chosen` tuples sort by (deadline, leg, task_index), the legacy
//    `Chosen` comparator verbatim.
// mstlint: zero-alloc
void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  const std::size_t num_legs = spider.num_legs();

  // Steps (1)–(2): per-leg decision schedules into pooled slots, virtual
  // nodes enumerated on the fly in `transform` order.
  if (scratch.legs.size() < num_legs) scratch.legs.resize(num_legs);
  scratch.jobs.clear();
  scratch.leg_of.clear();
  for (std::size_t l = 0; l < num_legs; ++l) {
    ChainScheduler::schedule_within_into(spider.leg(l), t_lim, cap, scratch.count.chain,
                                         scratch.legs[l]);
    const Time c1 = spider.leg(l).comm(0);
    for (const ChainTask& t : scratch.legs[l].tasks) {
      // expand_leg: proc_time = c_1, deadline = C¹ + c_1, ids in node order.
      scratch.jobs.push_back(DeadlineJob{c1, t.emissions.front() + c1, scratch.jobs.size()});
      scratch.leg_of.push_back(l);
    }
  }

  // Step (3): Moore–Hodgson with identities, mirroring `moore_hodgson`.
  std::sort(scratch.jobs.begin(), scratch.jobs.end(),
            [](const DeadlineJob& a, const DeadlineJob& b) {
              if (a.deadline != b.deadline) return a.deadline < b.deadline;
              if (a.proc_time != b.proc_time) return a.proc_time < b.proc_time;
              return a.id < b.id;
            });
  scratch.sel_heap.clear();
  Time total_time = 0;
  for (const DeadlineJob& job : scratch.jobs) {
    scratch.sel_heap.emplace_back(job.proc_time, job.id);
    std::push_heap(scratch.sel_heap.begin(), scratch.sel_heap.end());
    total_time += job.proc_time;
    if (total_time > job.deadline) {
      std::pop_heap(scratch.sel_heap.begin(), scratch.sel_heap.end());
      total_time -= scratch.sel_heap.back().first;
      scratch.sel_heap.pop_back();
    }
  }

  // Per-leg counts and the global-cap trim of `schedule_within`.
  scratch.counts.assign(num_legs, 0);
  for (const auto& [comm, id] : scratch.sel_heap) ++scratch.counts[scratch.leg_of[id]];
  std::size_t total = scratch.sel_heap.size();
  while (total > cap) {
    std::size_t worst_leg = num_legs;
    Time worst_exec = -1;
    for (std::size_t l = 0; l < num_legs; ++l) {
      if (scratch.counts[l] == 0) continue;
      const std::size_t m = scratch.legs[l].tasks.size();
      const ChainTask& t = scratch.legs[l].tasks[m - scratch.counts[l]];  // earliest kept task
      const Time exec = t_lim - t.emissions.front() - spider.leg(l).comm(0);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst_leg = l;
      }
    }
    MST_ASSERT(worst_leg < num_legs);
    --scratch.counts[worst_leg];
    --total;
  }

  // Step (4): gather the suffix tasks, re-sequence EDD from time 0, rebuild
  // `out.tasks` in recycled slots.
  scratch.chosen.clear();
  for (std::size_t l = 0; l < num_legs; ++l) {
    const ChainSchedule& ls = scratch.legs[l];
    const std::size_t m = ls.tasks.size();
    const Time c1 = spider.leg(l).comm(0);
    for (std::size_t j = m - scratch.counts[l]; j < m; ++j) {
      scratch.chosen.emplace_back(ls.tasks[j].emissions.front() + c1, l, j);
    }
  }
  std::sort(scratch.chosen.begin(), scratch.chosen.end());

  out.spider = spider;  // copy-assign reuses the nested leg buffers when warm
  std::size_t used = 0;
  Time port = 0;
  for (const auto& [deadline, leg, task_index] : scratch.chosen) {
    const ChainTask& src = scratch.legs[leg].tasks[task_index];
    const Time c1 = spider.leg(leg).comm(0);
    const Time emission = port;
    port += c1;
    MST_ASSERT(port <= deadline);
    if (used == out.tasks.size()) out.tasks.emplace_back();
    SpiderTask& task = out.tasks[used];
    task.leg = leg;
    task.proc = src.proc;
    task.start = src.start;
    task.emissions.assign(src.emissions.begin(), src.emissions.end());
    task.emissions.front() = emission;
    ++used;
  }
  out.tasks.resize(used);
}
// mstlint: zero-alloc-end

std::size_t SpiderScheduler::schedule_into(const Spider& spider, std::size_t n,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  MST_REQUIRE(n >= 1, "schedule needs at least one task");
  // Monotone predicate `count_within(t) >= n` on the shared count scratch,
  // from the makespan lower bound up to the single-best-leg horizon.
  // The ceiling goes first: `t_infinity` rejects an `n` outside the numeric
  // domain before the bound's arithmetic could overflow.
  const Time ceiling = single_leg_horizon(spider, n);
  std::size_t probes = 0;
  const Time horizon = min_feasible_horizon(
      spider_makespan_lower_bound(spider, n, scratch.count.bound), ceiling, [&](Time t) {
        ++probes;
        return count_within(spider, t, n, scratch.count) >= n;
      });
  schedule_within_into(spider, horizon, n, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  out.normalize();
  return probes;
}

}  // namespace mst
