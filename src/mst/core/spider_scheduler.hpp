#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/run_select_driver.hpp"
#include "mst/core/virtual_nodes.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file spider_scheduler.hpp
/// The paper's §7: optimal scheduling on spider graphs.
///
/// Pipeline for a window of length `T_lim` (the paper's 5-line algorithm):
///   (1) run the decision-form chain algorithm on every leg;
///   (2) turn every scheduled task into a virtual single-task node
///       (`comm = c_1` of the leg, `exec = T_lim − C¹ᵢ − c_1`, Fig 7);
///   (3) select a maximum feasible node set on the master's one-port
///       (the fork-graph step — each leg's nodes share `c_1` and come in
///       deadline order, so they form one run per leg);
///   (4) revert: a leg with `k` selected nodes executes the *last `k`
///       tasks* of its chain schedule — optimal for `k` tasks by the
///       backward construction (Lemma 4) — with master emissions moved to
///       the (earlier) times chosen in step (3), which is feasible by
///       Lemma 3.
/// The spider is one kind of the run-selection driver
/// (`run_select_driver.hpp`), which owns step (3), the sequencing of step
/// (4) and the makespan searches it shares with the fork; this file adds
/// steps (1)–(2) as the run builders, the search ceiling, and the task
/// writer of step (4).  The makespan form searches the minimal `T_lim` of
/// the monotone decision form, seeded with `spider_makespan_lower_bound`.
/// A leg's capped emissions at `t + Δ` are its emissions at `t` shifted by
/// `Δ` (the chain builds backwards from the horizon), so the search runs
/// the leg kernels and merges their runs about once per solve, at a horizon
/// ahead of its probes, and answers every probe below it with a linear
/// pass.  The count-only makespan form stops there — the minimal horizon
/// is the optimal makespan — and the materializing form builds each leg's
/// kept suffix alone: `kept[l]` tasks of leg `l`, not `n`.
/// Total complexity stays polynomial (Theorem 2) and the result is optimal
/// (Theorem 3).

namespace mst {

/// The intermediate artifact of steps (1)–(2), exposed so tests and the
/// Fig 7 experiment can inspect the transformation itself.
struct SpiderTransformation {
  /// Decision-form chain schedule of each leg (tasks in ascending
  /// first-emission order).
  std::vector<ChainSchedule> leg_schedules;
  /// All virtual nodes, leg by leg; `source` is the leg index and nodes of
  /// one leg appear in ascending rank (descending exec matches ascending
  /// first-emission order of the leg schedule — rank 0 is the latest task).
  std::vector<VirtualNode> nodes;
};

/// Reusable buffers for `SpiderScheduler::count_within`: the driver's plus
/// the per-leg backward counting.  Keep one per thread; with warm buffers the whole
/// spider count — per-leg backward counting plus the run-kernel selection —
/// runs without allocating.
struct SpiderCountScratch : RunDriverScratch {
  ChainCountScratch chain;           ///< shared across legs
};

/// Reusable buffers for the scratch-reusing materializing path
/// (`schedule_into` / `schedule_within_into`): the counting scratch plus
/// pooled per-leg decision schedules.
struct SpiderSolveScratch {
  SpiderCountScratch count;          ///< search probes, selection and sequencing
  std::vector<ChainSchedule> legs;   ///< pooled leg decision schedules
};

class SpiderScheduler {
 public:
  /// Steps (1)-(2): per-leg schedules and the fork-graph instance (Fig 7).
  static SpiderTransformation transform(const Spider& spider, Time t_lim, std::size_t cap);

  /// Decision form: a feasible spider schedule of the maximum number of
  /// tasks (at most `cap`) completing by `t_lim`.  `schedule_within_into`
  /// on a fresh scratch.
  static SpiderSchedule schedule_within(const Spider& spider, Time t_lim, std::size_t cap);

  /// Count-only decision form (private scratch; see `count_within`).
  static std::size_t max_tasks(const Spider& spider, Time t_lim, std::size_t cap);

  /// Allocation-free counting: the per-leg backward counting and the
  /// driver's count policy entirely in `scratch` (per-leg counts left in
  /// `scratch.counts`), never materializing leg schedules or virtual-node
  /// vectors.  Returns exactly
  /// `schedule_within(spider, t_lim, cap).tasks.size()`.  The registry's
  /// `materialize == false` decision path runs on this; the makespan
  /// search's probes are the same selection as linear passes.
  static std::size_t count_within(const Spider& spider, Time t_lim, std::size_t cap,
                                  SpiderCountScratch& scratch);

  /// Makespan form: optimal schedule of exactly `n` tasks.
  static SpiderSchedule schedule(const Spider& spider, std::size_t n);

  /// Optimal makespan of `n` tasks (`makespan` below on a fresh scratch).
  static Time makespan(const Spider& spider, std::size_t n);

  /// Count-only makespan form: the driver's identical search alone — the
  /// minimal feasible horizon, which is the optimal makespan of `n` tasks,
  /// and the probes it took (exactly `schedule_into`'s).  The leg kernels
  /// run once per merge (about once per solve) and no leg schedule is
  /// built; allocation-free on warm scratch.
  static run_select::SearchResult makespan(const Spider& spider, std::size_t n,
                                           SpiderCountScratch& scratch);

  /// Workload decision form.  Identical workloads reduce to the methods
  /// above (capped at the workload count).  Release dates bind positionally
  /// on the master's one-port (the j-th emission in time order starts at or
  /// after the j-th smallest release), so step (3) becomes the
  /// positional-release kernel on the same leg runs: Moore–Hodgson alone
  /// cannot model a machine whose availability depends on how many jobs
  /// were already selected, the DP can.  Steps (1), (2) and (4) are
  /// unchanged — the node deadlines still guarantee every selected emission
  /// completes no later than the leg schedule planned (Lemma 3), so
  /// replaying the kernel's EDD sequence with release delays stays legal.
  /// Non-uniform sizes are rejected.
  static std::size_t count_within(const Spider& spider, Time t_lim, const Workload& workload,
                                  std::size_t cap, SpiderCountScratch& scratch);
  /// Count and completion time of the decision-form schedule:
  /// `{count, count > 0 ? t_lim : 0}` — every kept leg keeps its latest
  /// task, which ends exactly at the horizon — so the registry's count path
  /// makes the same call for forks and spiders.
  static std::pair<std::size_t, Time> makespan_within(const Spider& spider, Time t_lim,
                                                      const Workload& workload, std::size_t cap,
                                                      SpiderCountScratch& scratch);
  static void schedule_within_into(const Spider& spider, Time t_lim, const Workload& workload,
                                   std::size_t cap, SpiderSolveScratch& scratch,
                                   SpiderSchedule& out);
  static SpiderSchedule schedule_within(const Spider& spider, Time t_lim,
                                        const Workload& workload, std::size_t cap);

  /// Workload makespan form: the driver's released search; the result keeps
  /// absolute times (release dates pin the origin).  Returns the number of
  /// count probes the search made.
  static std::size_t schedule_into(const Spider& spider, const Workload& workload,
                                   SpiderSolveScratch& scratch, SpiderSchedule& out);
  static SpiderSchedule schedule(const Spider& spider, const Workload& workload);

  // -------------------------------------------------------------------------
  // Scratch-reusing materialization: the value-returning forms are these on
  // a fresh scratch; `out` is rebuilt in place, so repeated solves on warm
  // scratch perform zero heap allocations (tests/test_zero_alloc.cpp).

  /// In-place form of `schedule_within(spider, t_lim, cap)`: per-leg builds
  /// through the chain `_into` path into pooled leg slots, then one
  /// materializing driver pass over their node deadlines (leg order, so the
  /// tie-breaks are those of `moore_hodgson` over the `transform` nodes).
  static void schedule_within_into(const Spider& spider, Time t_lim, std::size_t cap,
                                   SpiderSolveScratch& scratch, SpiderSchedule& out);

  /// In-place form of `schedule(spider, n)` (which is this on a fresh
  /// scratch): the driver's identical search, each leg's kept suffix built
  /// at the horizon, revert from the kept counts, normalize.  Returns the number of count probes the search
  /// made — a deterministic work count.
  static std::size_t schedule_into(const Spider& spider, std::size_t n,
                                   SpiderSolveScratch& scratch, SpiderSchedule& out);
};

}  // namespace mst
