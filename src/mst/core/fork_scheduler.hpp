#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "mst/core/run_select_driver.hpp"
#include "mst/platform/fork.hpp"
#include "mst/schedule/fork_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file fork_scheduler.hpp
/// Scheduling on fork (star) platforms — §6 of the paper, after Beaumont,
/// Carter, Ferrante, Legrand, Robert (IPDPS 2002).
///
/// The decision form "how many tasks finish within `T_lim`?" is solved by
/// (a) expanding every slave into virtual single-task nodes (Fig 6), and
/// (b) selecting a maximum feasible node set on the master's one-port —
/// a `1 || ΣU_j` instance solved optimally by Moore–Hodgson.  Each slave's
/// nodes form one run (one latency `c`, deadlines `t − w − q·m` in
/// arithmetic progression), and the fork is one kind of the run-selection
/// driver (`run_select_driver.hpp`), which owns the selection, cap trim,
/// sequencing, released replay and makespan searches it shares with the
/// spider; this file adds the run builder, the search ceiling and the
/// Fig 6 realization — executions queue FIFO per slave.  The selection is
/// normalized per slave to the smallest-exec prefix (pure deadline
/// relaxation, count preserved), which makes it realizable as an actual
/// schedule.  The paper's original ascending-`c` greedy is kept as
/// `greedy_max_tasks` for cross-checking and for the heuristic-comparison
/// experiment.

namespace mst {

/// Reusable buffers for the fork selection paths: the driver's plus the
/// per-slave replay state.  Keep one per thread: with warm buffers counting, `makespan_within` and
/// the `_into` materializations perform no heap allocation at all, matching
/// the chain/spider paths.
struct ForkCountScratch : RunDriverScratch {
  std::vector<Time> slave_free;      ///< per-slave completion during replay
};

class ForkScheduler {
 public:
  /// Decision form: a feasible schedule of the maximum number of tasks — at
  /// most `cap` — all completing by `t_lim`.  Master emissions are sequenced
  /// EDD back-to-back from time 0.  `schedule_within_into` on a fresh
  /// scratch.
  static ForkSchedule schedule_within(const Fork& fork, Time t_lim, std::size_t cap);

  /// Count-only decision form (private scratch; see `count_within`).
  static std::size_t max_tasks(const Fork& fork, Time t_lim, std::size_t cap);

  /// Allocation-free counting (the driver's count policy), leaving the
  /// per-slave counts in `scratch.counts`.  Returns
  /// exactly `schedule_within(fork, t_lim, cap).tasks.size()`.  The makespan
  /// form's horizon search runs on this.
  static std::size_t count_within(const Fork& fork, Time t_lim, std::size_t cap,
                                  ForkCountScratch& scratch);

  /// Count *and* completion time of the decision-form schedule, still
  /// allocation-free: the whole `schedule_within` pipeline — selection,
  /// global-cap trim and EDD port sequencing — with no task vector built, so
  /// the registry's count path reports the same (tasks, makespan) pair as
  /// the materializing path.
  static std::pair<std::size_t, Time> makespan_within(const Fork& fork, Time t_lim,
                                                      std::size_t cap,
                                                      ForkCountScratch& scratch);

  /// Workload decision form: release dates bind positionally on the
  /// master's one-port (see spider_scheduler.hpp — forks share the
  /// positional-release selection).  Identical workloads reduce to the
  /// methods above capped at the workload count; non-uniform sizes are
  /// rejected.  The materializing forms replay the kernel's selection in
  /// its EDD order, position j emitting no earlier than the j-th release.
  static std::size_t count_within(const Fork& fork, Time t_lim, const Workload& workload,
                                  std::size_t cap, ForkCountScratch& scratch);
  static std::pair<std::size_t, Time> makespan_within(const Fork& fork, Time t_lim,
                                                      const Workload& workload, std::size_t cap,
                                                      ForkCountScratch& scratch);
  static void schedule_within_into(const Fork& fork, Time t_lim, const Workload& workload,
                                   std::size_t cap, ForkCountScratch& scratch,
                                   ForkSchedule& out);
  static ForkSchedule schedule_within(const Fork& fork, Time t_lim, const Workload& workload,
                                      std::size_t cap);

  /// Workload makespan form: the driver's released search (absolute times;
  /// no shift).  Returns the number of count probes the search made.
  static std::size_t schedule_into(const Fork& fork, const Workload& workload,
                                   ForkCountScratch& scratch, ForkSchedule& out);
  static ForkSchedule schedule(const Fork& fork, const Workload& workload);

  /// Makespan form: optimal schedule of exactly `n` tasks at the minimal
  /// horizon of the monotone decision form — the driver's identical search,
  /// seeded with `fork_makespan_lower_bound`.
  static ForkSchedule schedule(const Fork& fork, std::size_t n);

  /// Optimal makespan of `n` tasks.
  static Time makespan(const Fork& fork, std::size_t n);

  /// The paper's §6 greedy (Beaumont et al. [2]): sort slaves by ascending
  /// communication time (ties by processing time), then fill each slave with
  /// further virtual nodes while the insertion stays EDD-feasible.  Returns
  /// the task count.  Cross-checked against `max_tasks` in the test suite.
  static std::size_t greedy_max_tasks(const Fork& fork, Time t_lim, std::size_t cap);

  /// Materializes the greedy selection as an actual schedule (same EDD
  /// sequencing as the optimal path; counts come from the greedy).
  static ForkSchedule greedy_schedule_within(const Fork& fork, Time t_lim, std::size_t cap);

  // -------------------------------------------------------------------------
  // Scratch-reusing materialization: the value-returning forms are these on
  // a fresh scratch; `out` is rebuilt in place, so repeated solves on warm
  // scratch perform zero heap allocations (tests/test_zero_alloc.cpp).

  /// In-place form of `schedule_within(fork, t_lim, cap)`: the
  /// `makespan_within` pipeline emitting real tasks.
  static void schedule_within_into(const Fork& fork, Time t_lim, std::size_t cap,
                                   ForkCountScratch& scratch, ForkSchedule& out);

  /// In-place form of `schedule(fork, n)` (which is this on a fresh scratch):
  /// every search probe reuses the one scratch.  Returns the number of count
  /// probes the horizon search made — a deterministic work count.
  static std::size_t schedule_into(const Fork& fork, std::size_t n, ForkCountScratch& scratch,
                                   ForkSchedule& out);
};

}  // namespace mst
