#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "mst/core/bounds.hpp"
#include "mst/core/moore_hodgson.hpp"
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
/// a `1 || ΣU_j` instance solved optimally by Moore–Hodgson
/// (`moore_hodgson.hpp`).  The selection is normalized per slave to the
/// smallest-exec prefix (pure deadline relaxation, count preserved), which
/// makes it realizable as an actual schedule.  The paper's original
/// ascending-`c` greedy is kept as `greedy_max_tasks` for cross-checking
/// and for the heuristic-comparison experiment.

namespace mst {

/// Reusable buffers for `ForkScheduler::count_within`.  Keep one per
/// thread: with warm buffers the count — on-the-fly virtual-node expansion
/// plus the count-only Moore–Hodgson selection — performs no heap
/// allocation at all, matching the chain/spider counting paths.
struct ForkCountScratch {
  std::vector<DeadlineJob> jobs;  ///< the Fig 6 node instance, reused
  std::vector<Time> heap;         ///< Moore–Hodgson selection heap
  std::vector<Time> dp;           ///< positional-release selection DP row
  // `makespan_within` extras:
  std::vector<std::pair<Time, std::size_t>> sel_heap;  ///< (comm, id) eviction heap
  std::vector<std::size_t> slave_of;   ///< job id → slave index
  std::vector<std::size_t> counts;     ///< selected tasks per slave
  std::vector<std::pair<Time, std::size_t>> seq;  ///< (deadline, slave) sequencing
  std::vector<Time> slave_free;        ///< per-slave completion during replay
  OnePortScratch bound;                ///< makespan lower bound seeding the search
};

class ForkScheduler {
 public:
  /// Decision form: a feasible schedule of the maximum number of tasks — at
  /// most `cap` — all completing by `t_lim`.  Master emissions are sequenced
  /// EDD back-to-back from time 0.
  static ForkSchedule schedule_within(const Fork& fork, Time t_lim, std::size_t cap);

  /// Count-only decision form (private scratch; see `count_within`).
  static std::size_t max_tasks(const Fork& fork, Time t_lim, std::size_t cap);

  /// Allocation-free counting: expands each slave's virtual nodes directly
  /// into `scratch.jobs` (never building node vectors) and runs the
  /// count-only Moore–Hodgson selection in `scratch.heap`.  Returns exactly
  /// `schedule_within(fork, t_lim, cap).tasks.size()`.  The makespan form's
  /// horizon search and the registry's `materialize == false` fast path run
  /// on this.
  static std::size_t count_within(const Fork& fork, Time t_lim, std::size_t cap,
                                  ForkCountScratch& scratch);

  /// Count *and* completion time of the decision-form schedule, still
  /// allocation-free: replays the whole `schedule_within` pipeline —
  /// selection with identities, per-slave normalization, the global-cap
  /// trim and the EDD port sequencing — in scratch buffers, so the registry
  /// fast path reports the same (tasks, makespan) pair as the materializing
  /// path without ever building task vectors.
  static std::pair<std::size_t, Time> makespan_within(const Fork& fork, Time t_lim,
                                                      std::size_t cap,
                                                      ForkCountScratch& scratch);

  /// Workload decision form: release dates bind positionally on the
  /// master's one-port (see spider_scheduler.hpp — forks share the
  /// positional-release selection DP).  Identical workloads reduce to the
  /// methods above capped at the workload count; non-uniform sizes are
  /// rejected.
  static std::size_t count_within(const Fork& fork, Time t_lim, const Workload& workload,
                                  std::size_t cap, ForkCountScratch& scratch);
  static ForkSchedule schedule_within(const Fork& fork, Time t_lim, const Workload& workload,
                                      std::size_t cap);

  /// Workload makespan form: the minimal horizon of the release-aware count
  /// (absolute times; no shift), searched from the makespan lower bound
  /// raised past the last release.
  static ForkSchedule schedule(const Fork& fork, const Workload& workload);

  /// Makespan form: optimal schedule of exactly `n` tasks at the minimal
  /// horizon `t_lim` of the monotone decision form.  The search
  /// (`min_feasible_horizon`, search.hpp) is seeded with
  /// `fork_makespan_lower_bound` and certified — a tight bound costs two
  /// count probes, and the horizon found never depends on the bound.
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
  // Scratch-reusing materialization: bit-identical to the value-returning
  // forms (pinned by tests/test_zero_alloc.cpp), rebuilding `out` in place so
  // repeated solves on warm scratch perform zero heap allocations.

  /// In-place twin of `schedule_within(fork, t_lim, cap)`: the
  /// `makespan_within` pipeline with step (4) emitting real tasks.
  static void schedule_within_into(const Fork& fork, Time t_lim, std::size_t cap,
                                   ForkCountScratch& scratch, ForkSchedule& out);

  /// In-place form of `schedule(fork, n)` (which is this on a fresh scratch):
  /// every search probe reuses the one scratch.  Returns the number of count
  /// probes the horizon search made — a deterministic work count.
  static std::size_t schedule_into(const Fork& fork, std::size_t n, ForkCountScratch& scratch,
                                   ForkSchedule& out);
};

}  // namespace mst
