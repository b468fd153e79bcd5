#pragma once

#include <cstddef>

#include "mst/platform/chain.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file chain_scheduler.hpp
/// The paper's primary contribution (§3): a makespan-optimal schedule of `n`
/// identical tasks on a chain of heterogeneous processors, by *backward*
/// construction from the horizon.  The paper's algorithm costs `O(n·p²)`;
/// this implementation makes the same choices in `O(n·p)`.
///
/// Sketch (matching the pseudo-code of Fig 3): the algorithm keeps, per
/// link, a *hull* `h_k` — the earliest emission already scheduled on link
/// `k` — and per processor an *occupancy* `o_k` — the earliest execution
/// start already scheduled on processor `k`.  Both start at the horizon.
/// Scheduling tasks from the last to the first, each task has one
/// candidate communication vector per destination processor `k`:
///
///     kC_k = min(o_k - w_k - c_k,  h_k - c_k)          (last hop)
///     kC_j = min(kC_{j+1} - c_j,   h_j - c_j)  (j < k)  (upstream hops)
///
/// and commits to the *greatest* candidate under the Definition 3 order
/// (latest first-link emission; ties toward the nearer processor).  The
/// schedule is finally shifted so the first emission happens at time 0.
///
/// Selection in O(p).  The paper builds all `p` candidates per task.  With
/// prefix sums `C_j = c_0 + … + c_{j-1}`, `a_j = h_j − C_{j+1}` and
/// `b_k = o_k − w_k − C_{k+1}`, the candidate to `k` unrolls to
/// `kC_j = C_j + min(b_k, min a_{j..k})`.  Comparing two candidates
/// `k < k'` entry by entry then shows that Definition 3 prefers `k'` iff
/// `a_k > b_k` and `b_k < min(b_{k'}, min a_{(k,k']})`.  So one ascending
/// scan, whose running minimum of `a` restarts whenever the best changes,
/// finds the winner, and only the winner's vector is built, in `O(dest)`.
/// `trace_backward` (chain_trace.hpp) keeps the paper's `O(n·p²)` scan as
/// the reference the tests compare against.
///
/// Theorem 1 proves the construction optimal; our test-suite re-verifies
/// this against exhaustive search on thousands of small instances.

namespace mst {

/// Reusable buffers of the backward construction, shared by the counting
/// and the `_into` materializing paths.  Keep one per thread: after the
/// first call the buffers are warm, and every further call on a chain of
/// the same (or smaller) size performs no heap allocation at all — the
/// sweep runner's hot path relies on this.
struct ChainCountScratch {
  std::vector<Time> prefix;     ///< `C_j = c_0 + … + c_{j-1}`
  std::vector<Time> link;       ///< `a_j = h_j − C_{j+1}`
  std::vector<Time> proc;       ///< `b_k = o_k − w_k − C_{k+1}`
  std::vector<Time> best;       ///< the winning communication vector
  std::vector<Time> emissions;  ///< release-date counting: first emissions
};

/// Optimal scheduling on chains (stateless; all methods are pure functions
/// of their arguments).
class ChainScheduler {
 public:
  /// Makespan form: optimal schedule of exactly `n >= 1` tasks.  The result
  /// starts at time 0 and its makespan equals the optimum (Theorem 1).
  /// Complexity O(n·p).
  static ChainSchedule schedule(const Chain& chain, std::size_t n);

  /// Optimal makespan of `n` tasks (convenience for sweeps).
  static Time makespan(const Chain& chain, std::size_t n);

  /// Workload makespan form.  Identical workloads take the `schedule(chain,
  /// n)` path above bit-for-bit.  Release dates are handled natively: tasks
  /// not yet released simply shift the earliest feasible start in the span
  /// recurrences, i.e. the minimal horizon `T*` of the release-aware
  /// decision count below is searched — seeded with the makespan lower
  /// bound raised past the last release, and certified
  /// (`min_feasible_horizon`, search.hpp) — and the backward construction
  /// is anchored there.  Because release dates are absolute,
  /// the result is *not* shifted to start at 0; its makespan equals `T*`,
  /// which is optimal: the backward emissions are the componentwise-latest
  /// among all k-task schedules ending by the horizon (Lemma 4 suffix
  /// optimality), so a horizon admits `n` release-feasible tasks iff any
  /// schedule does.  Non-uniform task sizes are outside the algorithm's
  /// optimality proof and are rejected (`std::invalid_argument`).
  static ChainSchedule schedule(const Chain& chain, const Workload& workload);

  /// Workload decision form: as many workload tasks as possible — at most
  /// `min(cap, workload.count())` — completing within `[0, t_lim]`, release
  /// dates respected positionally (the j-th emission in time order starts at
  /// or after the j-th smallest release date).
  static ChainSchedule schedule_within(const Chain& chain, Time t_lim, const Workload& workload,
                                       std::size_t cap);

  /// Counting form of the above.  For release-dated workloads this replays
  /// the counting construction once, collecting first emissions into the
  /// scratch, and then finds the largest k whose k latest emissions dominate
  /// the k earliest release dates (sorted-to-sorted matching is optimal for
  /// interchangeable tasks; the predicate is monotone in k, so a binary
  /// search suffices).
  static std::size_t count_within(const Chain& chain, Time t_lim, const Workload& workload,
                                  std::size_t cap, ChainCountScratch& scratch);

  /// Decision form (§7): schedule as many tasks as possible — at most
  /// `max_tasks` — so that all of them complete by `t_lim`.  All times stay
  /// absolute in `[0, t_lim]`; no shift is applied, because the spider
  /// reduction needs the emission times relative to the window.  The
  /// returned schedule's tasks are the *suffix* property holders: for every
  /// `k`, its last `k` tasks form an optimal `k`-task schedule ending at
  /// `t_lim` (consequence of the backward construction; exploited by
  /// Lemma 4).
  static ChainSchedule schedule_within(const Chain& chain, Time t_lim, std::size_t max_tasks);

  /// Number of tasks the decision form schedules (throughput counting).
  /// Runs the counting construction below with a private scratch.
  static std::size_t max_tasks(const Chain& chain, Time t_lim, std::size_t cap);

  /// Decision-form counting without materialization: replays the backward
  /// construction of `schedule_within` but never builds `ChainTask`s.  Returns
  /// exactly `schedule_within(chain, t_lim, cap).tasks.size()`.  With a warm
  /// `scratch` this performs zero heap allocations — the registry's
  /// `materialize == false` fast path and the spider horizon search both sit
  /// on it.
  static std::size_t count_within(const Chain& chain, Time t_lim, std::size_t cap,
                                  ChainCountScratch& scratch);

  /// Counting variant that also records each counted task's first-link
  /// emission `C^i_1` by appending to `first_emissions` (construction order:
  /// latest task first).  The spider reduction builds its virtual-node
  /// deadlines from these without materializing the leg schedules.
  static std::size_t count_within_emissions(const Chain& chain, Time t_lim, std::size_t cap,
                                            ChainCountScratch& scratch,
                                            std::vector<Time>& first_emissions);

  /// Raw backward construction anchored at an arbitrary horizon, exposed for
  /// the property tests of Lemma 2 (sub-chain projection) and Lemma 4
  /// (suffix optimality).  If `stop_on_negative` is true the construction
  /// stops before scheduling a task whose first emission would be negative
  /// (decision form); otherwise it schedules exactly `max_tasks` tasks
  /// regardless of sign (makespan form, shifted by the caller).
  static ChainSchedule build_backward(const Chain& chain, Time horizon, std::size_t max_tasks,
                                      bool stop_on_negative);

  // -------------------------------------------------------------------------
  // Scratch-reusing materialization.  `_into` variants rebuild `out` in place
  // — task slots, their communication vectors and the chain copy all reuse
  // warm capacity.  The value-returning forms above are these with a fresh
  // scratch and schedule.  After one warm-up call at a given (p, n),
  // repeated solves perform zero heap allocations (tests/test_zero_alloc.cpp).

  /// In-place form of `schedule(chain, n)`.
  static void schedule_into(const Chain& chain, std::size_t n, ChainCountScratch& scratch,
                            ChainSchedule& out);

  /// In-place form of `schedule(chain, workload)`.
  static void schedule_into(const Chain& chain, const Workload& workload,
                            ChainCountScratch& scratch, ChainSchedule& out);

  /// In-place form of `schedule_within(chain, t_lim, max_tasks)`.
  static void schedule_within_into(const Chain& chain, Time t_lim, std::size_t max_tasks,
                                   ChainCountScratch& scratch, ChainSchedule& out);

  /// In-place form of `schedule_within(chain, t_lim, workload, cap)`.
  static void schedule_within_into(const Chain& chain, Time t_lim, const Workload& workload,
                                   std::size_t cap, ChainCountScratch& scratch,
                                   ChainSchedule& out);
};

}  // namespace mst
