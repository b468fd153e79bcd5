#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mst/common/time.hpp"

/// \file moore_hodgson.hpp
/// One-machine deadline selection — the engine behind the fork algorithm.
///
/// The virtual-node selection problem of §6/§7 is exactly `1 || ΣU_j`:
/// jobs (master emissions) with processing time `comm` and a hard deadline,
/// one machine (the master's out-port), maximize the number of on-time jobs.
/// The Moore–Hodgson algorithm solves it optimally in `O(N log N)`.  The
/// fork and spider node sets have more structure — one run per slave or
/// leg, each run sharing one processing time with deadlines already in
/// order — and `moore_hodgson_runs` exploits it: the same selection in
/// `O(N log p)` for p runs, with no sort and no eviction heap, as one merge
/// of the runs (`record_run_merge`) and one linear pass over it
/// (`moore_hodgson_pass`).  The pass takes a shift: a search that selects
/// at many horizons merges once and answers every horizon at or below the
/// merged one with a pass alone, on the same eviction rule.  Release dates
/// turn the step into a DP over the same merge,
/// `moore_hodgson_released_runs`.  The generic `DeadlineJob`
/// forms are the kernels' test oracles.
///
/// The paper cites the ascending-`c` greedy of Beaumont et al. [2] for this
/// step; we implement both (see `fork_scheduler.hpp` for the greedy) and use
/// Moore–Hodgson as the default because its optimality holds for *arbitrary*
/// job sets — which makes the spider reduction robust — while the greedy's
/// proof relies on the structured node sequences of fork expansion.

namespace mst {

/// One emission job.
struct DeadlineJob {
  Time proc_time = 0;  ///< time on the shared machine (the emission latency)
  Time deadline = 0;   ///< latest allowed completion on the machine
  std::size_t id = 0;  ///< caller-side identity, reported back in the result
};

/// Maximum-cardinality on-time subset (Moore–Hodgson).  Returns the `id`s of
/// the selected jobs; the subset is feasible when sequenced in EDD order
/// (earliest deadline first).  Jobs with `deadline < proc_time` are never
/// selected.  Deterministic: ties are broken by (deadline, proc_time, id).
std::vector<std::size_t> moore_hodgson(std::vector<DeadlineJob> jobs);

/// One run of the run-merged selection: the jobs whose deadlines are
/// `deadlines[begin, end)` of a shared array, ascending, all taking `proc`
/// on the machine.  The fork and spider selections are made of such runs —
/// one per slave (Fig 6) or leg (Fig 7), every node of a run sharing the
/// source's first-link latency.
struct JobRun {
  Time proc = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Merge and selection state of the run kernels, reused across passes: the
/// recorded merge (two buffers of N entries for N jobs), O(p) for p runs,
/// plus the released DP row and select table.
struct RunSelectScratch {
  /// One run as the kernel sees it, indexed by rank.
  struct Lane {
    Time proc = 0;
    std::size_t taken = 0;  ///< selected jobs of the run
  };
  std::vector<std::size_t> order;  ///< rank → run index
  std::vector<Lane> lanes;         ///< per rank
  /// `record_run_merge`: every job as (deadline, rank), in merge order.
  std::vector<std::pair<Time, std::size_t>> recorded;
  std::vector<std::pair<Time, std::size_t>> spare;  ///< the merge's other buffer
  std::vector<std::size_t> blocks;   ///< the merge's sorted block bounds
  std::vector<Time> dp;              ///< released: min completion per selected count
  std::vector<std::uint8_t> took;    ///< released select: (job, count) improvements
};

/// Records the (deadline, rank) merge of `runs` into `scratch.recorded`,
/// with the ranking — by (proc, run index) — in `scratch.order` and
/// `scratch.lanes`.  The runs are laid out rank by rank, then adjacent
/// sorted blocks are merged pairwise: log2 p rounds of branch-free linear
/// merges, O(N log p) for N jobs.  The record stays valid until the next
/// kernel call on `scratch`.  Allocation-free once `scratch` is warm.
void record_run_merge(const std::vector<JobRun>& runs, const std::vector<Time>& deadlines,
                      RunSelectScratch& scratch);

/// Linear pass over the recorded merge: the Moore–Hodgson selection on the
/// recorded runs with every deadline shifted by `shift <= 0`, as per-run
/// counts (`counts[i]` for `runs[i]`; reassigned) plus their total
/// (returned).  A job whose shifted deadline lies below its proc is
/// skipped: it does not exist at the shifted horizon (and the generic rule
/// would select and evict it again at once — see `moore_hodgson_runs`).  A
/// uniform shift keeps the (deadline, rank) order, so the pass equals
/// `moore_hodgson_runs` on the shifted runs without the skipped jobs.
/// O(N) with no heap; allocation-free once `scratch` and `counts` are warm.
std::size_t moore_hodgson_pass(Time shift, RunSelectScratch& scratch,
                               std::vector<std::size_t>& counts);

/// Moore–Hodgson over runs: the selection `moore_hodgson` makes on the
/// concatenated runs with run-major ids, reported as per-run counts
/// (`counts[i]` for `runs[i]`; reassigned) plus their total (returned).
/// It is `record_run_merge` and one `moore_hodgson_pass` at shift 0.
///
/// The runs are ranked by (proc, run index).  Because ids are run-major,
/// the generic EDD key (deadline, proc, id) orders jobs of different runs
/// exactly as (deadline, rank) does, and the job the generic rule evicts —
/// the max (proc, id) — always lies in the highest-ranked run with a
/// selected job.  Which job of a run is selected never matters, since all
/// of them take the same time; so the kernel merges the runs on
/// (deadline, rank) instead of sorting, and keeps the selection as one
/// count per rank with a pointer at the highest non-empty rank instead of
/// an eviction heap.  A job that does not fit and ranks at or above that
/// pointer is the one the generic rule would evict, so it is rejected
/// without touching the counts.  A job whose deadline lies below its proc
/// is skipped: the generic rule evicts it right after taking it, since
/// every selected job it could displace — ranking higher, so taking at
/// least its proc — met an earlier deadline.
///
/// Cost: O(N log p) for N jobs — the merge — plus the pass, whose pointer
/// moves down no more often than it jumps up (at most once per job).
/// Allocation-free once `scratch` and `counts` are warm.
std::size_t moore_hodgson_runs(const std::vector<JobRun>& runs, const std::vector<Time>& deadlines,
                               RunSelectScratch& scratch, std::vector<std::size_t>& counts);

/// Positional-release selection over runs — the release-date
/// generalization behind the fork/spider workload algorithms.  Tasks are
/// identical apart from their release dates, so the dates bind
/// *positionally*: the j-th selected emission in time order (0-based)
/// cannot start before `releases[j]` (`releases` sorted ascending), and at
/// most `min(max_count, releases.size())` jobs are selected.  Solved
/// exactly by the O(N·K) DP over the EDD order (`dp[j]` = minimal
/// completion of a feasible j-job selection of the processed prefix);
/// Moore–Hodgson's eviction rule does not extend to position-dependent
/// machine availability.  The DP walks the recorded merge
/// (`record_run_merge`), which visits the jobs in the generic EDD order
/// (deadline, proc, id) on run-major ids (jobs of one run tying on the
/// deadline are interchangeable), so it takes the generic decisions one by
/// one.
/// Reachability is the largest count reached so far, never a sentinel
/// time: any int64 time is a valid completion.
///
/// Count policy (`picked` null): one DP row; returns the maximum
/// selection's size.  Select policy: also flags every DP improvement in a
/// flat (job, count) table in `scratch` and backtracks into `*picked`
/// (reassigned) the run of each position — `moore_hodgson_released` with
/// ids mapped to runs.  Allocation-free once `scratch` and `*picked` are
/// warm.
std::size_t moore_hodgson_released_runs(const std::vector<JobRun>& runs,
                                        const std::vector<Time>& deadlines,
                                        const std::vector<Time>& releases,
                                        std::size_t max_count, RunSelectScratch& scratch,
                                        std::vector<std::size_t>* picked = nullptr);

/// Generic positional-release selection (test oracle): the `id`s of one
/// maximum selection in sequencing order (position j gets `releases[j]`).
std::vector<std::size_t> moore_hodgson_released(std::vector<DeadlineJob> jobs,
                                                const std::vector<Time>& releases,
                                                std::size_t max_count);

/// True iff the given jobs all meet their deadlines when run back-to-back in
/// EDD order — the canonical feasibility test for a selection.
bool edd_feasible(std::vector<DeadlineJob> jobs);

/// EDD sequencing: returns, for each input job (by position), its start time
/// on the machine when the set is run back-to-back in EDD order from time 0.
/// Requires the set to be `edd_feasible`; throws `std::logic_error` if not.
std::vector<Time> sequence_edd(const std::vector<DeadlineJob>& jobs);

}  // namespace mst
