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
/// `O(N log p)` for p runs, with no sort and no eviction heap.  Release
/// dates turn the step into a DP on the same runs and merge,
/// `moore_hodgson_released_runs`.  The generic `DeadlineJob` forms are the
/// kernels' test oracles.
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

/// Merge and selection state of the run kernels, reused across passes: O(p)
/// for p runs, plus the released DP row and select table.
struct RunSelectScratch {
  /// One run as the kernel sees it, indexed by rank.
  struct Lane {
    Time proc = 0;
    std::size_t next = 0;   ///< next unmerged deadline of the run
    std::size_t end = 0;
    std::size_t taken = 0;  ///< selected jobs of the run
  };
  std::vector<std::size_t> order;                  ///< rank → run index
  std::vector<Lane> lanes;                         ///< per rank
  std::vector<std::pair<Time, std::size_t>> heap;  ///< (deadline, rank) merge front
  std::vector<Time> dp;              ///< released: min completion per selected count
  std::vector<std::size_t> merged;   ///< released select: run of each job, merge order
  std::vector<std::uint8_t> took;    ///< released select: (job, count) improvements
};

/// Moore–Hodgson over runs: the selection `moore_hodgson` makes on the
/// concatenated runs with run-major ids, reported as per-run counts
/// (`counts[i]` for `runs[i]`; reassigned) plus their total (returned).
///
/// The runs are ranked by (proc, run index).  Because ids are run-major,
/// the generic EDD key (deadline, proc, id) orders jobs of different runs
/// exactly as (deadline, rank) does, and the job the generic rule evicts —
/// the max (proc, id) — always lies in the highest-ranked run with a
/// selected job.  Which job of a run is selected never matters, since all
/// of them take the same time; so the kernel merges the runs with a p-entry
/// min-heap on (deadline, rank) instead of sorting, and keeps the selection
/// as one count per rank with a pointer at the highest non-empty rank
/// instead of an eviction heap.  A job that does not fit and ranks at or
/// above that pointer is the one the generic rule would evict, so it is
/// rejected without touching the counts.
///
/// Cost: O(N log p) for N jobs — one heap sift per job — plus the pointer's
/// downward moves, which never exceed its upward jumps (at most p each);
/// O(p) scratch.  Allocation-free once `scratch` and `counts` are warm.
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
/// machine availability.  The runs are merged as in `moore_hodgson_runs`,
/// which visits the jobs in the generic EDD order (deadline, proc, id) on
/// run-major ids (jobs of one run tying on the deadline are
/// interchangeable), so the DP takes the generic decisions one by one.
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
