#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/common/time.hpp"
#include "mst/core/bounds.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/search.hpp"
#include "mst/workload/workload.hpp"

/// \file run_select_driver.hpp
/// The one-port selection driver of the fork (§6, Fig 6) and spider (§7,
/// step 3) algorithms.
///
/// Both reduce a window `t` to runs of virtual nodes on the master's
/// one-port — one `JobRun` (moore_hodgson.hpp) per slave or leg, every node
/// a master emission of the run's first-link latency with a deadline — and
/// differ only in how they build the runs and how they write a selected
/// node as a task.  Everything around the two run kernels is written here
/// once, as templates over a kind policy and an emitter:
///
///  * the decision pass, with three policies: count (the kernel's count
///    only), materialize (select, trim to the cap, EDD sequencing) and
///    released (the positional-release select, replayed);
///  * the makespan searches: identical (`search`: `min_feasible_horizon`
///    from the lower bound over merged-ahead linear passes, reusing the
///    smallest feasible probe's counts) and released
///    (`min_released_horizon`);
///  * the count-only makespan form (`search` alone: the minimal horizon is
///    the optimal makespan, no schedule built) and the materializing one
///    (`solve`: `search`, then the kept suffixes built and sequenced).
///
/// Merge-ahead.  Both kinds are translation-invariant: a fork run at `t` is
/// `t − w − q·m`, and a spider leg's capped emissions at `t + Δ` are its
/// emissions at `t` shifted by `Δ` (the chain builds its tasks backwards
/// from the horizon, so the latest `cap` tasks are the same nodes).  The
/// runs at a horizon `t <= M` are therefore the runs at `M` shifted by
/// `t − M`, minus the nodes whose shifted deadline falls below their proc
/// (those are exactly the ones that do not fit at `t`), and the
/// (deadline, rank) order is the same at every horizon.  So the identical
/// search builds and merges the runs once, at a horizon `M` ahead of the
/// probe that needs it (`merge_horizon`), and answers every probe at or
/// below `M` with one linear pass (`moore_hodgson_pass`) at `Δ = t − M`:
/// no run builder, no merge.  A probe above `M` merges again, further ahead.
/// The probe sequence — and so every answer — is unchanged.
///
/// A kind policy `K` provides
///
///     Time K::ceiling(std::size_t n)      a feasible horizon of n tasks;
///                                         refuses out-of-domain input
///     Time K::lower_bound(std::size_t n)  a makespan lower bound of n tasks
///     void K::count_runs(Time t, std::size_t cap)
///                                         the runs at `t`, at most `cap`
///                                         nodes each, into the scratch
///     void K::runs(Time t, std::size_t cap, const std::vector<std::size_t>* run_caps)
///                                         the same runs, built so that the
///                                         emitter can write their nodes;
///                                         run `r` keeps at most
///                                         `(*run_caps)[r]` nodes — its
///                                         latest — when `run_caps` is set
///
/// and every materializing pass calls an emitter
/// `emit(run, node, emission)` once per selected node in emission order:
/// `node` indexes the run's nodes by ascending deadline, `emission` is when
/// the master starts sending it.  Within a run the kept nodes are always
/// a suffix — the latest deadlines, i.e. the smallest executions; for a
/// spider leg, the last tasks of its chain schedule (Lemma 4).

namespace mst {

/// Buffers of the driver, reused across passes.  Keep one per thread: with
/// warm buffers every pass and search performs no heap allocation.
struct RunDriverScratch {
  std::vector<Time> deadlines;       ///< every run's node deadlines, run by run, ascending
  std::vector<JobRun> runs;          ///< one run per slave or leg
  RunSelectScratch select;           ///< the run kernels' recorded merge and lanes
  std::vector<std::size_t> counts;   ///< selected nodes per run
  std::vector<std::size_t> kept;     ///< counts of the search's smallest feasible probe
  Time kept_at = -1;                 ///< the horizon of `kept`; -1 for none (last search)
  Time merged_at = -1;               ///< the horizon of the recorded merge; -1 for none (last search)
  std::vector<std::size_t> picked;   ///< released selection: run of each position
  std::size_t selections = 0;        ///< selection passes (merging or linear) made on this scratch
  std::size_t merges = 0;            ///< run merges (O(N log p) each) made on this scratch
  /// EDD sequencing: (deadline, run, node index into `deadlines`).
  std::vector<std::tuple<Time, std::size_t, std::size_t>> seq;
  OnePortScratch bound;              ///< makespan lower bound seeding the search
};

/// A value form: the `_into` call `into(scratch, out)` on a fresh scratch.
template <typename Scratch, typename Out, typename Into>
Out on_fresh_scratch(Into&& into) {
  Scratch scratch;
  Out out;
  into(scratch, out);
  return out;
}

namespace run_select {

// Warm-scratch only — statically allocation-checked (dynamic twins:
// tests/test_counting.cpp and tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

inline void require_window(const Workload& workload, Time t_lim) {
  MST_REQUIRE(workload.uniform_sizes(),
              "the one-port virtual-node selection is only optimal for identical task sizes");
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
}

/// One identical selection over the runs in `s` — a merge and a pass:
/// per-run counts into `s.counts`, their total returned.
inline std::size_t select(RunDriverScratch& s) {
  ++s.selections;
  ++s.merges;
  return moore_hodgson_runs(s.runs, s.deadlines, s.select, s.counts);
}

/// Records the merge of the runs in `s`, built at horizon `t`.
inline void record_merge(Time t, RunDriverScratch& s) {
  ++s.merges;
  record_run_merge(s.runs, s.deadlines, s.select);
  s.merged_at = t;
}

/// `select` at a horizon `t <= s.merged_at`, as one linear pass over the
/// recorded merge.
inline std::size_t select_merged(Time t, RunDriverScratch& s) {
  MST_ASSERT(s.merged_at >= 0 && t <= s.merged_at);
  ++s.selections;
  return moore_hodgson_pass(t - s.merged_at, s.select, s.counts);
}

/// Where the identical search merges when probe `t` lies above the recorded
/// merge: ahead of `t` by twice its distance from the search's first probe
/// `start`, plus one and a 1/64 margin of `start`, never past the ceiling.
/// The gallop's next probe (`t + (t − start) + 1`) then needs no merge of
/// its own, and the certify and bisect probes all lie below a merge
/// already made: on the benchmark's star sweep this merges once per solve.
/// The rule is deterministic and only decides how far ahead a merge looks;
/// it never changes a probe or an answer.
inline Time merge_horizon(Time t, Time start, Time ceiling) {
  const Time behind = std::max<Time>(t - start, 0);
  const Time ahead = 2 * behind + 1 + start / 64;  // < 3·kTimeInfinity: no overflow
  return t + std::min(ahead, ceiling - t);
}

/// Global cap: the selection sees `cap` nodes per run, so its total can
/// exceed `cap`.  Trim greedily the hardest node — the run whose earliest
/// kept node has the largest execution `t − deadline`, i.e. the smallest
/// deadline, ties to the lowest run — until within the cap; removing a node
/// never breaks feasibility.
inline void trim_to_cap(std::size_t cap, RunDriverScratch& s) {
  std::size_t total = 0;
  for (const std::size_t c : s.counts) total += c;
  for (; total > cap; --total) {
    std::size_t worst = s.runs.size();
    Time worst_deadline = 0;
    for (std::size_t r = 0; r < s.runs.size(); ++r) {
      if (s.counts[r] == 0) continue;
      const Time deadline = s.deadlines[s.runs[r].end - s.counts[r]];
      if (worst == s.runs.size() || deadline < worst_deadline) {
        worst = r;
        worst_deadline = deadline;
      }
    }
    MST_ASSERT(worst < s.runs.size());
    --s.counts[worst];
  }
}

/// Materialize policy, after `select` and `trim_to_cap`: each run keeps the
/// suffix of `s.counts[r]` nodes (a pure deadline relaxation of any
/// selection with the same counts, so they stay EDD-feasible), and the
/// emissions run back-to-back from 0 in EDD order by (deadline, run, node).
template <typename Emit>
void sequence(RunDriverScratch& s, Emit&& emit) {
  s.seq.clear();
  for (std::size_t r = 0; r < s.runs.size(); ++r) {
    for (std::size_t i = s.runs[r].end - s.counts[r]; i < s.runs[r].end; ++i) {
      s.seq.emplace_back(s.deadlines[i], r, i);
    }
  }
  std::sort(s.seq.begin(), s.seq.end());
  Time port = 0;
  for (const auto& [deadline, r, i] : s.seq) {
    const Time emission = port;
    port += s.runs[r].proc;
    MST_ASSERT(port <= deadline);
    emit(r, i - s.runs[r].begin, emission);
  }
}

/// Released policy, after the positional-release select into `s.picked`:
/// replays the kernel's own EDD sequence — position j emits at
/// `max(port, releases[j])` — mapping each run's positions, in order, onto
/// the suffix of its nodes.  Within a run the positions come in ascending
/// deadline, and the suffix deadlines dominate any chosen subset's
/// pointwise, so the mapped nodes only gain slack.  (Re-sorting after that
/// swap would NOT be safe: a node moved to a later position also inherits
/// a later release.)
template <typename Emit>
void replay_released(const std::vector<Time>& releases, RunDriverScratch& s, Emit&& emit) {
  std::vector<std::size_t>& remaining = s.counts;  // per run, unmapped positions
  remaining.assign(s.runs.size(), 0);
  for (const std::size_t r : s.picked) ++remaining[r];
  Time port = 0;
  for (std::size_t position = 0; position < s.picked.size(); ++position) {
    const std::size_t r = s.picked[position];
    const JobRun& run = s.runs[r];
    const std::size_t i = run.end - remaining[r]--;
    const Time emission = std::max(port, releases[position]);
    port = emission + run.proc;
    MST_ASSERT(port <= s.deadlines[i]);
    emit(r, i - run.begin, emission);
  }
}

/// Count policy: the decision-form task count at `t_lim` (at most `cap`
/// and the workload's count) without materializing anything; identical
/// selections leave their per-run counts in `s.counts`.  The cap trim only
/// ever reduces the selected total to the cap, so `min` reproduces the
/// materialized count.
template <typename Kind>
std::size_t count(Kind& kind, Time t_lim, const Workload& workload, std::size_t cap,
                  RunDriverScratch& s) {
  require_window(workload, t_lim);
  const std::size_t k_cap = std::min(cap, workload.count());
  kind.count_runs(t_lim, k_cap);
  if (!workload.has_release_dates()) return std::min(select(s), k_cap);
  ++s.selections;
  return moore_hodgson_released_runs(s.runs, s.deadlines, workload.releases(), k_cap, s.select);
}

/// Materialize or released policy: one decision-form pass at `t_lim`,
/// emitting every selected task; returns the task count.
template <typename Kind, typename Emit>
std::size_t decide(Kind& kind, Time t_lim, const Workload& workload, std::size_t cap,
                   RunDriverScratch& s, Emit&& emit) {
  require_window(workload, t_lim);
  const std::size_t k_cap = std::min(cap, workload.count());
  kind.runs(t_lim, k_cap, nullptr);
  if (workload.has_release_dates()) {
    ++s.selections;
    const std::size_t selected = moore_hodgson_released_runs(
        s.runs, s.deadlines, workload.releases(), k_cap, s.select, &s.picked);
    replay_released(workload.releases(), s, emit);
    return selected;
  }
  const std::size_t selected = std::min(select(s), k_cap);
  trim_to_cap(k_cap, s);
  sequence(s, emit);
  return selected;
}

/// What a makespan search found.
struct SearchResult {
  Time horizon = 0;        ///< the minimal feasible horizon: the optimal makespan
  std::size_t probes = 0;  ///< count probes made — a deterministic work count
};

/// The identical makespan search: the minimal horizon at which the
/// decision form fits all `n` tasks, from `kind.lower_bound(n)` up to
/// `kind.ceiling(n)` (`min_feasible_horizon`).  Every probe is one
/// selection: a linear pass over a merge recorded at or above it, the
/// merge made first — at `merge_horizon` — when the probe lies above the
/// last one.  Every feasible probe lies below the previous ones, so the
/// counts kept from each (`s.kept`, at `s.kept_at`) are the selection at
/// the returned horizon, unless the search returned its unprobed ceiling
/// (`s.kept_at != horizon`).  The decision form is exact on identical
/// workloads and its schedule fits the minimal horizon, so the horizon is
/// the optimal makespan: a caller that needs no schedule stops here.
template <typename Kind>
SearchResult search(Kind& kind, std::size_t n, RunDriverScratch& s) {
  MST_REQUIRE(n >= 1, "schedule needs at least one task");
  // The ceiling goes first: it refuses an out-of-domain `n` before the
  // bound's arithmetic could overflow.
  const Time ceiling = kind.ceiling(n);
  const Time start = std::clamp<Time>(kind.lower_bound(n), 0, ceiling);
  s.kept_at = -1;
  s.merged_at = -1;
  SearchResult found;
  found.horizon = min_feasible_horizon(start, ceiling, [&](Time t) {
    ++found.probes;
    if (t > s.merged_at) {
      const Time merge_at = merge_horizon(t, start, ceiling);
      kind.count_runs(merge_at, n);
      record_merge(merge_at, s);
    }
    if (select_merged(t, s) < n) return false;
    std::swap(s.counts, s.kept);
    s.kept_at = t;
    return true;
  });
  return found;
}

/// Makespan form: emits an optimal schedule of the whole workload at the
/// minimal horizon of the monotone decision form and returns the number of
/// count probes the search made — a deterministic work count.
///
/// Identical workloads run `search`, then build each run's kept suffix at
/// the horizon — the kept counts are the per-run caps, so no node beyond
/// them is built — and trim and sequence it: no selection pass runs after
/// the search unless it returned its unprobed ceiling, where one pass
/// selects at the horizon first.  Released workloads search with
/// `min_released_horizon` and materialize with one released pass.
template <typename Kind, typename Emit>
std::size_t solve(Kind& kind, const Workload& workload, RunDriverScratch& s, Emit&& emit) {
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  const std::size_t n = workload.count();
  if (workload.has_release_dates()) {
    std::size_t probes = 0;
    const Time horizon = min_released_horizon(
        n, kind.ceiling(n), workload.last_release(),
        [&](std::size_t k) { return kind.lower_bound(k); },
        [&](Time t) {
          ++probes;
          return count(kind, t, workload, n, s) >= n;
        });
    decide(kind, horizon, workload, n, s, emit);
    return probes;
  }
  const SearchResult found = search(kind, n, s);
  if (s.kept_at != found.horizon) {
    // The unprobed ceiling: select there, by a pass when the last merge
    // reached it (merge-ahead stops at the ceiling).
    if (found.horizon <= s.merged_at) {
      select_merged(found.horizon, s);
    } else {
      kind.count_runs(found.horizon, n);
      select(s);
    }
    std::swap(s.counts, s.kept);
  }
  kind.runs(found.horizon, n, &s.kept);
  s.counts.assign(s.kept.begin(), s.kept.end());
  trim_to_cap(n, s);
  sequence(s, emit);
  return found.probes;
}

// mstlint: zero-alloc-end

}  // namespace run_select

}  // namespace mst
