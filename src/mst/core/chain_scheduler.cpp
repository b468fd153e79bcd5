#include "mst/core/chain_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "mst/common/assert.hpp"
#include "mst/core/bounds.hpp"
#include "mst/core/search.hpp"

namespace mst {

namespace {

/// The backward construction of Fig 3: the one kernel behind every entry
/// point of this file.  It places at most `max_tasks` tasks backward from
/// `horizon` — stopping early, if `stop_on_negative`, before a task whose
/// first emission would be negative — and hands each one to
/// `commit(dest, start, emissions, length)` in construction order (latest
/// task first).  `emissions` points into the scratch and is only valid
/// during the call.  Returns the number of tasks placed.
///
/// The state is kept in the prefix-sum form of chain_scheduler.hpp: per
/// link `a_j = h_j − C_{j+1}`, per processor `b_k = o_k − w_k − C_{k+1}`.
/// Statically allocation-checked; the dynamic twins are
/// tests/test_counting.cpp and tests/test_zero_alloc.cpp.
// mstlint: zero-alloc
template <typename Commit>
std::size_t backward(const Chain& chain, Time horizon, std::size_t max_tasks,
                     bool stop_on_negative, ChainCountScratch& scratch, Commit&& commit) {
  const std::size_t p = chain.size();
  scratch.prefix.resize(p + 1);
  scratch.link.resize(p);
  scratch.proc.resize(p);
  scratch.best.resize(p);
  Time* const prefix = scratch.prefix.data();
  Time* const link = scratch.link.data();
  Time* const proc = scratch.proc.data();
  Time* const best = scratch.best.data();

  // Nothing is scheduled yet: every hull and occupancy sits at the horizon.
  prefix[0] = 0;
  for (std::size_t j = 0; j < p; ++j) {
    MST_REQUIRE(chain.comm(j) < kTimeInfinity - prefix[j],
                "the chain's total latency must stay below kTimeInfinity");
    MST_REQUIRE(chain.work(j) < kTimeInfinity, "w_i must stay below kTimeInfinity");
    prefix[j + 1] = prefix[j] + chain.comm(j);
    link[j] = horizon - prefix[j + 1];
    proc[j] = link[j] - chain.work(j);
  }

  constexpr Time kOpen = std::numeric_limits<Time>::max();
  std::size_t placed = 0;
  while (placed < max_tasks) {
    // Destination: the Definition 3 maximum, by one ascending scan.  `gap`
    // is min a over (dest, k]; once it or a_dest falls to b_dest, no
    // farther processor can win.
    std::size_t dest = 0;
    Time gap = kOpen;
    for (std::size_t k = 1; k < p && link[dest] > proc[dest] && gap > proc[dest]; ++k) {
      gap = std::min(gap, link[k]);
      if (proc[dest] < std::min(gap, proc[k])) {
        dest = k;
        gap = kOpen;
      }
    }

    // Build only the winner, kC_j = C_j + min(b_dest, min a_{j..dest}), and
    // lower the hulls it crosses to it on the way (a stop below discards
    // the state anyway).
    Time run = proc[dest];
    for (std::size_t j = dest + 1; j-- > 0;) {
      run = std::min(run, link[j]);
      best[j] = prefix[j] + run;
      link[j] = best[j] - prefix[j + 1];
    }

    // Decision form: no further task fits in the window.  The entries grow
    // along the vector (c_j >= 0), so the first one decides.
    if (stop_on_negative && best[0] < 0) break;

    // Execute as late as the destination allows: start = o_dest − w_dest.
    const Time start = proc[dest] + prefix[dest + 1];
    proc[dest] -= chain.work(dest);
    commit(dest, start, best, dest + 1);
    ++placed;
  }
  return placed;
}

/// Materializing policy: each task goes into a recycled slot of `out.tasks`,
/// whose emission vectors keep their warm capacity across rebuilds.
void build_into(const Chain& chain, Time horizon, std::size_t max_tasks, bool stop_on_negative,
                ChainCountScratch& scratch, ChainSchedule& out) {
  out.chain = chain;  // copy-assign reuses the processor buffer when warm
  std::size_t used = 0;
  backward(chain, horizon, max_tasks, stop_on_negative, scratch,
           [&](std::size_t dest, Time start, const Time* emissions, std::size_t length) {
             if (used == out.tasks.size()) out.tasks.emplace_back();
             ChainTask& task = out.tasks[used++];
             task.proc = dest;
             task.start = start;
             task.emissions.assign(emissions, emissions + length);
           });
  out.tasks.resize(used);
  std::reverse(out.tasks.begin(), out.tasks.end());
}
// mstlint: zero-alloc-end

/// Largest k such that the k latest backward emissions dominate the k
/// earliest release dates: `emissions[j] >= releases[k-1-j]` for all `j < k`
/// (`emissions` in construction order, latest first; `releases` sorted
/// ascending).  Feasible(k) implies feasible(k-1) — the matched release of
/// every emission only gets smaller — so binary search is exact.
std::size_t max_released_count(const std::vector<Time>& emissions,
                               const std::vector<Time>& releases) {
  const auto feasible = [&](std::size_t k) {
    for (std::size_t j = 0; j < k; ++j) {
      if (emissions[j] < releases[k - 1 - j]) return false;
    }
    return true;
  };
  std::size_t lo = 0;
  std::size_t hi = emissions.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (feasible(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

void require_uniform_sizes(const Workload& workload) {
  MST_REQUIRE(workload.uniform_sizes(),
              "the backward construction is only optimal for identical task sizes");
}

}  // namespace

ChainSchedule ChainScheduler::build_backward(const Chain& chain, Time horizon,
                                             std::size_t max_tasks, bool stop_on_negative) {
  ChainCountScratch scratch;
  ChainSchedule out;
  build_into(chain, horizon, max_tasks, stop_on_negative, scratch, out);
  return out;
}

void ChainScheduler::schedule_into(const Chain& chain, std::size_t n,
                                   ChainCountScratch& scratch, ChainSchedule& out) {
  MST_REQUIRE(n >= 1, "schedule needs at least one task");
  build_into(chain, chain.t_infinity(n), n, /*stop_on_negative=*/false, scratch, out);
  MST_ASSERT(out.tasks.size() == n);

  // The paper's final normalization: shift by -C^1_1 so the schedule starts
  // at time 0.  The first emission is never negative — the all-on-first-
  // processor schedule fits in [0, T∞] by construction of T∞ and the greedy
  // only ever picks vectors that are at least as late.
  const Time first_emission = out.tasks.front().emissions.front();
  MST_ASSERT(first_emission >= 0);
  out.shift(-first_emission);
}

ChainSchedule ChainScheduler::schedule(const Chain& chain, std::size_t n) {
  ChainCountScratch scratch;
  ChainSchedule out;
  schedule_into(chain, n, scratch, out);
  return out;
}

Time ChainScheduler::makespan(const Chain& chain, std::size_t n) {
  return schedule(chain, n).makespan();
}

void ChainScheduler::schedule_within_into(const Chain& chain, Time t_lim, std::size_t max_tasks,
                                          ChainCountScratch& scratch, ChainSchedule& out) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  build_into(chain, t_lim, max_tasks, /*stop_on_negative=*/true, scratch, out);
}

ChainSchedule ChainScheduler::schedule_within(const Chain& chain, Time t_lim,
                                              std::size_t max_tasks) {
  ChainCountScratch scratch;
  ChainSchedule out;
  schedule_within_into(chain, t_lim, max_tasks, scratch, out);
  return out;
}

std::size_t ChainScheduler::count_within(const Chain& chain, Time t_lim, std::size_t cap,
                                         ChainCountScratch& scratch) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  return backward(chain, t_lim, cap, /*stop_on_negative=*/true, scratch,
                  [](std::size_t, Time, const Time*, std::size_t) {});
}

std::size_t ChainScheduler::count_within_emissions(const Chain& chain, Time t_lim,
                                                   std::size_t cap, ChainCountScratch& scratch,
                                                   std::vector<Time>& first_emissions) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  return backward(chain, t_lim, cap, /*stop_on_negative=*/true, scratch,
                  [&](std::size_t, Time, const Time* emissions, std::size_t) {
                    first_emissions.push_back(emissions[0]);
                  });
}

std::size_t ChainScheduler::max_tasks(const Chain& chain, Time t_lim, std::size_t cap) {
  ChainCountScratch scratch;
  return count_within(chain, t_lim, cap, scratch);
}

std::size_t ChainScheduler::count_within(const Chain& chain, Time t_lim,
                                         const Workload& workload, std::size_t cap,
                                         ChainCountScratch& scratch) {
  require_uniform_sizes(workload);
  const std::size_t k_cap = std::min(cap, workload.count());
  if (!workload.has_release_dates()) return count_within(chain, t_lim, k_cap, scratch);
  scratch.emissions.clear();
  count_within_emissions(chain, t_lim, k_cap, scratch, scratch.emissions);
  return max_released_count(scratch.emissions, workload.releases());
}

void ChainScheduler::schedule_within_into(const Chain& chain, Time t_lim,
                                          const Workload& workload, std::size_t cap,
                                          ChainCountScratch& scratch, ChainSchedule& out) {
  require_uniform_sizes(workload);
  // The k-task backward build is the prefix of the counting construction, so
  // its emissions are exactly the ones the count proved release-feasible.
  const std::size_t k = workload.has_release_dates()
                            ? count_within(chain, t_lim, workload, cap, scratch)
                            : std::min(cap, workload.count());
  schedule_within_into(chain, t_lim, k, scratch, out);
}

ChainSchedule ChainScheduler::schedule_within(const Chain& chain, Time t_lim,
                                              const Workload& workload, std::size_t cap) {
  ChainCountScratch scratch;
  ChainSchedule out;
  schedule_within_into(chain, t_lim, workload, cap, scratch, out);
  return out;
}

void ChainScheduler::schedule_into(const Chain& chain, const Workload& workload,
                                   ChainCountScratch& scratch, ChainSchedule& out) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  const std::size_t n = workload.count();
  if (!workload.has_release_dates()) return schedule_into(chain, n, scratch, out);

  // Minimal horizon admitting all n tasks: the all-on-first-processor
  // schedule shifted past the last release always fits, and monotonicity of
  // the count in the horizon makes the search exact.
  const Time horizon = min_released_horizon(
      n, chain.t_infinity(n), workload.last_release(),
      [&](std::size_t k) { return chain_makespan_lower_bound(chain, k); },
      [&](Time t) { return count_within(chain, t, workload, n, scratch) >= n; });
  schedule_within_into(chain, horizon, workload, n, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  // No -C^1_1 shift: release dates are absolute, the window is the schedule.
}

ChainSchedule ChainScheduler::schedule(const Chain& chain, const Workload& workload) {
  ChainCountScratch scratch;
  ChainSchedule out;
  schedule_into(chain, workload, scratch, out);
  return out;
}

}  // namespace mst
