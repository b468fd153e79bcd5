#include "mst/core/fork_scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "mst/common/assert.hpp"
#include "mst/core/bounds.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/search.hpp"
#include "mst/core/virtual_nodes.hpp"

namespace mst {

namespace {

/// All `n` tasks pipelined on the single best slave: a feasible horizon,
/// the ceiling of the makespan search.  It also states the fork's numeric
/// domain: every slave's pipeline `c + (n−1)·max(c, w) + w` is computed
/// overflow-checked and must stay below `kTimeInfinity` — the bound
/// `Chain::t_infinity` puts on each leg of this star's spider form — so an
/// out-of-domain fork is refused here, before any bound or probe arithmetic.
Time single_slave_horizon(const Fork& fork, std::size_t n) {
  Time best = kTimeInfinity;
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& s = fork.slave(i);
    Time t = 0;
    const bool overflow = __builtin_mul_overflow(n - 1, fork.cadence(i), &t) ||
                          __builtin_add_overflow(t, s.comm, &t) ||
                          __builtin_add_overflow(t, s.work, &t);
    MST_REQUIRE(!overflow && t < kTimeInfinity,
                "fork ceiling: every slave's pipeline c + (n-1)*max(c,w) + w must stay below "
                "kTimeInfinity");
    best = std::min(best, t);
  }
  return best;
}

void require_uniform_sizes(const Workload& workload) {
  MST_REQUIRE(workload.uniform_sizes(),
              "the virtual-node selection is only optimal for identical task sizes");
}

// Everything below runs warm-scratch only — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp and tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// The Fig 6 node set at `t_lim` as kernel runs: every slave is one run —
/// its virtual nodes `q = 0..k−1` (`k` capped at `cap`, and only nodes with
/// `exec + c <= t_lim`) have deadlines `t_lim − w − q·m`, listed here in
/// ascending order.  Node ids of the generic pipeline (`expand_fork`) are
/// slave-major, so the kernels' (deadline, rank) merge orders the nodes as
/// the generic EDD key does.
void build_runs(const Fork& fork, Time t_lim, std::size_t cap, ForkCountScratch& scratch) {
  scratch.deadlines.clear();
  scratch.runs.clear();
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& slave = fork.slave(i);
    const Time m = fork.cadence(i);
    std::size_t k = 0;
    if (slave.comm <= t_lim && slave.work <= t_lim - slave.comm) {
      const Time slack = t_lim - slave.comm - slave.work;  // room for q·m
      k = std::min(cap, static_cast<std::size_t>(slack / m) + 1);
    }
    const std::size_t begin = scratch.deadlines.size();
    for (std::size_t q = k; q-- > 0;) {
      scratch.deadlines.push_back(t_lim - slave.work - static_cast<Time>(q) * m);
    }
    scratch.runs.push_back(JobRun{slave.comm, begin, scratch.deadlines.size()});
  }
  ++scratch.selections;
}

/// One selection pass at `t_lim`: the run kernel over `build_runs`.
/// Leaves the per-slave counts in `scratch.counts` and returns their total.
std::size_t select_nodes(const Fork& fork, Time t_lim, std::size_t cap,
                         ForkCountScratch& scratch) {
  build_runs(fork, t_lim, cap, scratch);
  return moore_hodgson_runs(scratch.runs, scratch.deadlines, scratch.select, scratch.counts);
}

/// Global cap: the selection sees `cap` nodes per slave, so its total can
/// exceed `cap`; trim greedily from the slaves whose *next removed* node is
/// the hardest (largest exec) — removal never breaks feasibility.
void trim_to_cap(const Fork& fork, std::size_t cap, std::vector<std::size_t>& counts) {
  for (std::size_t total = std::accumulate(counts.begin(), counts.end(), std::size_t{0});
       total > cap; --total) {
    std::size_t worst = fork.size();
    Time worst_exec = -1;
    for (std::size_t i = 0; i < fork.size(); ++i) {
      if (counts[i] == 0) continue;
      const Time exec = fork.slave(i).work + static_cast<Time>(counts[i] - 1) * fork.cadence(i);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst = i;
      }
    }
    MST_ASSERT(worst < fork.size());
    --counts[worst];
  }
}

/// Realizes per-slave counts: slave `i` with count `k` uses its virtual
/// nodes of ranks `0..k−1` (Fig 6, the smallest-exec prefix — a pure
/// deadline relaxation of any selection with the same counts), emissions run
/// EDD back-to-back from 0 by (deadline, slave) — a total order, exec values
/// being distinct per slave (`w > 0`) — and executions queue FIFO per slave.
/// Calls `emit(slave, emission, start)` per task in emission order.
template <typename Emit>
void sequence(const Fork& fork, Time t_lim, const std::vector<std::size_t>& counts,
              ForkCountScratch& scratch, Emit&& emit) {
  scratch.seq.clear();
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& slave = fork.slave(i);
    for (std::size_t q = 0; q < counts[i]; ++q) {
      scratch.seq.emplace_back(t_lim - (slave.work + static_cast<Time>(q) * fork.cadence(i)), i);
    }
  }
  std::sort(scratch.seq.begin(), scratch.seq.end());
  scratch.slave_free.assign(fork.size(), 0);
  Time port = 0;
  for (const auto& [deadline, slave_index] : scratch.seq) {
    const Processor& slave = fork.slave(slave_index);
    const Time emission = port;
    port += slave.comm;
    MST_ASSERT(port <= deadline);
    const Time arrival = emission + slave.comm;
    const Time start = std::max(arrival, scratch.slave_free[slave_index]);
    scratch.slave_free[slave_index] = start + slave.work;
    MST_ASSERT(scratch.slave_free[slave_index] <= t_lim);
    emit(slave_index, emission, start);
  }
}

/// Rebuilds `out` in place from per-slave counts — `ForkTask` is trivially
/// destructible, so clear()+push_back never touches the heap within warm
/// capacity.
void realize_into(const Fork& fork, Time t_lim, const std::vector<std::size_t>& counts,
                  ForkCountScratch& scratch, ForkSchedule& out) {
  out.fork = fork;  // copy-assign reuses the slave buffer when warm
  out.tasks.clear();
  sequence(fork, t_lim, counts, scratch, [&](std::size_t slave, Time emission, Time start) {
    out.tasks.push_back(ForkTask{slave, emission, start});
  });
}

/// One released selection pass at `t_lim` of at most `k_cap` tasks: the
/// positional-release kernel's select policy over `build_runs`, replayed
/// in the kernel's own EDD sequence — position j's emission starts no
/// earlier than the port and the j-th smallest release date, and the DP
/// proved every completion meets its node's deadline.
/// (Re-sorting after a normalization swap is NOT safe under positional
/// releases — a job moved to a later position also inherits a later
/// release.)  Per slave, the chosen ranks arrive in descending order, so
/// the c-th arriving task has at least as many virtual slots behind it as
/// tasks actually follow — the standard Fig 6 induction still bounds every
/// completion by `t_lim`.  Calls `emit(slave, emission, start)` per task in
/// emission order and returns the task count.
template <typename Emit>
std::size_t replay_released(const Fork& fork, Time t_lim, const Workload& workload,
                            std::size_t k_cap, ForkCountScratch& scratch, Emit&& emit) {
  build_runs(fork, t_lim, k_cap, scratch);
  const std::size_t selected = moore_hodgson_released_runs(
      scratch.runs, scratch.deadlines, workload.releases(), k_cap, scratch.select, &scratch.picked);
  scratch.slave_free.assign(fork.size(), 0);
  Time port = 0;
  for (std::size_t position = 0; position < selected; ++position) {
    const std::size_t i = scratch.picked[position];
    const Processor& slave = fork.slave(i);
    const Time emission = std::max(port, workload.releases()[position]);
    port = emission + slave.comm;
    const Time start = std::max(port, scratch.slave_free[i]);
    scratch.slave_free[i] = start + slave.work;
    MST_ASSERT(scratch.slave_free[i] <= t_lim);
    emit(i, emission, start);
  }
  return selected;
}

/// One decision-form pass at `t_lim` over `workload` (capped at `cap`):
/// the run kernel, the cap trim and the EDD sequencing, or the released
/// kernel and its replay.  Calls `emit(slave, emission, start)` per task in
/// emission order and returns the task count.
template <typename Emit>
std::size_t decide(const Fork& fork, Time t_lim, const Workload& workload, std::size_t cap,
                   ForkCountScratch& scratch, Emit&& emit) {
  require_uniform_sizes(workload);
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  const std::size_t k_cap = std::min(cap, workload.count());
  if (workload.has_release_dates()) {
    return replay_released(fork, t_lim, workload, k_cap, scratch, emit);
  }
  const std::size_t selected = std::min(select_nodes(fork, t_lim, k_cap, scratch), k_cap);
  trim_to_cap(fork, k_cap, scratch.counts);
  sequence(fork, t_lim, scratch.counts, scratch, emit);
  return selected;
}

}  // namespace

std::size_t ForkScheduler::count_within(const Fork& fork, Time t_lim, std::size_t cap,
                                        ForkCountScratch& scratch) {
  return count_within(fork, t_lim, Workload::identical(cap), cap, scratch);
}

std::pair<std::size_t, Time> ForkScheduler::makespan_within(const Fork& fork, Time t_lim,
                                                            std::size_t cap,
                                                            ForkCountScratch& scratch) {
  return makespan_within(fork, t_lim, Workload::identical(cap), cap, scratch);
}

void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, std::size_t cap,
                                         ForkCountScratch& scratch, ForkSchedule& out) {
  schedule_within_into(fork, t_lim, Workload::identical(cap), cap, scratch, out);
}

std::size_t ForkScheduler::count_within(const Fork& fork, Time t_lim, const Workload& workload,
                                        std::size_t cap, ForkCountScratch& scratch) {
  require_uniform_sizes(workload);
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  const std::size_t k_cap = std::min(cap, workload.count());
  // The cap trim only ever reduces the total to `cap`, so `min` reproduces
  // the materialized count.
  if (!workload.has_release_dates()) {
    return std::min(select_nodes(fork, t_lim, k_cap, scratch), k_cap);
  }
  build_runs(fork, t_lim, k_cap, scratch);
  return moore_hodgson_released_runs(scratch.runs, scratch.deadlines, workload.releases(), k_cap,
                                     scratch.select);
}

std::pair<std::size_t, Time> ForkScheduler::makespan_within(const Fork& fork, Time t_lim,
                                                            const Workload& workload,
                                                            std::size_t cap,
                                                            ForkCountScratch& scratch) {
  Time makespan = 0;
  const std::size_t tasks =
      decide(fork, t_lim, workload, cap, scratch, [&](std::size_t slave, Time, Time start) {
        makespan = std::max(makespan, start + fork.slave(slave).work);
      });
  return {tasks, makespan};
}

void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, const Workload& workload,
                                         std::size_t cap, ForkCountScratch& scratch,
                                         ForkSchedule& out) {
  out.fork = fork;
  out.tasks.clear();
  decide(fork, t_lim, workload, cap, scratch, [&](std::size_t slave, Time emission, Time start) {
    out.tasks.push_back(ForkTask{slave, emission, start});
  });
}

std::size_t ForkScheduler::schedule_into(const Fork& fork, std::size_t n,
                                         ForkCountScratch& scratch, ForkSchedule& out) {
  MST_REQUIRE(n >= 1, "schedule needs at least one task");
  // Monotone predicate `count_within(t) >= n`, probed through the one warm
  // scratch, from the makespan lower bound up to the single-best-slave
  // horizon.  Every feasible probe lies below the previous ones, and the
  // search returns the last of them unless it returns the unprobed
  // ceiling, so keeping each feasible probe's counts leaves the returned
  // horizon's selection in `scratch.kept` — no second pass.
  const Time ceiling = single_slave_horizon(fork, n);
  std::size_t probes = 0;
  Time kept = -1;
  const Time horizon = min_feasible_horizon(
      fork_makespan_lower_bound(fork, n, scratch.bound), ceiling, [&](Time t) {
        ++probes;
        if (count_within(fork, t, n, scratch) < n) return false;
        std::swap(scratch.counts, scratch.kept);
        kept = t;
        return true;
      });
  if (kept == horizon) {
    std::swap(scratch.counts, scratch.kept);
  } else {
    select_nodes(fork, horizon, n, scratch);
  }
  trim_to_cap(fork, n, scratch.counts);
  realize_into(fork, horizon, scratch.counts, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  return probes;
}

std::size_t ForkScheduler::schedule_into(const Fork& fork, const Workload& workload,
                                         ForkCountScratch& scratch, ForkSchedule& out) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  const std::size_t n = workload.count();
  if (!workload.has_release_dates()) return schedule_into(fork, n, scratch, out);

  // Minimal horizon: the single-best-slave pipeline shifted past the last
  // release is always feasible, so the ceiling holds.  The floor adds the
  // release term: the last emission cannot start before the last release,
  // and that task alone still needs a one-task makespan.
  const Time ceiling = released_ceiling(single_slave_horizon(fork, n), workload.last_release());
  const Time lower = std::max(
      fork_makespan_lower_bound(fork, n, scratch.bound),
      workload.last_release() + fork_makespan_lower_bound(fork, 1, scratch.bound));
  std::size_t probes = 0;
  const Time horizon = min_feasible_horizon(lower, ceiling, [&](Time t) {
    ++probes;
    return count_within(fork, t, workload, n, scratch) >= n;
  });
  schedule_within_into(fork, horizon, workload, n, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  return probes;
}
// mstlint: zero-alloc-end

ForkSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim, std::size_t cap) {
  ForkCountScratch scratch;
  ForkSchedule out;
  schedule_within_into(fork, t_lim, cap, scratch, out);
  return out;
}

std::size_t ForkScheduler::max_tasks(const Fork& fork, Time t_lim, std::size_t cap) {
  ForkCountScratch scratch;
  return count_within(fork, t_lim, cap, scratch);
}

ForkSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim,
                                            const Workload& workload, std::size_t cap) {
  ForkCountScratch scratch;
  ForkSchedule out;
  schedule_within_into(fork, t_lim, workload, cap, scratch, out);
  return out;
}

ForkSchedule ForkScheduler::schedule(const Fork& fork, const Workload& workload) {
  ForkCountScratch scratch;
  ForkSchedule out;
  schedule_into(fork, workload, scratch, out);
  return out;
}

ForkSchedule ForkScheduler::schedule(const Fork& fork, std::size_t n) {
  ForkCountScratch scratch;
  ForkSchedule result;
  schedule_into(fork, n, scratch, result);
  return result;
}

Time ForkScheduler::makespan(const Fork& fork, std::size_t n) {
  return schedule(fork, n).makespan();
}

namespace {

/// Shared engine for the §6 greedy: returns the per-slave counts it
/// selects.
std::vector<std::size_t> greedy_counts(const Fork& fork, Time t_lim, std::size_t cap) {
  // §6: processors sorted by ascending communication times, ties broken by
  // ascending processing times.
  std::vector<std::size_t> order(fork.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Processor& pa = fork.slave(a);
    const Processor& pb = fork.slave(b);
    if (pa.comm != pb.comm) return pa.comm < pb.comm;
    if (pa.work != pb.work) return pa.work < pb.work;
    return a < b;
  });

  std::vector<std::size_t> counts(fork.size(), 0);
  std::vector<DeadlineJob> selected;
  std::size_t total = 0;
  for (std::size_t i : order) {
    const auto nodes = expand_fork_slave(fork.slave(i), i, t_lim, cap);
    for (const VirtualNode& node : nodes) {
      if (total >= cap) return counts;
      std::vector<DeadlineJob> trial = selected;
      trial.push_back({node.comm, node.deadline(t_lim), total});
      if (!edd_feasible(trial)) break;  // rank q failed; rank q+1 is strictly harder
      selected = std::move(trial);
      ++counts[i];
      ++total;
    }
  }
  return counts;
}

}  // namespace

std::size_t ForkScheduler::greedy_max_tasks(const Fork& fork, Time t_lim, std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  std::size_t total = 0;
  for (std::size_t c : greedy_counts(fork, t_lim, cap)) total += c;
  return total;
}

ForkSchedule ForkScheduler::greedy_schedule_within(const Fork& fork, Time t_lim,
                                                   std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  ForkCountScratch scratch;
  ForkSchedule out;
  realize_into(fork, t_lim, greedy_counts(fork, t_lim, cap), scratch, out);
  return out;
}

}  // namespace mst
