#include "mst/core/fork_scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "mst/common/assert.hpp"
#include "mst/core/bounds.hpp"
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

// Everything below runs warm-scratch only — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp and tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// The fork kind of the run-selection driver.  Its runs are the Fig 6 node
/// set at `t_lim`: every slave is one run — its virtual nodes `q = 0..k−1`
/// (`k` capped at `cap`, and only nodes with `exec + c <= t_lim`) have
/// deadlines `t_lim − w − q·m`, listed in ascending order.  Node ids of the
/// generic pipeline (`expand_fork`) are slave-major, so the kernels'
/// (deadline, rank) merge orders the nodes as the generic EDD key does.
struct ForkRuns {
  const Fork& fork;
  ForkCountScratch& scratch;

  Time ceiling(std::size_t n) const { return single_slave_horizon(fork, n); }
  Time lower_bound(std::size_t n) const {
    return fork_makespan_lower_bound(fork, n, scratch.bound);
  }
  void count_runs(Time t_lim, std::size_t cap) const { runs(t_lim, cap, nullptr); }
  void runs(Time t_lim, std::size_t cap, const std::vector<std::size_t>* run_caps) const {
    scratch.deadlines.clear();
    scratch.runs.clear();
    for (std::size_t i = 0; i < fork.size(); ++i) {
      const Processor& slave = fork.slave(i);
      const Time m = fork.cadence(i);
      const std::size_t slave_cap = run_caps != nullptr ? std::min(cap, (*run_caps)[i]) : cap;
      std::size_t k = 0;
      if (slave.comm <= t_lim && slave.work <= t_lim - slave.comm) {
        const Time slack = t_lim - slave.comm - slave.work;  // room for q·m
        k = std::min(slave_cap, static_cast<std::size_t>(slack / m) + 1);
      }
      const std::size_t begin = scratch.deadlines.size();
      for (std::size_t q = k; q-- > 0;) {
        scratch.deadlines.push_back(t_lim - slave.work - static_cast<Time>(q) * m);
      }
      scratch.runs.push_back(JobRun{slave.comm, begin, scratch.deadlines.size()});
    }
  }
};

/// The Fig 6 realization of the driver's emissions: each slave runs its
/// tasks FIFO, a task starting once it has arrived and the slave is free —
/// by induction over the slave's kept nodes (consecutive deadlines `m >= w`
/// apart), no later than its node's deadline.  Calls
/// `sink(slave, emission, start)` per task.
template <typename Sink>
auto fifo(const Fork& fork, ForkCountScratch& scratch, Sink sink) {
  scratch.slave_free.assign(fork.size(), 0);
  return [&fork, &scratch, sink](std::size_t i, std::size_t node, Time emission) mutable {
    const Processor& slave = fork.slave(i);
    const Time start = std::max(emission + slave.comm, scratch.slave_free[i]);
    MST_ASSERT(start <= scratch.deadlines[scratch.runs[i].begin + node]);
    scratch.slave_free[i] = start + slave.work;
    sink(i, emission, start);
  };
}

/// Rebuilds `out` in place — `ForkTask` is trivially destructible, so
/// clear()+push_back never touches the heap within warm capacity.
auto into(const Fork& fork, ForkCountScratch& scratch, ForkSchedule& out) {
  out.fork = fork;  // copy-assign reuses the slave buffer when warm
  out.tasks.clear();
  return fifo(fork, scratch, [&out](std::size_t slave, Time emission, Time start) {
    out.tasks.push_back(ForkTask{slave, emission, start});
  });
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
  ForkRuns kind{fork, scratch};
  return run_select::count(kind, t_lim, workload, cap, scratch);
}

std::pair<std::size_t, Time> ForkScheduler::makespan_within(const Fork& fork, Time t_lim,
                                                            const Workload& workload,
                                                            std::size_t cap,
                                                            ForkCountScratch& scratch) {
  ForkRuns kind{fork, scratch};
  Time makespan = 0;
  const std::size_t tasks = run_select::decide(
      kind, t_lim, workload, cap, scratch,
      fifo(fork, scratch, [&](std::size_t slave, Time, Time start) {
        makespan = std::max(makespan, start + fork.slave(slave).work);
      }));
  return {tasks, makespan};
}

void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, const Workload& workload,
                                         std::size_t cap, ForkCountScratch& scratch,
                                         ForkSchedule& out) {
  ForkRuns kind{fork, scratch};
  run_select::decide(kind, t_lim, workload, cap, scratch, into(fork, scratch, out));
}

std::size_t ForkScheduler::schedule_into(const Fork& fork, std::size_t n,
                                         ForkCountScratch& scratch, ForkSchedule& out) {
  return schedule_into(fork, Workload::identical(n), scratch, out);
}

run_select::SearchResult ForkScheduler::makespan(const Fork& fork, std::size_t n,
                                                 ForkCountScratch& scratch) {
  ForkRuns kind{fork, scratch};
  return run_select::search(kind, n, scratch);
}

std::size_t ForkScheduler::schedule_into(const Fork& fork, const Workload& workload,
                                         ForkCountScratch& scratch, ForkSchedule& out) {
  ForkRuns kind{fork, scratch};
  const std::size_t probes =
      run_select::solve(kind, workload, scratch, into(fork, scratch, out));
  MST_ASSERT(out.tasks.size() == workload.count());
  return probes;
}
// mstlint: zero-alloc-end

ForkSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim, std::size_t cap) {
  return on_fresh_scratch<ForkCountScratch, ForkSchedule>(
      [&](auto& scratch, auto& out) { schedule_within_into(fork, t_lim, cap, scratch, out); });
}

std::size_t ForkScheduler::max_tasks(const Fork& fork, Time t_lim, std::size_t cap) {
  ForkCountScratch scratch;
  return count_within(fork, t_lim, cap, scratch);
}

ForkSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim,
                                            const Workload& workload, std::size_t cap) {
  return on_fresh_scratch<ForkCountScratch, ForkSchedule>([&](auto& scratch, auto& out) {
    schedule_within_into(fork, t_lim, workload, cap, scratch, out);
  });
}

ForkSchedule ForkScheduler::schedule(const Fork& fork, const Workload& workload) {
  return on_fresh_scratch<ForkCountScratch, ForkSchedule>(
      [&](auto& scratch, auto& out) { schedule_into(fork, workload, scratch, out); });
}

ForkSchedule ForkScheduler::schedule(const Fork& fork, std::size_t n) {
  return on_fresh_scratch<ForkCountScratch, ForkSchedule>(
      [&](auto& scratch, auto& out) { schedule_into(fork, n, scratch, out); });
}

Time ForkScheduler::makespan(const Fork& fork, std::size_t n) {
  ForkCountScratch scratch;
  return makespan(fork, n, scratch).horizon;
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
  return on_fresh_scratch<ForkCountScratch, ForkSchedule>([&](auto& scratch, auto& out) {
    ForkRuns{fork, scratch}.runs(t_lim, cap, nullptr);
    scratch.counts = greedy_counts(fork, t_lim, cap);
    run_select::sequence(scratch, into(fork, scratch, out));
  });
}

}  // namespace mst
