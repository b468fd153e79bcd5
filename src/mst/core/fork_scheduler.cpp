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

/// Realize a per-slave task-count vector as an actual fork schedule: slave
/// `i` with count `k` uses its virtual nodes of ranks `0..k-1` (Fig 6),
/// emissions run EDD back-to-back from 0, executions queue FIFO per slave.
ForkSchedule realize(const Fork& fork, Time t_lim, const std::vector<std::size_t>& counts) {
  struct Pending {
    std::size_t slave;
    Time deadline;  // emission completion deadline: t_lim - exec
  };
  std::vector<Pending> pending;
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const auto nodes = expand_fork_slave(fork.slave(i), i, t_lim, counts[i]);
    MST_ASSERT(nodes.size() == counts[i]);
    for (const VirtualNode& node : nodes) pending.push_back({i, node.deadline(t_lim)});
  }
  std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.slave < b.slave;
  });

  ForkSchedule schedule{fork, {}};
  std::vector<Time> slave_free(fork.size(), 0);
  Time port = 0;
  for (const Pending& item : pending) {
    const Processor& slave = fork.slave(item.slave);
    const Time emission = port;
    port += slave.comm;
    MST_ASSERT(port <= item.deadline);
    const Time arrival = emission + slave.comm;
    const Time start = std::max(arrival, slave_free[item.slave]);
    slave_free[item.slave] = start + slave.work;
    MST_ASSERT(slave_free[item.slave] <= t_lim);
    schedule.tasks.push_back(ForkTask{item.slave, emission, start});
  }
  return schedule;
}

}  // namespace

ForkSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim, std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  const std::vector<VirtualNode> nodes = expand_fork(fork, t_lim, cap);

  // Optimal node selection on the master port.
  std::vector<DeadlineJob> jobs;
  jobs.reserve(nodes.size());
  for (std::size_t idx = 0; idx < nodes.size(); ++idx) {
    jobs.push_back({nodes[idx].comm, nodes[idx].deadline(t_lim), idx});
  }
  std::vector<std::size_t> picked = moore_hodgson(std::move(jobs));

  // Normalize per slave to the smallest-exec prefix; only counts matter.
  std::vector<std::size_t> counts(fork.size(), 0);
  for (std::size_t idx : picked) ++counts[nodes[idx].source];

  // Global cap: Moore–Hodgson sees `cap` nodes per slave, so the total can
  // exceed `cap`; trim greedily from the slaves whose *next removed* node is
  // the hardest (largest exec) — removal never breaks feasibility.
  std::size_t total = std::accumulate(counts.begin(), counts.end(), std::size_t{0});
  while (total > cap) {
    std::size_t worst = fork.size();
    Time worst_exec = -1;
    for (std::size_t i = 0; i < fork.size(); ++i) {
      if (counts[i] == 0) continue;
      const Time exec =
          fork.slave(i).work + static_cast<Time>(counts[i] - 1) * fork.cadence(i);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst = i;
      }
    }
    MST_ASSERT(worst < fork.size());
    --counts[worst];
    --total;
  }

  return realize(fork, t_lim, counts);
}

std::size_t ForkScheduler::max_tasks(const Fork& fork, Time t_lim, std::size_t cap) {
  ForkCountScratch scratch;
  return count_within(fork, t_lim, cap, scratch);
}

namespace {

/// Appends the Fig 6 virtual nodes of every slave to `jobs` without
/// materializing per-slave vectors (same node set as `expand_fork`, ids in
/// the same order).  The counting paths below run warm-scratch only —
/// statically allocation-checked (dynamic twin: tests/test_counting.cpp).
// mstlint: zero-alloc
void append_fork_jobs(const Fork& fork, Time t_lim, std::size_t max_per_slave,
                      std::vector<DeadlineJob>& jobs) {
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& slave = fork.slave(i);
    const Time m = std::max(slave.comm, slave.work);
    for (std::size_t q = 0; q < max_per_slave; ++q) {
      const Time exec = slave.work + static_cast<Time>(q) * m;
      if (exec + slave.comm > t_lim) break;  // could never complete in the window
      jobs.push_back(DeadlineJob{slave.comm, t_lim - exec, jobs.size()});
    }
  }
}

/// All `n` tasks pipelined on the single best slave: a feasible horizon,
/// the ceiling of the makespan search.
Time single_slave_horizon(const Fork& fork, std::size_t n) {
  Time best = kTimeInfinity;
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& s = fork.slave(i);
    best = std::min(best, s.comm + static_cast<Time>(n - 1) * fork.cadence(i) + s.work);
  }
  return best;
}

void require_uniform_sizes(const Workload& workload) {
  MST_REQUIRE(workload.uniform_sizes(),
              "the virtual-node selection is only optimal for identical task sizes");
}

}  // namespace

std::size_t ForkScheduler::count_within(const Fork& fork, Time t_lim, std::size_t cap,
                                        ForkCountScratch& scratch) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  // The counting twin of `schedule_within`: identical node set, count-only
  // selection, and the same global cap (Moore–Hodgson sees up to `cap`
  // nodes per slave, so the picked total may exceed it; the materializing
  // path trims — which only ever reduces the total to `cap` — so `min`
  // reproduces it).
  scratch.jobs.clear();
  append_fork_jobs(fork, t_lim, cap, scratch.jobs);
  return std::min(moore_hodgson_count(scratch.jobs, scratch.heap), cap);
}

std::pair<std::size_t, Time> ForkScheduler::makespan_within(const Fork& fork, Time t_lim,
                                                            std::size_t cap,
                                                            ForkCountScratch& scratch) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  // (1) Node instance with an id → slave map.
  scratch.jobs.clear();
  scratch.slave_of.clear();
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& slave = fork.slave(i);
    const Time m = std::max(slave.comm, slave.work);
    for (std::size_t q = 0; q < cap; ++q) {
      const Time exec = slave.work + static_cast<Time>(q) * m;
      if (exec + slave.comm > t_lim) break;
      scratch.jobs.push_back(DeadlineJob{slave.comm, t_lim - exec, scratch.jobs.size()});
      scratch.slave_of.push_back(i);
    }
  }

  // (2) Moore–Hodgson with identities, mirroring `moore_hodgson` exactly:
  // EDD order (deadline, proc_time, id) and eviction of the max (proc, id).
  std::sort(scratch.jobs.begin(), scratch.jobs.end(),
            [](const DeadlineJob& a, const DeadlineJob& b) {
              if (a.deadline != b.deadline) return a.deadline < b.deadline;
              if (a.proc_time != b.proc_time) return a.proc_time < b.proc_time;
              return a.id < b.id;
            });
  scratch.sel_heap.clear();
  Time total = 0;
  for (const DeadlineJob& job : scratch.jobs) {
    scratch.sel_heap.emplace_back(job.proc_time, job.id);
    std::push_heap(scratch.sel_heap.begin(), scratch.sel_heap.end());
    total += job.proc_time;
    if (total > job.deadline) {
      std::pop_heap(scratch.sel_heap.begin(), scratch.sel_heap.end());
      total -= scratch.sel_heap.back().first;
      scratch.sel_heap.pop_back();
    }
  }

  // (3) Per-slave counts (the prefix normalization is count-preserving) and
  // the same global-cap trim as `schedule_within`.
  scratch.counts.assign(fork.size(), 0);
  for (const auto& [comm, id] : scratch.sel_heap) ++scratch.counts[scratch.slave_of[id]];
  std::size_t selected = scratch.sel_heap.size();
  while (selected > cap) {
    std::size_t worst = fork.size();
    Time worst_exec = -1;
    for (std::size_t i = 0; i < fork.size(); ++i) {
      if (scratch.counts[i] == 0) continue;
      const Time exec =
          fork.slave(i).work + static_cast<Time>(scratch.counts[i] - 1) * fork.cadence(i);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst = i;
      }
    }
    MST_ASSERT(worst < fork.size());
    --scratch.counts[worst];
    --selected;
  }

  // (4) The EDD port sequencing of `realize`, makespan only.
  scratch.seq.clear();
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& slave = fork.slave(i);
    const Time m = std::max(slave.comm, slave.work);
    for (std::size_t q = 0; q < scratch.counts[i]; ++q) {
      scratch.seq.emplace_back(t_lim - (slave.work + static_cast<Time>(q) * m), i);
    }
  }
  std::sort(scratch.seq.begin(), scratch.seq.end());
  scratch.slave_free.assign(fork.size(), 0);
  Time port = 0;
  Time makespan = 0;
  for (const auto& [deadline, slave_index] : scratch.seq) {
    const Processor& slave = fork.slave(slave_index);
    const Time emission = port;
    port += slave.comm;
    MST_ASSERT(port <= deadline);
    const Time arrival = emission + slave.comm;
    const Time start = std::max(arrival, scratch.slave_free[slave_index]);
    scratch.slave_free[slave_index] = start + slave.work;
    MST_ASSERT(scratch.slave_free[slave_index] <= t_lim);
    makespan = std::max(makespan, scratch.slave_free[slave_index]);
  }
  return {selected, makespan};
}

std::size_t ForkScheduler::count_within(const Fork& fork, Time t_lim, const Workload& workload,
                                        std::size_t cap, ForkCountScratch& scratch) {
  require_uniform_sizes(workload);
  const std::size_t k_cap = std::min(cap, workload.count());
  if (!workload.has_release_dates()) return count_within(fork, t_lim, k_cap, scratch);
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  scratch.jobs.clear();
  append_fork_jobs(fork, t_lim, k_cap, scratch.jobs);
  return moore_hodgson_released_count(scratch.jobs, workload.releases(), k_cap, scratch.dp);
}
// mstlint: zero-alloc-end

ForkSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim,
                                            const Workload& workload, std::size_t cap) {
  require_uniform_sizes(workload);
  if (!workload.has_release_dates()) {
    return schedule_within(fork, t_lim, std::min(cap, workload.count()));
  }
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  const std::size_t k_cap = std::min(cap, workload.count());
  const std::vector<VirtualNode> nodes = expand_fork(fork, t_lim, k_cap);
  std::vector<DeadlineJob> jobs;
  jobs.reserve(nodes.size());
  for (std::size_t idx = 0; idx < nodes.size(); ++idx) {
    jobs.push_back({nodes[idx].comm, nodes[idx].deadline(t_lim), idx});
  }
  const std::vector<std::size_t> picked =
      moore_hodgson_released(std::move(jobs), workload.releases(), k_cap);

  // Replay the DP's own EDD sequence: position j's emission starts no
  // earlier than the j-th smallest release date, and the DP proved every
  // completion meets its chosen node's deadline.  (Re-sorting after a
  // normalization swap is NOT safe under positional releases — a job moved
  // to a later position also inherits a later release.)  Per slave, the
  // chosen ranks arrive in descending order, so the c-th arriving task has
  // at least as many virtual slots behind it as tasks actually follow —
  // the standard Fig 6 induction still bounds every completion by `t_lim`.
  const std::vector<Time>& releases = workload.releases();
  ForkSchedule schedule{fork, {}};
  std::vector<Time> slave_free(fork.size(), 0);
  Time port = 0;
  for (std::size_t position = 0; position < picked.size(); ++position) {
    const VirtualNode& node = nodes[picked[position]];
    const Processor& slave = fork.slave(node.source);
    const Time emission = std::max(port, releases[position]);
    port = emission + slave.comm;
    MST_ASSERT(port <= node.deadline(t_lim));
    const Time arrival = emission + slave.comm;
    const Time start = std::max(arrival, slave_free[node.source]);
    slave_free[node.source] = start + slave.work;
    MST_ASSERT(slave_free[node.source] <= t_lim);
    schedule.tasks.push_back(ForkTask{node.source, emission, start});
  }
  return schedule;
}

ForkSchedule ForkScheduler::schedule(const Fork& fork, const Workload& workload) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  const std::size_t n = workload.count();
  if (!workload.has_release_dates()) return schedule(fork, n);

  // Minimal horizon: the single-best-slave pipeline shifted past the last
  // release is always feasible, so the ceiling holds.  The floor adds the
  // release term: the last emission cannot start before the last release,
  // and that task alone still needs a one-task makespan.
  const Time ceiling = single_slave_horizon(fork, n) + workload.last_release();
  ForkCountScratch scratch;
  const Time lower = std::max(
      fork_makespan_lower_bound(fork, n, scratch.bound),
      workload.last_release() + fork_makespan_lower_bound(fork, 1, scratch.bound));
  const Time horizon = min_feasible_horizon(
      lower, ceiling, [&](Time t) { return count_within(fork, t, workload, n, scratch) >= n; });
  ForkSchedule result = schedule_within(fork, horizon, workload, n);
  MST_ASSERT(result.tasks.size() == n);
  return result;
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

// Scratch-reusing materialization.  Steps (1)–(3) are the `makespan_within`
// pipeline verbatim (same selection, same trim); step (4) rebuilds
// `out.tasks` in place — `ForkTask` is trivially destructible, so
// clear()+push_back never touches the heap within warm capacity.  Equality
// with `schedule_within` holds because `realize`'s pending list is the same
// (deadline, slave) multiset as `scratch.seq` — per slave the ranks
// `0..counts-1` with deadline `t_lim - exec` — sorted by the same key, and
// exec values are distinct per slave (work > 0), so the order is total.
// mstlint: zero-alloc
void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, std::size_t cap,
                                         ForkCountScratch& scratch, ForkSchedule& out) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  // (1) Node instance with an id → slave map.
  scratch.jobs.clear();
  scratch.slave_of.clear();
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& slave = fork.slave(i);
    const Time m = std::max(slave.comm, slave.work);
    for (std::size_t q = 0; q < cap; ++q) {
      const Time exec = slave.work + static_cast<Time>(q) * m;
      if (exec + slave.comm > t_lim) break;
      scratch.jobs.push_back(DeadlineJob{slave.comm, t_lim - exec, scratch.jobs.size()});
      scratch.slave_of.push_back(i);
    }
  }

  // (2) Moore–Hodgson with identities, mirroring `moore_hodgson` exactly.
  std::sort(scratch.jobs.begin(), scratch.jobs.end(),
            [](const DeadlineJob& a, const DeadlineJob& b) {
              if (a.deadline != b.deadline) return a.deadline < b.deadline;
              if (a.proc_time != b.proc_time) return a.proc_time < b.proc_time;
              return a.id < b.id;
            });
  scratch.sel_heap.clear();
  Time total = 0;
  for (const DeadlineJob& job : scratch.jobs) {
    scratch.sel_heap.emplace_back(job.proc_time, job.id);
    std::push_heap(scratch.sel_heap.begin(), scratch.sel_heap.end());
    total += job.proc_time;
    if (total > job.deadline) {
      std::pop_heap(scratch.sel_heap.begin(), scratch.sel_heap.end());
      total -= scratch.sel_heap.back().first;
      scratch.sel_heap.pop_back();
    }
  }

  // (3) Per-slave counts and the global-cap trim of `schedule_within`.
  scratch.counts.assign(fork.size(), 0);
  for (const auto& [comm, id] : scratch.sel_heap) ++scratch.counts[scratch.slave_of[id]];
  std::size_t selected = scratch.sel_heap.size();
  while (selected > cap) {
    std::size_t worst = fork.size();
    Time worst_exec = -1;
    for (std::size_t i = 0; i < fork.size(); ++i) {
      if (scratch.counts[i] == 0) continue;
      const Time exec =
          fork.slave(i).work + static_cast<Time>(scratch.counts[i] - 1) * fork.cadence(i);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst = i;
      }
    }
    MST_ASSERT(worst < fork.size());
    --scratch.counts[worst];
    --selected;
  }

  // (4) The EDD port sequencing of `realize`, materialized in place.
  scratch.seq.clear();
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& slave = fork.slave(i);
    const Time m = std::max(slave.comm, slave.work);
    for (std::size_t q = 0; q < scratch.counts[i]; ++q) {
      scratch.seq.emplace_back(t_lim - (slave.work + static_cast<Time>(q) * m), i);
    }
  }
  std::sort(scratch.seq.begin(), scratch.seq.end());
  out.fork = fork;  // copy-assign reuses the slave buffer when warm
  out.tasks.clear();
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
    out.tasks.push_back(ForkTask{slave_index, emission, start});
  }
  MST_ASSERT(out.tasks.size() == selected);
}
// mstlint: zero-alloc-end

std::size_t ForkScheduler::schedule_into(const Fork& fork, std::size_t n,
                                         ForkCountScratch& scratch, ForkSchedule& out) {
  MST_REQUIRE(n >= 1, "schedule needs at least one task");
  // Monotone predicate `count_within(t) >= n`, probed through the one warm
  // scratch, from the makespan lower bound up to the single-best-slave
  // horizon.
  const Time ceiling = single_slave_horizon(fork, n);
  std::size_t probes = 0;
  const Time horizon = min_feasible_horizon(
      fork_makespan_lower_bound(fork, n, scratch.bound), ceiling, [&](Time t) {
        ++probes;
        return count_within(fork, t, n, scratch) >= n;
      });
  schedule_within_into(fork, horizon, n, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  return probes;
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
  return realize(fork, t_lim, greedy_counts(fork, t_lim, cap));
}

}  // namespace mst
