#include "mst/core/moore_hodgson.hpp"

#include <algorithm>
#include <queue>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// Deterministic EDD order.
bool edd_less(const DeadlineJob& a, const DeadlineJob& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.proc_time != b.proc_time) return a.proc_time < b.proc_time;
  return a.id < b.id;
}

}  // namespace

std::vector<std::size_t> moore_hodgson(std::vector<DeadlineJob> jobs) {
  std::sort(jobs.begin(), jobs.end(), edd_less);

  // Selected jobs as a max-heap on processing time: when the running total
  // overshoots a deadline, evicting the longest selected job is optimal
  // (Moore 1968).
  struct HeapEntry {
    Time proc_time;
    std::size_t id;
    bool operator<(const HeapEntry& other) const {
      if (proc_time != other.proc_time) return proc_time < other.proc_time;
      return id < other.id;  // deterministic eviction among equals
    }
  };
  std::priority_queue<HeapEntry> selected;
  Time total = 0;
  for (const DeadlineJob& job : jobs) {
    selected.push({job.proc_time, job.id});
    total += job.proc_time;
    if (total > job.deadline) {
      const HeapEntry evicted = selected.top();
      selected.pop();
      total -= evicted.proc_time;
    }
  }

  std::vector<std::size_t> ids;
  ids.reserve(selected.size());
  while (!selected.empty()) {
    ids.push_back(selected.top().id);
    selected.pop();
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// The run kernels mutate caller-owned scratch only — statically
// allocation-checked (dynamic twins: tests/test_counting.cpp and
// tests/test_zero_alloc.cpp).
// mstlint: zero-alloc
namespace {

/// The merge both run kernels share: ranks the runs by (proc, run index)
/// into `scratch.order`/`scratch.lanes` (each lane's `taken` zeroed) and
/// calls `visit(deadline, rank, lanes)` once per job, in (deadline, rank) order,
/// from a p-entry min-heap maintained by hand so that advancing a run is
/// one sift of the top entry rather than a pop and a push.
template <typename Visit>
void merge_runs(const std::vector<JobRun>& runs, const std::vector<Time>& deadlines,
                RunSelectScratch& scratch, Visit&& visit) {
  using Entry = std::pair<Time, std::size_t>;  // (deadline, rank)
  const std::size_t p = runs.size();
  std::vector<std::size_t>& order = scratch.order;
  order.resize(p);
  for (std::size_t i = 0; i < p; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (runs[a].proc != runs[b].proc) return runs[a].proc < runs[b].proc;
    return a < b;
  });
  scratch.lanes.resize(p);
  RunSelectScratch::Lane* const lanes = scratch.lanes.data();
  std::vector<Entry>& heap = scratch.heap;
  heap.clear();
  for (std::size_t r = 0; r < p; ++r) {
    const JobRun& run = runs[order[r]];
    MST_ASSERT(run.begin <= run.end && run.end <= deadlines.size());
    lanes[r] = {run.proc, run.begin, run.end, 0};
    if (run.begin < run.end) heap.emplace_back(deadlines[run.begin], r);
  }
  const auto later = [](const Entry& a, const Entry& b) { return b < a; };
  std::make_heap(heap.begin(), heap.end(), later);
  const auto sift_top = [&] {
    const std::size_t size = heap.size();
    const Entry moving = heap[0];
    std::size_t hole = 0;
    for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
      if (child + 1 < size && heap[child + 1] < heap[child]) ++child;
      if (!(heap[child] < moving)) break;
      heap[hole] = heap[child];
      hole = child;
    }
    heap[hole] = moving;
  };
  while (!heap.empty()) {
    const auto [deadline, r] = heap[0];
    RunSelectScratch::Lane& lane = lanes[r];
    if (++lane.next < lane.end) {
      heap[0].first = deadlines[lane.next];
    } else {
      heap[0] = heap.back();
      heap.pop_back();
    }
    if (!heap.empty()) sift_top();
    visit(deadline, r, lanes);
  }
}

}  // namespace

std::size_t moore_hodgson_runs(const std::vector<JobRun>& runs, const std::vector<Time>& deadlines,
                               RunSelectScratch& scratch, std::vector<std::size_t>& counts) {
  Time total = 0;         // processing time of the selected jobs
  std::size_t selected = 0;
  std::size_t top = 0;    // highest rank with a selected job, once selected > 0
  merge_runs(runs, deadlines, scratch,
             [&](Time deadline, std::size_t r, RunSelectScratch::Lane* lanes) {
    RunSelectScratch::Lane& lane = lanes[r];
    if (total + lane.proc <= deadline) {
      ++lane.taken;
      total += lane.proc;
      if (selected++ == 0 || r > top) top = r;
    } else if (selected > 0 && r < top) {
      // Evict one job of the top run for this one (no longer, since it
      // ranks lower): the total shrinks, the count stays.
      total += lane.proc - lanes[top].proc;
      ++lane.taken;
      --lanes[top].taken;
      while (lanes[top].taken == 0) --top;
    }
  });

  const std::size_t p = runs.size();
  counts.assign(p, 0);
  for (std::size_t r = 0; r < p; ++r) counts[scratch.order[r]] = scratch.lanes[r].taken;
  return selected;
}

std::size_t moore_hodgson_released_runs(const std::vector<JobRun>& runs,
                                        const std::vector<Time>& deadlines,
                                        const std::vector<Time>& releases,
                                        std::size_t max_count, RunSelectScratch& scratch,
                                        std::vector<std::size_t>* picked) {
  // `dp[0..best]` are the reachable counts of the processed prefix; a job
  // extends count `j − 1` to `j` when it fits after both `dp[j − 1]` and
  // `releases[j − 1]` and beats `dp[j]` (or `j` was unreachable).  Walking
  // the jobs backwards, a flagged (job, count) cell is exactly one where
  // the generic table differs from the row above, so the backtrack takes
  // the jobs the generic one takes.
  const std::size_t limit = std::min(max_count, releases.size());
  std::vector<Time>& dp = scratch.dp;
  dp.resize(limit + 1);
  dp[0] = 0;
  std::size_t best = 0;
  if (picked != nullptr) {
    scratch.merged.clear();
    scratch.took.clear();
  }
  merge_runs(runs, deadlines, scratch,
             [&](Time deadline, std::size_t r, const RunSelectScratch::Lane* lanes) {
    const Time proc = lanes[r].proc;
    std::uint8_t* row = nullptr;
    if (picked != nullptr) {
      scratch.merged.push_back(scratch.order[r]);
      scratch.took.resize(scratch.took.size() + limit);
      row = scratch.took.data() + scratch.took.size() - limit;
    }
    for (std::size_t j = std::min(best + 1, limit); j >= 1; --j) {
      const Time start = std::max(dp[j - 1], releases[j - 1]);
      if (start > deadline - proc) continue;  // finishes after the deadline
      const Time finish = start + proc;
      if (j <= best && finish >= dp[j]) continue;
      dp[j] = finish;
      if (row != nullptr) row[j - 1] = 1;
      if (j > best) best = j;
    }
  });
  if (picked != nullptr) {
    picked->resize(best);
    std::size_t j = best;
    for (std::size_t i = scratch.merged.size(); i >= 1 && j >= 1; --i) {
      if (scratch.took[(i - 1) * limit + (j - 1)] == 0) continue;
      (*picked)[j - 1] = scratch.merged[i - 1];
      --j;
    }
    MST_ASSERT(j == 0);
  }
  return best;
}
// mstlint: zero-alloc-end

std::vector<std::size_t> moore_hodgson_released(std::vector<DeadlineJob> jobs,
                                                const std::vector<Time>& releases,
                                                std::size_t max_count) {
  std::sort(jobs.begin(), jobs.end(), edd_less);
  const std::size_t limit = std::min(max_count, releases.size());
  const std::size_t n = jobs.size();

  // Full (prefix, count) table so one maximum selection can be backtracked:
  // dp[i][j] after the first i jobs in EDD order.
  std::vector<std::vector<Time>> dp(n + 1, std::vector<Time>(limit + 1, kTimeInfinity));
  dp[0][0] = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const DeadlineJob& job = jobs[i - 1];
    dp[i] = dp[i - 1];
    for (std::size_t j = 1; j <= limit; ++j) {
      if (dp[i - 1][j - 1] == kTimeInfinity) continue;
      const Time finish = std::max(dp[i - 1][j - 1], releases[j - 1]) + job.proc_time;
      if (finish <= job.deadline && finish < dp[i][j]) dp[i][j] = finish;
    }
  }

  std::size_t count = limit;
  while (count > 0 && dp[n][count] == kTimeInfinity) --count;

  // Backtrack: job i-1 was taken at position j iff the value cannot come
  // from the untaken branch (ties prefer untaken — either choice is valid).
  std::vector<std::size_t> chosen(count);
  std::size_t j = count;
  for (std::size_t i = n; i >= 1 && j >= 1; --i) {
    if (dp[i][j] == dp[i - 1][j]) continue;
    chosen[j - 1] = jobs[i - 1].id;
    --j;
  }
  MST_ASSERT(j == 0);
  return chosen;
}

bool edd_feasible(std::vector<DeadlineJob> jobs) {
  std::sort(jobs.begin(), jobs.end(), edd_less);
  Time total = 0;
  for (const DeadlineJob& job : jobs) {
    total += job.proc_time;
    if (total > job.deadline) return false;
  }
  return true;
}

std::vector<Time> sequence_edd(const std::vector<DeadlineJob>& jobs) {
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return edd_less(jobs[a], jobs[b]); });

  std::vector<Time> starts(jobs.size(), 0);
  Time cursor = 0;
  for (std::size_t idx : order) {
    starts[idx] = cursor;
    cursor += jobs[idx].proc_time;
    MST_ASSERT(cursor <= jobs[idx].deadline);
  }
  return starts;
}

}  // namespace mst
