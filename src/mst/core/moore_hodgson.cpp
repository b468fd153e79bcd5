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

// The count-only twins below mutate caller-owned scratch only — statically
// allocation-checked (dynamic twin: tests/test_counting.cpp).
// mstlint: zero-alloc
std::size_t moore_hodgson_count(std::vector<DeadlineJob>& jobs, std::vector<Time>& heap_scratch) {
  std::sort(jobs.begin(), jobs.end(), edd_less);

  // Same eviction rule as `moore_hodgson`, but the heap only needs the
  // processing times: the count is invariant under which of several
  // longest-job ties gets evicted.
  heap_scratch.clear();
  Time total = 0;
  for (const DeadlineJob& job : jobs) {
    heap_scratch.push_back(job.proc_time);
    std::push_heap(heap_scratch.begin(), heap_scratch.end());
    total += job.proc_time;
    if (total > job.deadline) {
      std::pop_heap(heap_scratch.begin(), heap_scratch.end());
      total -= heap_scratch.back();
      heap_scratch.pop_back();
    }
  }
  return heap_scratch.size();
}

std::size_t moore_hodgson_runs(const std::vector<JobRun>& runs, const std::vector<Time>& deadlines,
                               RunSelectScratch& scratch, std::vector<std::size_t>& counts) {
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
  // Min-heap on (deadline, rank), maintained by hand so that advancing a run
  // is one sift of the top entry rather than a pop and a push.
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

  Time total = 0;         // processing time of the selected jobs
  std::size_t selected = 0;
  std::size_t top = 0;    // highest rank with a selected job, once selected > 0
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
  }

  counts.assign(p, 0);
  for (std::size_t r = 0; r < p; ++r) counts[order[r]] = lanes[r].taken;
  return selected;
}

std::size_t moore_hodgson_released_count(std::vector<DeadlineJob>& jobs,
                                         const std::vector<Time>& releases,
                                         std::size_t max_count, std::vector<Time>& dp_scratch) {
  std::sort(jobs.begin(), jobs.end(), edd_less);
  const std::size_t limit = std::min(max_count, releases.size());

  // dp[j]: minimal completion time of a feasible selection of j jobs from
  // the processed prefix, sequenced in EDD order with position j-1 starting
  // no earlier than releases[j-1].  In-place knapsack update (descending j).
  dp_scratch.assign(limit + 1, kTimeInfinity);
  dp_scratch[0] = 0;
  std::size_t best = 0;
  for (const DeadlineJob& job : jobs) {
    const std::size_t top = std::min(best + 1, limit);
    for (std::size_t j = top; j >= 1; --j) {
      if (dp_scratch[j - 1] == kTimeInfinity) continue;
      const Time start = std::max(dp_scratch[j - 1], releases[j - 1]);
      const Time finish = start + job.proc_time;
      if (finish <= job.deadline && finish < dp_scratch[j]) {
        dp_scratch[j] = finish;
        if (j > best) best = j;
      }
    }
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
