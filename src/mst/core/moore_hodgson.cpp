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

using Entry = std::pair<Time, std::size_t>;  // (deadline, rank)

/// Merges the (deadline, rank)-sorted blocks `in[lo, mid)` and
/// `in[mid, hi)` into `out[lo, hi)`, the select written without a branch
/// on the comparison.
void merge_blocks(const Entry* in, std::size_t lo, std::size_t mid, std::size_t hi,
                  Entry* out) {
  std::size_t i = lo;
  std::size_t j = mid;
  std::size_t o = lo;
  while (i < mid && j < hi) {
    const bool right = in[j] < in[i];
    out[o++] = right ? in[j] : in[i];
    j += static_cast<std::size_t>(right);
    i += static_cast<std::size_t>(!right);
  }
  std::copy(in + i, in + mid, out + o);
  std::copy(in + j, in + hi, out + o + (mid - i));
}

}  // namespace

void record_run_merge(const std::vector<JobRun>& runs, const std::vector<Time>& deadlines,
                      RunSelectScratch& scratch) {
  // Rank the runs by (proc, run index).
  const std::size_t p = runs.size();
  std::vector<std::size_t>& order = scratch.order;
  order.resize(p);
  for (std::size_t i = 0; i < p; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (runs[a].proc != runs[b].proc) return runs[a].proc < runs[b].proc;
    return a < b;
  });
  scratch.lanes.resize(p);

  // Lay the runs out rank by rank, one sorted block each, then merge
  // adjacent blocks pairwise — log2 p rounds of linear merges, ping-ponging
  // with `spare` — until one block is left.
  std::vector<Entry>& merged = scratch.recorded;
  std::vector<std::size_t>& blocks = scratch.blocks;  // block k: [blocks[k], blocks[k + 1])
  blocks.resize(p + 1);
  blocks[0] = 0;
  for (std::size_t r = 0; r < p; ++r) {
    const JobRun& run = runs[order[r]];
    MST_ASSERT(run.begin <= run.end && run.end <= deadlines.size());
    blocks[r + 1] = blocks[r] + (run.end - run.begin);
  }
  merged.resize(blocks[p]);
  scratch.spare.resize(blocks[p]);
  for (std::size_t r = 0; r < p; ++r) {
    const JobRun& run = runs[order[r]];
    scratch.lanes[r] = {run.proc, 0};
    for (std::size_t i = run.begin; i < run.end; ++i) {
      merged[blocks[r] + (i - run.begin)] = {deadlines[i], r};
    }
  }
  while (blocks.size() > 2) {
    std::size_t kept = 1;  // blocks[kept] is written only after it was read
    for (std::size_t k = 0; k + 1 < blocks.size(); k += 2) {
      const std::size_t end = k + 2 < blocks.size() ? blocks[k + 2] : blocks[k + 1];
      merge_blocks(merged.data(), blocks[k], blocks[k + 1], end, scratch.spare.data());
      blocks[kept++] = end;
    }
    blocks.resize(kept);
    merged.swap(scratch.spare);
  }
}

std::size_t moore_hodgson_pass(Time shift, RunSelectScratch& scratch,
                               std::vector<std::size_t>& counts) {
  MST_ASSERT(shift <= 0);
  RunSelectScratch::Lane* const lanes = scratch.lanes.data();
  for (RunSelectScratch::Lane& lane : scratch.lanes) lane.taken = 0;
  Time total = 0;            // processing time of the selected jobs
  std::size_t selected = 0;
  std::size_t top = 0;       // highest rank with a selected job, once selected > 0
  for (const auto& [deadline, r] : scratch.recorded) {
    RunSelectScratch::Lane& lane = lanes[r];
    const Time shifted = deadline + shift;
    if (shifted < lane.proc) continue;  // no such job at the shifted horizon
    if (total + lane.proc <= shifted) {
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
  const std::size_t p = scratch.lanes.size();
  counts.assign(p, 0);
  for (std::size_t r = 0; r < p; ++r) counts[scratch.order[r]] = lanes[r].taken;
  return selected;
}

std::size_t moore_hodgson_runs(const std::vector<JobRun>& runs, const std::vector<Time>& deadlines,
                               RunSelectScratch& scratch, std::vector<std::size_t>& counts) {
  record_run_merge(runs, deadlines, scratch);
  return moore_hodgson_pass(0, scratch, counts);
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
  record_run_merge(runs, deadlines, scratch);
  const std::vector<Entry>& merged = scratch.recorded;
  if (picked != nullptr) scratch.took.assign(merged.size() * limit, 0);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const auto [deadline, r] = merged[i];
    const Time proc = scratch.lanes[r].proc;
    std::uint8_t* const row = picked != nullptr ? scratch.took.data() + i * limit : nullptr;
    for (std::size_t j = std::min(best + 1, limit); j >= 1; --j) {
      const Time start = std::max(dp[j - 1], releases[j - 1]);
      if (start > deadline - proc) continue;  // finishes after the deadline
      const Time finish = start + proc;
      if (j <= best && finish >= dp[j]) continue;
      dp[j] = finish;
      if (row != nullptr) row[j - 1] = 1;
      if (j > best) best = j;
    }
  }
  if (picked != nullptr) {
    picked->resize(best);
    std::size_t j = best;
    for (std::size_t i = merged.size(); i >= 1 && j >= 1; --i) {
      if (scratch.took[(i - 1) * limit + (j - 1)] == 0) continue;
      (*picked)[j - 1] = scratch.order[merged[i - 1].second];
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
