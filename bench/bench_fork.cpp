// CPLX-FORK: microbenchmarks of the fork (star) scheduler — decision form,
// makespan search (materialized, and count-only on warm scratch), the
// ascending-c greedy selector and Moore–Hodgson selection.  Timing harness
// shared with the other bench_* binaries: bench/bench_harness.hpp; the
// committed baseline is bench/BENCH_fork.json.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/platform/generator.hpp"

namespace {

using mst::bench::Row;
using mst::bench::keep;
using mst::bench::time_op;

mst::Fork make_fork(std::size_t p) {
  mst::Rng rng(0xF0A4 + p);
  return mst::random_fork(rng, p, {1, 10, mst::PlatformClass::kUniform});
}

std::vector<Row> run_all() {
  std::vector<Row> rows;

  for (std::size_t p = 2; p <= 64; p *= 2) {
    const mst::Fork fork = make_fork(p);
    rows.push_back({"fork_decision_form", p, time_op([&] {
                      keep(mst::ForkScheduler::max_tasks(fork, 2000, 1024));
                    })});
  }
  {
    const mst::Fork fork16 = make_fork(16);
    for (std::size_t n = 16; n <= 1024; n *= 4) {
      rows.push_back({"fork_makespan_form", n, time_op([&] {
                        keep(mst::ForkScheduler::schedule(fork16, n).makespan());
                      })});
    }
    // The count-only form sweeps use: the search alone, no schedule.
    mst::ForkCountScratch scratch;
    for (std::size_t n = 16; n <= 1024; n *= 4) {
      rows.push_back({"fork_makespan_count_only", n, time_op([&] {
                        keep(mst::ForkScheduler::makespan(fork16, n, scratch).horizon);
                      })});
    }
  }
  for (std::size_t p = 2; p <= 32; p *= 4) {
    const mst::Fork fork = make_fork(p);
    rows.push_back({"fork_greedy_selector", p, time_op([&] {
                      keep(mst::ForkScheduler::greedy_max_tasks(fork, 2000, 1024));
                    })});
  }
  // Moore–Hodgson times selection over a fresh copy each op — the copy is
  // part of the measured cost, identically across n, so the n-sweep still
  // exposes the O(n log n) selection.
  for (std::size_t n = 64; n <= 16384; n *= 4) {
    mst::Rng rng(0x3110);
    std::vector<mst::DeadlineJob> jobs;
    jobs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      jobs.push_back(
          {rng.uniform(1, 10), rng.uniform(1, static_cast<std::int64_t>(4 * n)), i});
    }
    rows.push_back({"moore_hodgson_selection", n, time_op([&] {
                      auto copy = jobs;
                      keep(mst::moore_hodgson(std::move(copy)));
                    })});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  return mst::bench::bench_main(argc, argv, "bench_fork", run_all);
}
