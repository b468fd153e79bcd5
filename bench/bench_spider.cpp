// CPLX-SPIDER: microbenchmarks of the spider algorithm (Theorem 2 claims a
// polynomial bound below O(n²p²)) — decision form, makespan n-sweep
// (materialized, and count-only on warm scratch) and the spider→chains
// transformation.  Timing harness shared with the other bench_* binaries:
// bench/bench_harness.hpp; the committed baseline is bench/BENCH_spider.json.

#include <cstddef>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"

namespace {

using mst::bench::Row;
using mst::bench::keep;
using mst::bench::time_op;

mst::Spider make_spider(std::size_t legs, std::size_t leg_len) {
  mst::Rng rng(0x591D3 + legs * 131 + leg_len);
  mst::GeneratorParams params{1, 10, mst::PlatformClass::kUniform};
  std::vector<mst::Chain> chains;
  for (std::size_t l = 0; l < legs; ++l) {
    chains.push_back(mst::random_chain(rng, leg_len, params));
  }
  return mst::Spider(std::move(chains));
}

std::vector<Row> run_all() {
  std::vector<Row> rows;

  for (std::size_t legs = 2; legs <= 32; legs *= 2) {
    const mst::Spider spider = make_spider(legs, 4);
    rows.push_back({"spider_decision_form", legs, time_op([&] {
                      keep(mst::SpiderScheduler::max_tasks(spider, 1000, 512));
                    })});
  }
  {
    const mst::Spider spider6 = make_spider(6, 3);
    for (std::size_t n = 16; n <= 512; n *= 2) {
      rows.push_back({"spider_makespan_tasks", n, time_op([&] {
                        keep(mst::SpiderScheduler::schedule(spider6, n).makespan());
                      })});
    }
    // The count-only form sweeps use: the search alone, no leg schedule.
    mst::SpiderCountScratch scratch;
    for (std::size_t n = 16; n <= 512; n *= 2) {
      rows.push_back({"spider_makespan_count_only", n, time_op([&] {
                        keep(mst::SpiderScheduler::makespan(spider6, n, scratch).horizon);
                      })});
    }
  }
  for (std::size_t legs = 2; legs <= 32; legs *= 2) {
    const mst::Spider spider = make_spider(legs, 4);
    rows.push_back({"spider_transformation", legs, time_op([&] {
                      keep(mst::SpiderScheduler::transform(spider, 1000, 512));
                    })});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  return mst::bench::bench_main(argc, argv, "bench_spider", run_all);
}
