#include "mst/baselines/single_node.hpp"

#include <utility>
#include <vector>

#include "mst/baselines/asap.hpp"
#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// The smallest-makespan schedule among `candidate(i)`, `i < count`, ties
/// to the lowest index.  Seeded with the first candidate, never with a
/// sentinel: whatever its makespan, the result is a real schedule of the
/// whole workload.
template <typename Candidate>
auto best_of(std::size_t count, Candidate&& candidate) {
  auto best = candidate(0);
  Time best_makespan = best.makespan();
  for (std::size_t i = 1; i < count; ++i) {
    auto next = candidate(i);
    const Time makespan = next.makespan();
    if (makespan < best_makespan) {
      best_makespan = makespan;
      best = std::move(next);
    }
  }
  return best;
}

}  // namespace

ChainSchedule single_node_chain(const Chain& chain, std::size_t n) {
  return single_node_chain(chain, Workload::identical(n));
}

Time single_node_chain_makespan(const Chain& chain, std::size_t n) {
  return single_node_chain(chain, n).makespan();
}

SpiderSchedule single_node_spider(const Spider& spider, std::size_t n) {
  return single_node_spider(spider, Workload::identical(n));
}

Time single_node_spider_makespan(const Spider& spider, std::size_t n) {
  return single_node_spider(spider, n).makespan();
}

ChainSchedule single_node_chain(const Chain& chain, const Workload& workload) {
  MST_REQUIRE(workload.count() >= 1, "need at least one task");
  return best_of(chain.size(), [&](std::size_t q) {
    return asap_chain_schedule(chain, std::vector<std::size_t>(workload.count(), q), workload);
  });
}

SpiderSchedule single_node_spider(const Spider& spider, const Workload& workload) {
  MST_REQUIRE(workload.count() >= 1, "need at least one task");
  std::vector<SpiderDest> nodes;
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    for (std::size_t q = 0; q < spider.leg(l).size(); ++q) nodes.push_back(SpiderDest{l, q});
  }
  return best_of(nodes.size(), [&](std::size_t i) {
    return asap_spider_schedule(spider, std::vector<SpiderDest>(workload.count(), nodes[i]),
                                workload);
  });
}

}  // namespace mst
