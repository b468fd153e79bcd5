// Tests of the tree-covering heuristics (the paper's §8 outlook).

#include <gtest/gtest.h>

#include <cmath>

#include "mst/common/rng.hpp"
#include "mst/core/bounds.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/heuristics/tree_cover.hpp"
#include "mst/heuristics/tree_schedule.hpp"
#include "mst/platform/generator.hpp"
#include "mst/sim/platform_sim.hpp"

namespace mst {
namespace {

TEST(TreeCover, SpiderShapedTreeCoversItself) {
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  const Tree tree = tree_from_spider(spider);
  const SpiderCover cover = cover_tree_with_spider(tree);
  EXPECT_EQ(cover.spider, spider);
}

TEST(TreeCover, PicksTheFasterBranch) {
  // Root child with two sub-branches: a fast leaf and a slow leaf; the
  // cover must route through the fast one.
  Tree tree;
  const NodeId head = tree.add_node(0, {1, 4});
  tree.add_node(head, {1, 1});     // fast branch
  const NodeId slow = tree.add_node(head, {5, 50});  // slow branch
  (void)slow;
  const SpiderCover cover = cover_tree_with_spider(tree);
  ASSERT_EQ(cover.spider.num_legs(), 1u);
  ASSERT_EQ(cover.spider.leg(0).size(), 2u);
  EXPECT_EQ(cover.spider.leg(0).work(1), 1);
  EXPECT_EQ(cover.node_of[0][1], 2u);
}

TEST(TreeCover, EveryLegIsARealPath) {
  Rng rng(99);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Tree tree = random_tree(inst, static_cast<std::size_t>(rng.uniform(1, 12)), params);
    const SpiderCover cover = cover_tree_with_spider(tree);
    ASSERT_EQ(cover.spider.num_legs(), tree.children(0).size());
    for (std::size_t l = 0; l < cover.spider.num_legs(); ++l) {
      const auto& nodes = cover.node_of[l];
      ASSERT_EQ(nodes.size(), cover.spider.leg(l).size());
      // Consecutive nodes are parent/child in the tree and processors match.
      for (std::size_t d = 0; d < nodes.size(); ++d) {
        EXPECT_EQ(tree.proc(nodes[d]), cover.spider.leg(l).proc(d));
        if (d > 0) {
          EXPECT_EQ(tree.parent(nodes[d]), nodes[d - 1]);
        }
      }
      EXPECT_EQ(tree.parent(nodes[0]), 0u);
    }
  }
}

TEST(TreeCover, RejectsEmptyTree) {
  Tree empty;
  EXPECT_THROW(cover_tree_with_spider(empty), std::invalid_argument);
}

TEST(TreeSchedule, PlanExecutesOnTheTree) {
  Rng rng(111);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const Tree tree = random_tree(inst, static_cast<std::size_t>(rng.uniform(1, 10)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const TreeScheduleResult result = schedule_tree_via_cover(tree, n);
    ASSERT_EQ(result.destinations.size(), n);
    for (NodeId v : result.destinations) {
      EXPECT_GE(v, 1u);
      EXPECT_LT(v, tree.size());
    }
    const sim::SimResult simulated = sim::simulate_dispatch(tree, result.destinations);
    ASSERT_EQ(simulated.num_tasks(), n);
    // Eager execution of the plan cannot be slower than the plan itself.
    EXPECT_LE(simulated.makespan, result.makespan);
    // No makespan may beat the steady-state lower bound of the full tree.
    const double rate = tree_steady_state_rate(tree);
    const Time lb = static_cast<Time>(std::ceil(static_cast<double>(n) / rate - 1e-9));
    EXPECT_GE(simulated.makespan, lb);
  }
}

TEST(TreeSchedule, ChainShapedTreeIsScheduledOptimally) {
  // For a chain-shaped tree the cover is the chain itself, so the heuristic
  // is exact.
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const TreeScheduleResult result = schedule_tree_via_cover(tree_from_chain(chain), 5);
  EXPECT_EQ(result.makespan, 14);
}

TEST(TreeSchedule, SpiderShapedTreeIsScheduledOptimally) {
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  const TreeScheduleResult result = schedule_tree_via_cover(tree_from_spider(spider), 6);
  EXPECT_EQ(result.makespan, SpiderScheduler::makespan(spider, 6));
}

TEST(TreeSchedule, RejectsZeroTasks) {
  const Chain chain = Chain::from_vectors({1}, {1});
  EXPECT_THROW(schedule_tree_via_cover(tree_from_chain(chain), 0), std::invalid_argument);
}

}  // namespace
}  // namespace mst
