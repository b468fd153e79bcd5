#include "mst/heuristics/tree_cover.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"
#include "mst/core/bounds.hpp"

namespace mst {

namespace {

/// Collects every root-child-to-leaf path under `v` (paths include `v`) as
/// arena spans — one exact-size block per leaf, no per-path vector.
void collect_paths(const Tree& tree, NodeId v, std::vector<NodeId>& prefix, Arena& arena,
                   std::vector<Span<NodeId>>& out) {
  prefix.push_back(v);
  if (tree.children(v).empty()) {
    Span<NodeId> path = arena.make_span<NodeId>(prefix.size());
    std::copy(prefix.begin(), prefix.end(), path.begin());
    out.push_back(path);
  } else {
    for (NodeId child : tree.children(v)) collect_paths(tree, child, prefix, arena, out);
  }
  prefix.pop_back();
}

Chain chain_of_path(const Tree& tree, Span<NodeId> path) {
  std::vector<Processor> procs;
  procs.reserve(path.size);
  for (NodeId v : path) procs.push_back(tree.proc(v));
  return Chain(std::move(procs));
}

}  // namespace

SpiderCover cover_tree_with_spider(const Tree& tree, Arena& arena) {
  MST_REQUIRE(tree.num_slaves() >= 1, "tree has no slaves");
  arena.reset();
  SpiderCover cover;
  std::vector<Chain> legs;
  std::vector<NodeId> prefix;
  std::vector<Span<NodeId>> paths;
  for (NodeId head : tree.children(0)) {
    paths.clear();
    prefix.clear();
    collect_paths(tree, head, prefix, arena, paths);
    MST_ASSERT(!paths.empty());

    double best_rate = -1.0;
    std::size_t best = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const double rate = chain_steady_state_rate(chain_of_path(tree, paths[i]));
      if (rate > best_rate) {
        best_rate = rate;
        best = i;
      }
    }
    legs.push_back(chain_of_path(tree, paths[best]));
    cover.node_of.emplace_back(paths[best].begin(), paths[best].end());
  }
  cover.spider = Spider(std::move(legs));
  return cover;
}

SpiderCover cover_tree_with_spider(const Tree& tree) {
  Arena arena;
  return cover_tree_with_spider(tree, arena);
}

}  // namespace mst
