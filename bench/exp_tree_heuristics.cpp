// TREE: the paper's §8 outlook — scheduling general trees by covering them
// with spiders.  Every contender is resolved through the algorithm registry
// (like exp_heuristics), so a newly registered tree algorithm joins this
// table with no changes here.  Ratios are against the bandwidth-centric
// steady-state lower bound of the full tree.

#include <cmath>
#include <iostream>
#include <map>
#include <string>

#include "mst/api/registry.hpp"
#include "mst/common/cli.hpp"
#include "mst/common/rng.hpp"
#include "mst/common/stats.hpp"
#include "mst/common/table.hpp"
#include "mst/core/bounds.hpp"
#include "mst/platform/generator.hpp"

int main(int argc, char** argv) {
  using namespace mst;
  const Args args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 25));
  if (trials < 1) {
    std::cerr << "--trials must be >= 1\n";
    return 2;
  }
  const auto n = static_cast<std::size_t>(args.get_int("n", 32));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 4));

  std::cout << "TREE — general trees via spider covering (paper §8 outlook)\n"
            << "(" << trials << " random trees per size, n=" << n
            << " tasks; ratios vs the steady-state lower bound n/rate;\n"
            << "contenders discovered from the registry)\n\n";

  // The makespan-only fast path: ranking needs no placement vectors, and
  // the online policies stay reproducible through the options seed.
  api::SolveOptions options;
  options.materialize = false;
  options.seed = 1;

  const std::vector<api::AlgorithmInfo> algos = api::registry().list(api::PlatformKind::kTree);

  Table table({"slaves", "algorithm", "mean ratio to LB", "max ratio to LB"});
  for (std::size_t slaves : {4u, 8u, 16u}) {
    std::map<std::string, Sample> ratios;
    Rng rng(seed + slaves);
    GeneratorParams params{1, 9, PlatformClass::kUniform};
    for (int t = 0; t < trials; ++t) {
      Rng inst = rng.split();
      const api::Platform tree = random_tree(inst, slaves, params);
      const double rate = tree_steady_state_rate(std::get<Tree>(tree));
      const double lb = std::max(1.0, static_cast<double>(n) / rate);

      for (const api::AlgorithmInfo& info : algos) {
        const api::SolveResult result = api::registry().solve(tree, info.name, n, options);
        ratios[info.name].add(static_cast<double>(result.makespan) / lb);
      }
    }
    for (const api::AlgorithmInfo& info : algos) {
      const Sample& sample = ratios.at(info.name);
      table.row().cell(slaves).cell(info.name).cell(sample.mean(), 3).cell(sample.max(), 3);
    }
  }

  table.print(std::cout);
  std::cout << "\nExpected shape: ratios >= 1 (the LB relaxes the one-port structure);\n"
               "the cover wins when trees are path-heavy, loses ground on bushy trees\n"
               "where it parks off-path processors — the open trade-off of §8.  The\n"
               "online policies (no lookahead) trail the offline plans, with\n"
               "online-random worst — heterogeneity-blind and sequence-blind.\n";
  return 0;
}
