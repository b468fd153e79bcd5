// STEADY: the divisible-load / steady-state link the paper draws in §1.
// The optimal schedules must approach the bandwidth-centric steady-state
// rate as n grows (and may never exceed it — it is a busy-time bound).
//
// Platforms come from the scenario generators and every makespan is a
// registry dispatch on the count-only fast path; only the periodic-pattern
// analytics (rates, hyperperiod) read the bandwidth-centric construction
// directly, since the registry's "periodic" entry exposes just its
// schedules.

#include <iostream>
#include <variant>

#include "mst/api/registry.hpp"
#include "mst/baselines/periodic.hpp"
#include "mst/common/cli.hpp"
#include "mst/common/fmt.hpp"
#include "mst/common/table.hpp"
#include "mst/core/bounds.hpp"
#include "mst/scenario/generators.hpp"

int main(int argc, char** argv) {
  using namespace mst;
  const Args args(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 3));

  std::cout << "STEADY — optimal throughput vs bandwidth-centric steady-state rate\n\n";

  api::SolveOptions fast;
  fast.materialize = false;

  scenario::PlatformSpec chain_spec;
  chain_spec.kind = api::PlatformKind::kChain;
  chain_spec.size = 5;
  chain_spec.lo = 1;
  chain_spec.hi = 9;
  const api::Platform chain_platform =
      scenario::make_platform(chain_spec, scenario::derive_seed(seed, 0));
  const Chain& chain = std::get<Chain>(chain_platform);

  {
    const double rate = chain_steady_state_rate(chain);
    std::cout << "chain: " << chain.describe() << "\n";
    std::cout << "steady-state rate (LP): " << format_double(rate) << " tasks/unit\n";
    Table table({"n", "optimal makespan", "throughput n/makespan", "fraction of rate"});
    for (std::size_t n : {4u, 16u, 64u, 256u, 1024u}) {
      const api::SolveResult r = api::registry().solve(chain_platform, "optimal", n, fast);
      const double tp = r.throughput();
      table.row().cell(n).cell(r.makespan).cell(tp, 4).cell(tp / rate, 4);
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  {
    scenario::PlatformSpec spider_spec;
    spider_spec.kind = api::PlatformKind::kSpider;
    spider_spec.size = 4;  // legs
    spider_spec.lo = 1;
    spider_spec.hi = 9;
    spider_spec.min_leg_len = 1;
    spider_spec.max_leg_len = 3;
    const api::Platform spider_platform =
        scenario::make_platform(spider_spec, scenario::derive_seed(seed, 1));
    const Spider& spider = std::get<Spider>(spider_platform);
    const double rate = spider_steady_state_rate(spider);
    std::cout << "spider: " << spider.describe() << "\n";
    std::cout << "steady-state rate (one-port fill): " << format_double(rate) << " tasks/unit\n";
    Table table({"n", "optimal makespan", "throughput", "fraction of rate"});
    for (std::size_t n : {4u, 16u, 64u, 256u}) {
      const api::SolveResult r = api::registry().solve(spider_platform, "optimal", n, fast);
      const double tp = r.throughput();
      table.row().cell(n).cell(r.makespan).cell(tp, 4).cell(tp / rate, 4);
    }
    table.print(std::cout);
  }

  // Constructive counterpart: the periodic bandwidth-centric schedule (the
  // registry's "periodic" entry), sampled at whole numbers of periods.
  {
    const PeriodicPattern pattern = chain_periodic_pattern(chain);
    std::cout << "\nperiodic construction on the same chain:\n";
    std::cout << "exact LP rates:";
    for (const Rational& r : pattern.rates) std::cout << ' ' << r.to_string();
    std::cout << "  (hyperperiod " << pattern.hyperperiod << ", "
              << pattern.tasks_per_period() << " tasks/period)\n";
    Table table({"periods", "tasks", "makespan", "throughput", "fraction of LP rate"});
    for (std::size_t reps : {1u, 4u, 16u, 64u}) {
      const std::size_t n = reps * pattern.tasks_per_period();
      const api::SolveResult r = api::registry().solve(chain_platform, "periodic", n, fast);
      const double tp = r.throughput();
      table.row()
          .cell(reps)
          .cell(r.tasks)
          .cell(r.makespan)
          .cell(tp, 4)
          .cell(tp / pattern.rate(), 4);
    }
    table.print(std::cout);
  }

  std::cout << "\nExpected shape: 'fraction of rate' climbs toward 1.000 from below\n"
               "as n grows — the finite-schedule startup/drain cost amortizes away;\n"
               "the explicit periodic pattern converges to the same rate, from its\n"
               "own (slightly larger) startup transient.\n";
  return 0;
}
