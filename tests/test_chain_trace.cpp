// Tests of the instrumented backward construction, including the direct
// executable form of Lemma 1 ("there is always a better solution than a
// crossing") over the recorded candidate vectors.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/chain_trace.hpp"
#include "mst/platform/generator.hpp"

namespace mst {
namespace {

/// Oracle instances for the O(p) selection: every generator class up to
/// p = 32, chains with zero-latency links, and chains of identical
/// processors (whose candidates keep running into Definition 3 ties).
std::vector<Chain> oracle_chains() {
  std::vector<Chain> chains;
  Rng rng(61);
  for (const PlatformClass cls : all_platform_classes()) {
    const GeneratorParams params{1, 12, cls};
    for (const std::size_t p : {1, 2, 3, 5, 8, 13, 21, 32}) {
      Rng inst = rng.split();
      chains.push_back(random_chain(inst, p, params));
    }
  }
  chains.push_back(Chain::from_vectors({0}, {7}));
  chains.push_back(Chain::from_vectors({0, 0, 0}, {3, 2, 5}));
  chains.push_back(Chain::from_vectors({0, 2, 0, 1}, {4, 1, 3, 2}));
  chains.push_back(Chain::from_vectors({3, 0, 0, 0, 0}, {1, 1, 1, 1, 1}));
  for (int trial = 0; trial < 12; ++trial) {
    const auto p = static_cast<std::size_t>(rng.uniform(2, 16));
    std::vector<Time> comms(p);
    std::vector<Time> works(p);
    for (std::size_t i = 0; i < p; ++i) {
      comms[i] = rng.chance(0.5) ? 0 : rng.uniform(1, 6);
      works[i] = rng.uniform(1, 9);
    }
    chains.push_back(Chain::from_vectors(comms, works));
  }
  for (const Processor proc : {Processor{1, 1}, Processor{2, 3}, Processor{3, 2},
                               Processor{0, 4}, Processor{5, 5}}) {
    for (const std::size_t p : {2, 7, 16}) chains.emplace_back(std::vector<Processor>(p, proc));
  }
  return chains;
}

/// Every policy of the scheduler's kernel — materialized tasks, count and
/// first emissions — against the paper's O(n·p²) scan in `trace_backward`.
/// Count and first emissions exist only in the stop-on-negative form.
void expect_kernel_matches_trace(const Chain& chain, Time horizon, std::size_t max_tasks,
                                 bool stop_on_negative, ChainCountScratch& scratch,
                                 ChainSchedule& pooled) {
  const ChainTrace trace = trace_backward(chain, horizon, max_tasks, stop_on_negative);
  const std::string where = chain.describe() + " horizon=" + std::to_string(horizon) +
                            " max_tasks=" + std::to_string(max_tasks) +
                            (stop_on_negative ? " stop" : "");
  EXPECT_EQ(ChainScheduler::build_backward(chain, horizon, max_tasks, stop_on_negative).tasks,
            trace.schedule.tasks)
      << where;
  if (!stop_on_negative) return;

  ChainScheduler::schedule_within_into(chain, horizon, max_tasks, scratch, pooled);
  EXPECT_EQ(pooled.tasks, trace.schedule.tasks) << where;
  EXPECT_EQ(ChainScheduler::count_within(chain, horizon, max_tasks, scratch), trace.steps.size())
      << where;
  std::vector<Time> firsts;
  EXPECT_EQ(ChainScheduler::count_within_emissions(chain, horizon, max_tasks, scratch, firsts),
            trace.steps.size())
      << where;
  std::vector<Time> expected;
  for (const ChainTraceStep& step : trace.steps) expected.push_back(step.placed.emissions.front());
  EXPECT_EQ(firsts, expected) << where;
}

TEST(ChainTrace, ReproducesThePlainScheduleExactly) {
  ChainCountScratch scratch;
  ChainSchedule pooled;
  for (const Chain& chain : oracle_chains()) {
    for (const std::size_t n : {1, 7, 40}) {
      const ChainTrace trace = trace_schedule(chain, n);
      const ChainSchedule plain = ChainScheduler::schedule(chain, n);
      EXPECT_EQ(trace.schedule.tasks, plain.tasks) << chain.describe() << " n=" << n;
      EXPECT_EQ(trace.steps.size(), n);
      ChainScheduler::schedule_into(chain, n, scratch, pooled);
      EXPECT_EQ(pooled.tasks, plain.tasks) << chain.describe() << " n=" << n;
      // At T∞ no first emission is negative, so the stop-on-negative
      // policies place the same n tasks.
      expect_kernel_matches_trace(chain, trace.horizon, n, /*stop_on_negative=*/false, scratch,
                                  pooled);
      expect_kernel_matches_trace(chain, trace.horizon, n, /*stop_on_negative=*/true, scratch,
                                  pooled);
    }
  }
}

TEST(ChainTrace, ChosenCandidateIsTheDefinition3Maximum) {
  Rng rng(62);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const ChainTrace trace = trace_schedule(chain, 6);
    for (const ChainTraceStep& step : trace.steps) {
      const CommVector& winner = step.candidates[step.chosen];
      for (const CommVector& other : step.candidates) {
        if (other == winner) continue;
        EXPECT_TRUE(precedes(other, winner))
            << to_string(other) << " should precede " << to_string(winner);
      }
    }
  }
}

TEST(ChainTrace, Lemma1NoCrossingBetweenCandidates) {
  // Lemma 1: if kC(i) ≺ lC(i) then every suffix (from any common link q)
  // also satisfies {kC_q..} ≺ {lC_q..} — candidate vectors never cross.
  Rng rng(63);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 12; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(2, 6)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
    const ChainTrace trace = trace_schedule(chain, n);
    for (const ChainTraceStep& step : trace.steps) {
      for (std::size_t k = 0; k < step.candidates.size(); ++k) {
        for (std::size_t l = 0; l < step.candidates.size(); ++l) {
          if (k == l) continue;
          const CommVector& a = step.candidates[k];
          const CommVector& b = step.candidates[l];
          if (!precedes(a, b)) continue;
          const std::size_t common = std::min(a.size(), b.size());
          for (std::size_t q = 0; q < common; ++q) {
            const CommVector suffix_a(a.begin() + static_cast<std::ptrdiff_t>(q), a.end());
            const CommVector suffix_b(b.begin() + static_cast<std::ptrdiff_t>(q), b.end());
            EXPECT_TRUE(precedes_or_equal(suffix_a, suffix_b))
                << chain.describe() << ": crossing at q=" << q << " between "
                << to_string(a) << " and " << to_string(b);
          }
        }
      }
    }
  }
}

TEST(ChainTrace, HullAndOccupancyAreMonotone) {
  // Backward construction: hulls and occupancies only move earlier.
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const ChainTrace trace = trace_schedule(chain, 5);
  for (std::size_t s = 1; s < trace.steps.size(); ++s) {
    for (std::size_t k = 0; k < chain.size(); ++k) {
      EXPECT_LE(trace.steps[s].hull_before[k], trace.steps[s - 1].hull_before[k]);
      EXPECT_LE(trace.steps[s].occupancy_before[k], trace.steps[s - 1].occupancy_before[k]);
    }
  }
}

TEST(ChainTrace, Fig2FirstDecision) {
  // The first backward step of the Fig 2 instance: anchored at T∞ = 14
  // (for n=5: 2 + 4*3 + 3 = 17? no — T∞ uses the first processor:
  // 2 + 4·max(3,2) + 3 = 17).  The last task lands on processor 1 ending
  // at 17.
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const ChainTrace trace = trace_schedule(chain, 5);
  EXPECT_EQ(trace.horizon, 17);
  const ChainTraceStep& first = trace.steps.front();
  // Candidates: to proc 1: {17-3-2} = {12}; to proc 2: {17-5-3-2, 17-5-3} = {7, 9}.
  ASSERT_EQ(first.candidates.size(), 2u);
  EXPECT_EQ(first.candidates[0], (CommVector{12}));
  EXPECT_EQ(first.candidates[1], (CommVector{7, 9}));
  EXPECT_EQ(first.chosen, 0u);
  EXPECT_EQ(first.placed.start, 14);  // 17 - w1
}

TEST(ChainTrace, DecisionFormStopsLikeTheScheduler) {
  const Chain fig2 = Chain::from_vectors({2, 3}, {3, 5});
  const ChainTrace trace = trace_backward(fig2, 14, 100, /*stop_on_negative=*/true);
  EXPECT_EQ(trace.schedule.num_tasks(), 5u);
  EXPECT_EQ(trace.schedule.num_tasks(), ChainScheduler::max_tasks(fig2, 14, 100));

  Rng rng(64);
  ChainCountScratch scratch;
  ChainSchedule pooled;
  for (const Chain& chain : oracle_chains()) {
    for (int trial = 0; trial < 4; ++trial) {
      const Time horizon = rng.uniform(0, chain.t_infinity(30));
      const auto cap = static_cast<std::size_t>(rng.uniform(0, 60));
      expect_kernel_matches_trace(chain, horizon, cap, /*stop_on_negative=*/true, scratch,
                                  pooled);
    }
  }
}

TEST(ChainTrace, RejectsZeroTasks) {
  EXPECT_THROW(trace_schedule(Chain::from_vectors({1}, {1}), 0), std::invalid_argument);
}

}  // namespace
}  // namespace mst
