#include "mst/baselines/asap.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// `from + size · latency`: when a task of `size` units occupying a link or
/// processor of per-unit `latency` from `from` releases it.  Refused by
/// name when it overflows int64 — the platform or workload lies outside the
/// numeric domain, and a wrapped time would print as a schedule.
Time after(Time from, Time size, Time latency) {
  Time span = 0;
  Time out = 0;
  const bool overflow =
      __builtin_mul_overflow(size, latency, &span) || __builtin_add_overflow(from, span, &out);
  MST_REQUIRE(!overflow, "ASAP timing: a schedule time overflows int64 (the platform or "
                         "workload lies outside the numeric domain)");
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Chain
// ---------------------------------------------------------------------------

ChainAsapState::ChainAsapState(const Chain& chain)
    : chain_(chain), link_free_(chain.size(), 0), proc_free_(chain.size(), 0) {}

Time ChainAsapState::peek_completion(std::size_t dest, Time size, Time release) const {
  MST_REQUIRE(dest < chain_.size(), "destination outside the chain");
  Time emission = std::max(link_free_[0], release);
  for (std::size_t k = 1; k <= dest; ++k) {
    emission = std::max(after(emission, size, chain_.comm(k - 1)), link_free_[k]);
  }
  const Time arrival = after(emission, size, chain_.comm(dest));
  const Time start = std::max(arrival, proc_free_[dest]);
  return after(start, size, chain_.work(dest));
}

ChainTask ChainAsapState::commit(std::size_t dest, Time size, Time release) {
  MST_REQUIRE(dest < chain_.size(), "destination outside the chain");
  ChainTask task;
  task.proc = dest;
  task.emissions.resize(dest + 1);
  Time emission = std::max(link_free_[0], release);
  task.emissions[0] = emission;
  for (std::size_t k = 1; k <= dest; ++k) {
    emission = std::max(after(emission, size, chain_.comm(k - 1)), link_free_[k]);
    task.emissions[k] = emission;
  }
  for (std::size_t k = 0; k <= dest; ++k) {
    link_free_[k] = after(task.emissions[k], size, chain_.comm(k));
  }
  const Time arrival = after(task.emissions[dest], size, chain_.comm(dest));
  task.start = std::max(arrival, proc_free_[dest]);
  proc_free_[dest] = after(task.start, size, chain_.work(dest));
  return task;
}

ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests) {
  ChainAsapState state(chain);
  ChainSchedule schedule{chain, {}};
  schedule.tasks.reserve(dests.size());
  for (std::size_t dest : dests) schedule.tasks.push_back(state.commit(dest));
  return schedule;
}

ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests,
                                  const Workload& workload) {
  MST_REQUIRE(workload.count() == dests.size(),
              "workload and destination sequence must have the same length");
  ChainAsapState state(chain);
  ChainSchedule schedule{chain, {}};
  schedule.tasks.reserve(dests.size());
  for (std::size_t i = 0; i < dests.size(); ++i) {
    schedule.tasks.push_back(
        state.commit(dests[i], workload.size_of(i), workload.release_of(i)));
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Spider
// ---------------------------------------------------------------------------

SpiderAsapState::SpiderAsapState(const Spider& spider) : spider_(spider) {
  link_free_.resize(spider.num_legs());
  proc_free_.resize(spider.num_legs());
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    link_free_[l].assign(spider.leg(l).size(), 0);
    proc_free_[l].assign(spider.leg(l).size(), 0);
  }
}

std::vector<Time> SpiderAsapState::emissions_for(const SpiderDest& dest, Time size,
                                                 Time release) const {
  MST_REQUIRE(dest.leg < spider_.num_legs(), "leg outside the spider");
  const Chain& leg = spider_.leg(dest.leg);
  MST_REQUIRE(dest.proc < leg.size(), "processor outside the leg");
  std::vector<Time> emissions(dest.proc + 1);
  // The master's one-port serializes first emissions across legs; the leg's
  // own first link can only be busy through the port, so the port bound
  // dominates.  The release date gates the master emission only.
  Time emission = std::max({port_free_, link_free_[dest.leg][0], release});
  emissions[0] = emission;
  for (std::size_t k = 1; k <= dest.proc; ++k) {
    emission = std::max(after(emission, size, leg.comm(k - 1)), link_free_[dest.leg][k]);
    emissions[k] = emission;
  }
  return emissions;
}

Time SpiderAsapState::peek_completion(const SpiderDest& dest, Time size, Time release) const {
  const std::vector<Time> emissions = emissions_for(dest, size, release);
  const Chain& leg = spider_.leg(dest.leg);
  const Time arrival = after(emissions.back(), size, leg.comm(dest.proc));
  const Time start = std::max(arrival, proc_free_[dest.leg][dest.proc]);
  return after(start, size, leg.work(dest.proc));
}

SpiderTask SpiderAsapState::commit(const SpiderDest& dest, Time size, Time release) {
  std::vector<Time> emissions = emissions_for(dest, size, release);
  const Chain& leg = spider_.leg(dest.leg);
  SpiderTask task;
  task.leg = dest.leg;
  task.proc = dest.proc;
  port_free_ = after(emissions[0], size, leg.comm(0));
  for (std::size_t k = 0; k <= dest.proc; ++k) {
    link_free_[dest.leg][k] = after(emissions[k], size, leg.comm(k));
  }
  const Time arrival = after(emissions.back(), size, leg.comm(dest.proc));
  task.start = std::max(arrival, proc_free_[dest.leg][dest.proc]);
  proc_free_[dest.leg][dest.proc] = after(task.start, size, leg.work(dest.proc));
  task.emissions = std::move(emissions);
  return task;
}

SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests) {
  SpiderAsapState state(spider);
  SpiderSchedule schedule{spider, {}};
  schedule.tasks.reserve(dests.size());
  for (const SpiderDest& dest : dests) schedule.tasks.push_back(state.commit(dest));
  return schedule;
}

SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests,
                                    const Workload& workload) {
  MST_REQUIRE(workload.count() == dests.size(),
              "workload and destination sequence must have the same length");
  SpiderAsapState state(spider);
  SpiderSchedule schedule{spider, {}};
  schedule.tasks.reserve(dests.size());
  for (std::size_t i = 0; i < dests.size(); ++i) {
    schedule.tasks.push_back(
        state.commit(dests[i], workload.size_of(i), workload.release_of(i)));
  }
  return schedule;
}

}  // namespace mst
