// Pinned digest of the materialized fork and spider schedules, task by
// task.  A fixed catalog of random forks and spiders — all five generator
// classes, identical and released workloads, makespan and decision forms,
// capped and uncapped — is solved through the value forms (fresh scratch)
// and again through the `_into` forms on one warm scratch shared by every
// instance.  Each task's every field, plus every count and makespan the
// count paths report, is folded into one FNV-1a digest; both paths must
// reproduce the pinned value.
//
// The digest changes iff some schedule changes.  A change is a behaviour
// change: record old -> new with its reason in CHANGES.md, then update
// kPinnedDigest to the value the failure message prints.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mst/common/rng.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"

namespace mst {
namespace {

constexpr std::uint64_t kPinnedDigest = 0x5434f2d25e138307ull;

class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((word >> (8 * byte)) & 0xffu)) * 0x100000001b3ull;
    }
  }
  void add(const ForkSchedule& s) {
    add(s.tasks.size());
    for (const ForkTask& t : s.tasks) {
      add(t.slave);
      add(static_cast<std::uint64_t>(t.emission));
      add(static_cast<std::uint64_t>(t.start));
    }
  }
  void add(const SpiderSchedule& s) {
    add(s.tasks.size());
    for (const SpiderTask& t : s.tasks) {
      add(t.leg);
      add(t.proc);
      add(static_cast<std::uint64_t>(t.start));
      add(t.emissions.size());
      for (const Time e : t.emissions) add(static_cast<std::uint64_t>(e));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

Workload released_workload(Rng& rng, std::size_t n, Time spread) {
  std::vector<Time> releases(n);
  for (Time& r : releases) r = rng.uniform(0, spread);
  return Workload::released(std::move(releases));
}

constexpr std::size_t kSeeds = 6;
constexpr std::size_t kCounts[] = {1, 5, 17};
constexpr std::size_t kCaps[] = {3, 1000};

/// One scratch per kind, shared by every instance of the `_into` run.
struct WarmScratch {
  ForkCountScratch fork;
  ForkSchedule fork_out;
  SpiderSolveScratch spider;
  SpiderSchedule spider_out;
};

/// Each catalog runs the value forms when `warm` is null and the `_into`
/// forms on the warm scratch otherwise.
std::uint64_t fork_digest(WarmScratch* warm) {
  Digest digest;
  for (const PlatformClass cls : all_platform_classes()) {
    Rng rng(0x5eed0000u + static_cast<std::uint64_t>(cls));
    for (std::size_t seed = 0; seed < kSeeds; ++seed) {
      const Fork fork = random_fork(rng, static_cast<std::size_t>(rng.uniform(1, 6)),
                                    GeneratorParams{1, 12, cls});
      const Workload released = released_workload(rng, 9, 30);
      for (const std::size_t n : kCounts) {
        if (warm == nullptr) {
          digest.add(ForkScheduler::schedule(fork, n));
        } else {
          ForkScheduler::schedule_into(fork, n, warm->fork, warm->fork_out);
          digest.add(warm->fork_out);
        }
      }
      if (warm == nullptr) {
        digest.add(ForkScheduler::schedule(fork, released));
      } else {
        ForkScheduler::schedule_into(fork, released, warm->fork, warm->fork_out);
        digest.add(warm->fork_out);
      }
      const Time span = ForkScheduler::makespan(fork, 17);
      for (const Time t_lim : {Time{0}, span / 3, span / 2, span, span + 7}) {
        for (const std::size_t cap : kCaps) {
          ForkCountScratch local;
          ForkCountScratch& scratch = warm != nullptr ? warm->fork : local;
          digest.add(ForkScheduler::count_within(fork, t_lim, cap, scratch));
          const auto [count, makespan] = ForkScheduler::makespan_within(fork, t_lim, cap, scratch);
          digest.add(count);
          digest.add(static_cast<std::uint64_t>(makespan));
          digest.add(ForkScheduler::count_within(fork, t_lim, released, cap, scratch));
          const auto [rcount, rmakespan] =
              ForkScheduler::makespan_within(fork, t_lim, released, cap, scratch);
          digest.add(rcount);
          digest.add(static_cast<std::uint64_t>(rmakespan));
          if (warm == nullptr) {
            digest.add(ForkScheduler::schedule_within(fork, t_lim, cap));
            digest.add(ForkScheduler::schedule_within(fork, t_lim, released, cap));
          } else {
            ForkScheduler::schedule_within_into(fork, t_lim, cap, warm->fork, warm->fork_out);
            digest.add(warm->fork_out);
            ForkScheduler::schedule_within_into(fork, t_lim, released, cap, warm->fork,
                                                warm->fork_out);
            digest.add(warm->fork_out);
          }
        }
      }
    }
  }
  return digest.value();
}

std::uint64_t spider_digest(WarmScratch* warm) {
  Digest digest;
  for (const PlatformClass cls : all_platform_classes()) {
    Rng rng(0x5d1de500u + static_cast<std::uint64_t>(cls));
    for (std::size_t seed = 0; seed < kSeeds; ++seed) {
      const Spider spider = random_spider(rng, static_cast<std::size_t>(rng.uniform(1, 4)), 3,
                                          GeneratorParams{1, 12, cls});
      const Workload released = released_workload(rng, 9, 30);
      for (const std::size_t n : kCounts) {
        if (warm == nullptr) {
          digest.add(SpiderScheduler::schedule(spider, n));
        } else {
          SpiderScheduler::schedule_into(spider, n, warm->spider, warm->spider_out);
          digest.add(warm->spider_out);
        }
      }
      if (warm == nullptr) {
        digest.add(SpiderScheduler::schedule(spider, released));
      } else {
        SpiderScheduler::schedule_into(spider, released, warm->spider, warm->spider_out);
        digest.add(warm->spider_out);
      }
      const Time span = SpiderScheduler::makespan(spider, 17);
      for (const Time t_lim : {Time{0}, span / 3, span / 2, span, span + 7}) {
        for (const std::size_t cap : kCaps) {
          SpiderCountScratch local;
          SpiderCountScratch& scratch = warm != nullptr ? warm->spider.count : local;
          digest.add(SpiderScheduler::count_within(spider, t_lim, cap, scratch));
          digest.add(SpiderScheduler::count_within(spider, t_lim, released, cap, scratch));
          if (warm == nullptr) {
            digest.add(SpiderScheduler::schedule_within(spider, t_lim, cap));
            digest.add(SpiderScheduler::schedule_within(spider, t_lim, released, cap));
          } else {
            SpiderScheduler::schedule_within_into(spider, t_lim, cap, warm->spider,
                                                  warm->spider_out);
            digest.add(warm->spider_out);
            SpiderScheduler::schedule_within_into(spider, t_lim, released, cap, warm->spider,
                                                  warm->spider_out);
            digest.add(warm->spider_out);
          }
        }
      }
    }
  }
  return digest.value();
}

std::uint64_t catalog_digest(WarmScratch* warm) {
  Digest digest;
  digest.add(fork_digest(warm));
  digest.add(spider_digest(warm));
  return digest.value();
}

TEST(ScheduleDigest, ValueFormsMatchPinnedDigest) {
  const std::uint64_t digest = catalog_digest(nullptr);
  EXPECT_EQ(digest, kPinnedDigest) << std::hex << "digest is 0x" << digest;
}

TEST(ScheduleDigest, WarmIntoFormsMatchPinnedDigest) {
  WarmScratch warm;
  const std::uint64_t digest = catalog_digest(&warm);
  EXPECT_EQ(digest, kPinnedDigest) << std::hex << "digest is 0x" << digest;
}

}  // namespace
}  // namespace mst
