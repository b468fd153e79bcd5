#include "mst/api/registry.hpp"

#include <algorithm>

#include "mst/api/solve_scratch.hpp"
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "mst/baselines/asap.hpp"
#include "mst/baselines/brute_force.hpp"
#include "mst/baselines/forward_greedy.hpp"
#include "mst/baselines/periodic.hpp"
#include "mst/baselines/round_robin.hpp"
#include "mst/baselines/single_node.hpp"
#include "mst/baselines/tree_asap.hpp"
#include "mst/core/bounds.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/heuristics/local_search.hpp"
#include "mst/heuristics/tree_schedule.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/platform_sim.hpp"
#include "mst/sim/streaming.hpp"

namespace mst::api {

// The Platform variant and its kind helpers moved to the platform layer
// (src/mst/platform/any.cpp); `registry.hpp` re-exports them into this
// namespace.

namespace {

// Alternative extraction with an error message naming the algorithm, so a
// mismatched dispatch reads "optimal: expected a chain platform" instead of
// a bare bad_variant_access.
template <typename T>
const T& expect(const Platform& platform, const char* algorithm, const char* kind_name) {
  const T* p = std::get_if<T>(&platform);
  if (p == nullptr) {
    throw std::invalid_argument(std::string(algorithm) + ": expected a " + kind_name +
                                " platform, got " + to_string(kind_of(platform)));
  }
  return *p;
}

const Chain& expect_chain(const Platform& p, const char* a) { return expect<Chain>(p, a, "chain"); }
const Fork& expect_fork(const Platform& p, const char* a) { return expect<Fork>(p, a, "fork"); }
const Spider& expect_spider(const Platform& p, const char* a) {
  return expect<Spider>(p, a, "spider");
}
const Tree& expect_tree(const Platform& p, const char* a) { return expect<Tree>(p, a, "tree"); }

void require_tasks(std::size_t n) {
  if (n == 0) throw std::invalid_argument("solve: need at least one task");
}

void require_tasks(const Workload& workload) { require_tasks(workload.count()); }

/// The capability gate: unsupported workload features are rejected up
/// front, with a message naming algorithm, feature and remedy — never
/// silently mis-scheduled.
void require_supported(std::string_view algorithm, const WorkloadFeatures& supports,
                       const WorkloadFeatures& requested) {
  if (requested.subset_of(supports)) return;
  std::ostringstream os;
  os << "algorithm '" << algorithm << "' does not support workloads with "
     << to_string(requested) << " (supported: " << to_string(supports)
     << "); see the capability matrix in mstctl --mode=list";
  throw std::invalid_argument(os.str());
}

/// Per-algorithm dispatch counter, e.g. "api.solve.optimal".  The name is
/// assembled in a stack buffer — instrumented dispatch allocates nothing the
/// uninstrumented one does not.
void count_dispatch(obs::MetricsRegistry* metrics, const char* prefix,
                    std::string_view algorithm) {
  if (metrics == nullptr) return;
  char name[obs::MetricsRegistry::kNameCapacity];
  std::snprintf(name, sizeof name, "%s%.*s", prefix, static_cast<int>(algorithm.size()),
                algorithm.data());
  metrics->counter(name).increment();
}

}  // namespace

// ---------------------------------------------------------------------------
// Results

double SolveResult::throughput() const {
  if (tasks == 0) return 0.0;
  // A nonempty schedule claiming zero (or negative) time is a degenerate
  // platform description, not a slow one — surface it as +inf so sweep
  // tables cannot silently bury it at the bottom of a ranking.
  if (makespan <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(tasks) / static_cast<double>(makespan);
}

double DecisionResult::throughput() const {
  if (tasks == 0) return 0.0;
  if (deadline <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(tasks) / static_cast<double>(deadline);
}

namespace {

void check_task_count(std::size_t claimed, std::size_t scheduled, FeasibilityReport& out) {
  if (scheduled != claimed) {
    std::ostringstream os;
    os << "task count mismatch: result claims " << claimed << " tasks, schedule holds "
       << scheduled;
    out.add_violation(os.str());
  }
}

void check_makespan(Time claimed, Time actual, bool exact, FeasibilityReport& out) {
  const bool bad = exact ? actual != claimed : actual > claimed;
  if (bad) {
    std::ostringstream os;
    os << "makespan mismatch: result claims " << claimed << ", schedule "
       << (exact ? "has" : "replays to") << " " << actual;
    out.add_violation(os.str());
  }
}

/// The payload checks shared by the makespan- and decision-form reports:
/// workload-aware Definition 1 feasibility plus task-count / makespan
/// consistency.  Results built outside the registry may carry a default
/// workload; they are checked under identical-task semantics.
FeasibilityReport check_payload(const AnySchedule& schedule, std::size_t tasks, Time makespan,
                                const Workload& workload) {
  FeasibilityReport report;
  const Workload& effective =
      workload.count() == tasks ? workload : Workload::identical(tasks);
  if (tasks > 0 && makespan <= 0) {
    std::ostringstream os;
    os << "degenerate result: " << tasks << " tasks in non-positive makespan " << makespan;
    report.add_violation(os.str());
  }
  std::visit(
      [&](const auto& payload) {
        using S = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<S, ChainSchedule> || std::is_same_v<S, ForkSchedule> ||
                      std::is_same_v<S, SpiderSchedule>) {
          const Workload& payload_workload =
              payload.num_tasks() == effective.count() ? effective
                                                       : Workload::identical(payload.num_tasks());
          const FeasibilityReport inner = mst::check_feasibility(payload, payload_workload);
          for (const std::string& v : inner.violations()) report.add_violation(v);
          check_task_count(tasks, payload.num_tasks(), report);
          check_makespan(makespan, payload.makespan(), /*exact=*/true, report);
        } else if constexpr (std::is_same_v<S, TreeDispatch>) {
          bool dests_ok = true;
          for (NodeId dest : payload.dests) {
            if (dest == 0 || dest >= payload.tree.size()) {
              std::ostringstream os;
              os << "dispatch destination " << dest << " is not a slave of the tree";
              report.add_violation(os.str());
              dests_ok = false;
            }
          }
          if (dests_ok) {
            // No link-level timing to verify — replay the plan operationally
            // (sizes scaled, release dates gating the master).  The replay
            // may only move work earlier (eager forwarding), so the reported
            // makespan must be an upper bound on it.
            const Workload& replay_workload =
                payload.dests.size() == effective.count()
                    ? effective
                    : Workload::identical(payload.dests.size());
            const sim::SimResult replay =
                sim::simulate_dispatch(payload.tree, payload.dests, replay_workload);
            check_task_count(tasks, replay.num_tasks(), report);
            check_makespan(makespan, replay.makespan, /*exact=*/false, report);
          }
        } else {
          report.add_violation("algorithm reported a makespan without a materialized schedule");
        }
      },
      schedule);
  return report;
}

}  // namespace

FeasibilityReport check_feasibility(const SolveResult& result) {
  return check_payload(result.schedule, result.tasks, result.makespan, result.workload);
}

FeasibilityReport check_feasibility(const DecisionResult& result) {
  FeasibilityReport report;
  if (result.tasks == 0) {
    // An empty decision result is the correct answer for an impossible
    // window (including negative deadlines); it must carry no payload and
    // claim no completion time.
    if (!std::holds_alternative<std::monostate>(result.schedule)) {
      report.add_violation("empty decision result carries a schedule payload");
    }
    if (result.makespan != 0) {
      std::ostringstream os;
      os << "empty decision result claims a makespan of " << result.makespan;
      report.add_violation(os.str());
    }
    return report;
  }
  if (result.makespan > result.deadline) {
    std::ostringstream os;
    os << "deadline exceeded: makespan " << result.makespan << " > deadline " << result.deadline;
    report.add_violation(os.str());
  }
  const FeasibilityReport payload =
      check_payload(result.schedule, result.tasks, result.makespan, result.workload);
  for (const std::string& v : payload.violations()) report.add_violation(v);
  return report;
}

// ---------------------------------------------------------------------------
// Registry mechanics

// ---------------------------------------------------------------------------
// Scheduler defaults: decision form by makespan inversion

DecisionResult Scheduler::solve_within(const Platform& platform, Time deadline,
                                       const SolveOptions& options) const {
  // Invert the makespan form: the largest task set whose makespan fits the
  // window, found by exponential growth then binary search.  Exact whenever
  // the algorithm's makespan is monotone non-decreasing in the task count.
  // With a finite pool (`options.workload`) the probes are the pool's
  // canonical prefixes — appending a task never shrinks a makespan, so the
  // same search applies.
  SolveOptions probe = options;
  probe.materialize = false;
  const Workload* pool = options.workload.get();
  const std::size_t cap =
      std::min(std::max<std::size_t>(1, options.cap),
               pool != nullptr ? pool->count() : std::numeric_limits<std::size_t>::max());

  DecisionResult out;
  out.kind = kind_of(platform);
  out.deadline = deadline;
  // Trivially-empty window (or empty pool): skip the probe solve entirely.
  // The algorithm name stays empty here; Registry::solve_within fills it on
  // dispatch.
  if (deadline <= 0 || cap == 0) return out;

  // Instrumentation point: every makespan-form evaluation the inversion
  // spends — exponential growth, bisection and the final materializing
  // solve — lands on one counter.
  obs::Counter probes;
  if (options.metrics != nullptr) {
    probes = options.metrics->counter("api.decision.probe_solves");
  }
  const auto probe_solve = [&](std::size_t k, const SolveOptions& solve_options) {
    probes.increment();
    return pool != nullptr ? solve(platform, pool->prefix(k), solve_options)
                           : solve(platform, k, solve_options);
  };

  const SolveResult first = probe_solve(1, probe);
  out.algorithm = first.algorithm;
  out.optimal = first.optimal;  // an optimal makespan form inverts exactly
  if (first.makespan > deadline) return out;

  std::size_t lo = 1;  // largest count known to fit
  Time lo_makespan = first.makespan;
  std::size_t hi = 1;  // first count known not to fit, once lo < hi
  while (lo == hi && hi < cap) {
    const std::size_t next = hi > cap / 2 ? cap : hi * 2;
    const SolveResult r = probe_solve(next, probe);
    if (r.makespan <= deadline) {
      lo = next;
      lo_makespan = r.makespan;
    }
    hi = next;
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const SolveResult r = probe_solve(mid, probe);
    if (r.makespan <= deadline) {
      lo = mid;
      lo_makespan = r.makespan;
    } else {
      hi = mid;
    }
  }

  out.tasks = lo;
  out.makespan = lo_makespan;
  // A search stopped by the cap may be truncated — the count is then not
  // provably maximal no matter how exact the makespan form is.  Exhausting
  // a finite pool, by contrast, is proof.
  out.optimal = out.optimal && (lo < cap || (pool != nullptr && lo >= pool->count()));
  if (options.materialize) {
    SolveResult full = probe_solve(lo, options);
    out.makespan = full.makespan;
    out.schedule = std::move(full.schedule);
  }
  return out;
}

std::size_t Scheduler::max_tasks(const Platform& platform, Time deadline,
                                 const SolveOptions& options) const {
  SolveOptions count_only = options;
  count_only.materialize = false;
  return solve_within(platform, deadline, count_only).tasks;
}

namespace {

/// Adapts callables to the Scheduler interface (used by both lambda
/// overloads of Registry::add and by every built-in registration below).
/// Enforces the `materialize` contract and the workload capability gate
/// centrally, so individual registrations cannot forget either.
class FunctionScheduler final : public Scheduler {
 public:
  FunctionScheduler(std::string name, WorkloadFeatures supports, Registry::SolveFn solve_fn,
                    Registry::DecisionFn within_fn)
      : name_(std::move(name)),
        supports_(supports),
        solve_fn_(std::move(solve_fn)),
        within_fn_(std::move(within_fn)) {}

  using Scheduler::solve;

  [[nodiscard]] SolveResult solve(const Platform& platform, const Workload& workload,
                                  const SolveOptions& options) const override {
    require_supported(name_, supports_, workload.features());
    SolveResult result = solve_fn_(platform, workload, options);
    result.workload = workload;
    if (!options.materialize) {
      // Stripping a pooled payload must return its buffers to the scratch,
      // not free them — count-only sweeps recycle here, every solve.
      if (options.scratch != nullptr) options.scratch->recycle_schedule(std::move(result.schedule));
      result.schedule = std::monostate{};
    }
    return result;
  }

  [[nodiscard]] DecisionResult solve_within(const Platform& platform, Time deadline,
                                            const SolveOptions& options) const override {
    if (options.workload != nullptr) {
      require_supported(name_, supports_, options.workload->features());
    }
    if (!within_fn_) return Scheduler::solve_within(platform, deadline, options);
    DecisionResult result = within_fn_(platform, deadline, options);
    if (!options.materialize) {
      if (options.scratch != nullptr) options.scratch->recycle_schedule(std::move(result.schedule));
      result.schedule = std::monostate{};
    }
    return result;
  }

 private:
  std::string name_;
  WorkloadFeatures supports_;
  Registry::SolveFn solve_fn_;
  Registry::DecisionFn within_fn_;
};

}  // namespace

void Registry::add(AlgorithmInfo info, std::shared_ptr<const Scheduler> scheduler) {
  if (info.name.empty()) throw std::invalid_argument("registry: algorithm name must be non-empty");
  if (scheduler == nullptr) throw std::invalid_argument("registry: null scheduler");
  if (find(info.kind, info.name) != nullptr) {
    throw std::invalid_argument("registry: duplicate algorithm (" + to_string(info.kind) + ", " +
                                info.name + ")");
  }
  entries_.push_back(Entry{std::move(info), std::move(scheduler)});
}

void Registry::add(AlgorithmInfo info,
                   std::function<SolveResult(const Platform&, std::size_t)> fn) {
  if (fn == nullptr) throw std::invalid_argument("registry: null solve function");
  // The callable only sees a count: identical workloads only, whatever the
  // info claims.
  info.supports = WorkloadFeatures{};
  add(std::move(info),
      [fn = std::move(fn)](const Platform& p, const Workload& w, const SolveOptions&) {
        return fn(p, w.count());
      },
      nullptr);
}

void Registry::add(AlgorithmInfo info, SolveFn solve_fn, DecisionFn within_fn) {
  if (solve_fn == nullptr) throw std::invalid_argument("registry: null solve function");
  auto scheduler = std::make_shared<const FunctionScheduler>(
      info.name, info.supports, std::move(solve_fn), std::move(within_fn));
  add(std::move(info), std::move(scheduler));
}

bool Registry::supports(PlatformKind kind, std::string_view name,
                        const WorkloadFeatures& features) const {
  const AlgorithmInfo* entry = info(kind, name);
  return entry != nullptr && features.subset_of(entry->supports);
}

const Scheduler* Registry::find(PlatformKind kind, std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.info.kind == kind && e.info.name == name) return e.scheduler.get();
  }
  return nullptr;
}

const AlgorithmInfo* Registry::info(PlatformKind kind, std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.info.kind == kind && e.info.name == name) return &e.info;
  }
  return nullptr;
}

std::vector<AlgorithmInfo> Registry::list() const {
  std::vector<AlgorithmInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.info);
  return out;
}

std::vector<AlgorithmInfo> Registry::list(PlatformKind kind) const {
  std::vector<AlgorithmInfo> out;
  for (const Entry& e : entries_) {
    if (e.info.kind == kind) out.push_back(e.info);
  }
  return out;
}

std::vector<std::string> Registry::names(PlatformKind kind) const {
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    if (e.info.kind == kind) out.push_back(e.info.name);
  }
  return out;
}

namespace {

const Scheduler& resolve(const Registry& registry, const Platform& platform,
                         std::string_view algorithm) {
  const PlatformKind kind = kind_of(platform);
  const Scheduler* scheduler = registry.find(kind, algorithm);
  if (scheduler == nullptr) {
    std::ostringstream os;
    os << "no algorithm '" << algorithm << "' for " << to_string(kind) << " platforms; known:";
    for (const std::string& name : registry.names(kind)) os << " " << name;
    throw std::invalid_argument(os.str());
  }
  return *scheduler;
}

}  // namespace

SolveResult Registry::solve(const Platform& platform, std::string_view algorithm,
                            const Workload& workload, const SolveOptions& options) const {
  // Central capability gate (FunctionScheduler re-checks for direct
  // Scheduler access; custom schedulers registered by pointer rely on this
  // one).
  if (const AlgorithmInfo* entry = info(kind_of(platform), algorithm)) {
    require_supported(algorithm, entry->supports, workload.features());
  }
  count_dispatch(options.metrics, "api.solve.", algorithm);
  SolveResult result = resolve(*this, platform, algorithm).solve(platform, workload, options);
  // A makespan outside the domain is an overflowed schedule, not a slow
  // one: refuse it by name rather than print it as feasible.  The domain is
  // `[0, kTimeInfinity)` past the last release (0 for identical workloads):
  // releases may reach just below kTimeInfinity, and a real schedule ends
  // less than kTimeInfinity after its last task arrives.
  if (result.makespan < 0 || result.makespan - workload.last_release() >= kTimeInfinity) {
    std::ostringstream os;
    os << "algorithm '" << algorithm << "': makespan " << result.makespan
       << " lies outside the numeric domain [0, last release + kTimeInfinity); refusing an "
          "overflowed result";
    throw std::invalid_argument(os.str());
  }
  result.workload = workload;
  return result;
}

SolveResult Registry::solve(const Platform& platform, std::string_view algorithm, std::size_t n,
                            const SolveOptions& options) const {
  return solve(platform, algorithm, Workload::identical(n), options);
}

namespace {

/// The decision forms' numeric domain, checked once at the registry's
/// entry: every schedule time below a deadline must stay below
/// `kTimeInfinity`, so the time arithmetic under it cannot overflow.
void require_deadline_in_domain(Time deadline) {
  MST_REQUIRE(deadline < kTimeInfinity, "deadline: a decision-form deadline must stay below "
                                        "kTimeInfinity");
}

}  // namespace

DecisionResult Registry::solve_within(const Platform& platform, std::string_view algorithm,
                                      Time deadline, const SolveOptions& options) const {
  require_deadline_in_domain(deadline);
  if (options.workload != nullptr) {
    if (const AlgorithmInfo* entry = info(kind_of(platform), algorithm)) {
      require_supported(algorithm, entry->supports, options.workload->features());
    }
  }
  count_dispatch(options.metrics, "api.decide.", algorithm);
  DecisionResult result =
      resolve(*this, platform, algorithm).solve_within(platform, deadline, options);
  // The adapter's empty-window early return has no probe to learn its
  // registry name from.
  if (result.algorithm.empty()) result.algorithm = algorithm;
  // The tasks that made the count: canonical prefix of the pool, or the
  // identical stream's first `tasks`.
  result.workload = options.workload != nullptr ? options.workload->prefix(result.tasks)
                                                : Workload::identical(result.tasks);
  return result;
}

std::size_t Registry::max_tasks(const Platform& platform, std::string_view algorithm,
                                Time deadline, const SolveOptions& options) const {
  require_deadline_in_domain(deadline);
  return resolve(*this, platform, algorithm).max_tasks(platform, deadline, options);
}

// ---------------------------------------------------------------------------
// Built-in algorithms

namespace {

SolveResult make_result(const char* algorithm, PlatformKind kind, std::size_t tasks,
                        Time makespan, Time lower_bound, bool optimal, AnySchedule schedule) {
  SolveResult result;
  result.algorithm = algorithm;
  result.kind = kind;
  result.tasks = tasks;
  result.makespan = makespan;
  result.lower_bound = lower_bound;
  result.optimal = optimal;
  result.schedule = std::move(schedule);
  return result;
}

// NB: makespan and bound are computed into locals before the `make_result`
// call — argument evaluation order is unspecified, so `schedule.makespan()`
// must not race the `std::move(schedule)` argument.
SolveResult chain_result(const char* algorithm, ChainSchedule schedule, std::size_t n,
                         bool optimal) {
  const Time lb = chain_makespan_lower_bound(schedule.chain, n);
  const Time makespan = schedule.makespan();
  return make_result(algorithm, PlatformKind::kChain, n, makespan, lb, optimal,
                     std::move(schedule));
}

SolveResult spider_result(const char* algorithm, PlatformKind kind, SpiderSchedule schedule,
                          std::size_t n, bool optimal) {
  const Time lb = spider_makespan_lower_bound(schedule.spider, n);
  const Time makespan = schedule.makespan();
  return make_result(algorithm, kind, n, makespan, lb, optimal, std::move(schedule));
}

SolveResult tree_result(const char* algorithm, const Tree& tree, std::vector<NodeId> dests,
                        Time makespan, std::size_t n) {
  TreeDispatch dispatch{tree, std::move(dests)};
  return make_result(algorithm, PlatformKind::kTree, n, makespan, /*lower_bound=*/0,
                     /*optimal=*/false, std::move(dispatch));
}

DecisionResult make_decision(const char* algorithm, PlatformKind kind, Time deadline,
                             std::size_t tasks, Time makespan, bool optimal,
                             AnySchedule schedule) {
  DecisionResult result;
  result.algorithm = algorithm;
  result.kind = kind;
  result.deadline = deadline;
  result.tasks = tasks;
  result.makespan = makespan;
  result.optimal = optimal;
  result.schedule = std::move(schedule);
  return result;
}

std::size_t decision_cap(const SolveOptions& options) {
  return std::max<std::size_t>(1, options.cap);
}

/// Workload features the built-ins declare.
constexpr WorkloadFeatures kReleaseOnly{/*sizes=*/false, /*release=*/true};
constexpr WorkloadFeatures kSizesAndRelease{/*sizes=*/true, /*release=*/true};
constexpr WorkloadFeatures kReleaseStreaming{/*sizes=*/false, /*release=*/true,
                                             /*streaming=*/true};
constexpr WorkloadFeatures kSizesReleaseStreaming{/*sizes=*/true, /*release=*/true,
                                                  /*streaming=*/true};

/// The decision-form task pool, when one was supplied.
const Workload* pool_of(const SolveOptions& options) { return options.workload.get(); }

/// Effective decision cap: the search cap, clamped to a finite pool.
std::size_t decision_cap(const SolveOptions& options, const Workload* pool) {
  const std::size_t cap = decision_cap(options);
  return pool != nullptr ? std::min(cap, pool->count()) : cap;
}

/// A count is provably maximal when the search was not truncated: it ended
/// strictly inside the cap, or it exhausted a finite pool.
bool decision_maximal(std::size_t tasks, std::size_t cap, const Workload* pool) {
  if (pool != nullptr && tasks >= pool->count()) return true;
  return tasks < cap;
}

/// Wraps a core decision-form schedule (`schedule_within` family, often a
/// pooled one) into a DecisionResult.  The core schedules stay absolute in
/// `[0, deadline]`, so `makespan() <= deadline` by construction.  The
/// schedule moves into the payload only when nonempty: an empty selection
/// yields a payload-free result and never discards a pool's warm buffers.
/// A count that hit `cap` may be truncated, so it is only reported as
/// provably maximal when it also exhausted a finite pool.
template <typename Schedule>
DecisionResult decision_from_pooled(const char* algorithm, PlatformKind kind, Time deadline,
                                    bool optimal, std::size_t cap, const Workload* pool,
                                    Schedule& schedule) {
  const std::size_t tasks = schedule.num_tasks();
  const Time makespan = schedule.makespan();
  AnySchedule payload;
  if (tasks > 0) payload = std::move(schedule);
  return make_decision(algorithm, kind, deadline, tasks, makespan,
                       optimal && decision_maximal(tasks, cap, pool), std::move(payload));
}

/// An exact solver's working set: the caller's SolveScratch buffers when
/// one was threaded through the options, else fresh local ones, e.g.
/// `Work work(opts, &SolveScratch::fork, &SolveScratch::fork_pool)`.
template <typename Scratch, typename Schedule>
struct Work {
  Scratch own_scratch;
  Schedule own_pool;
  Scratch& scratch;
  Schedule& pool;

  Work(const SolveOptions& options, Scratch SolveScratch::*scratch_member,
       Schedule SolveScratch::*pool_member)
      : scratch(options.scratch != nullptr ? options.scratch->*scratch_member : own_scratch),
        pool(options.scratch != nullptr ? options.scratch->*pool_member : own_pool) {}
};

/// `Work` for a solver whose only reusable buffer is its payload: the
/// caller's pooled schedule, else a fresh local one.
template <typename Schedule>
struct PoolWork {
  Schedule own_pool;
  Schedule& pool;

  PoolWork(const SolveOptions& options, Schedule SolveScratch::*pool_member)
      : pool(options.scratch != nullptr ? options.scratch->*pool_member : own_pool) {}
};

/// Adds one makespan search's probe count to the deterministic
/// `core.search.probes` counter (looked up once per solve, metrics on only).
void count_search_probes(obs::MetricsRegistry* metrics, std::size_t probes) {
  if (metrics == nullptr) return;
  metrics->counter("core.search.probes").add(static_cast<std::int64_t>(probes));
}

/// Fork and spider views of the run-selection solvers' working sets.
ForkCountScratch& count_scratch(ForkCountScratch& scratch) { return scratch; }
SpiderCountScratch& count_scratch(SpiderSolveScratch& scratch) { return scratch.count; }
Time makespan_lower_bound(const Fork& fork, std::size_t n, OnePortScratch& scratch) {
  return fork_makespan_lower_bound(fork, n, scratch);
}
Time makespan_lower_bound(const Spider& spider, std::size_t n, OnePortScratch& scratch) {
  return spider_makespan_lower_bound(spider, n, scratch);
}

/// The `optimal` entry of a kind solved by the one-port run-selection
/// driver (fork, spider): the makespan form through `schedule_into`, or —
/// identical workloads, `materialize == false` — through the count-only
/// `makespan` search, whose minimal horizon is the optimal makespan (the
/// decision form is exact there, and its schedule fits that horizon), so
/// no schedule is built only to be stripped; the decision form through
/// `makespan_within` (count only) or `schedule_within_into`.  Released
/// workloads always materialize: their DP is not exact, so the searched
/// horizon is not proven to equal the schedule's makespan.  The
/// positional-release selection commits to
/// one EDD emission order, which exhaustive search beats on some
/// instances: a released result is feasible, not proven optimal (or
/// maximal), and its search probes are not counted.
template <typename Scheduler, typename P, typename Scratch, typename Schedule>
struct RunOptimal {
  PlatformKind kind;
  const P& (*expect_platform)(const Platform&, const char*);
  Scratch SolveScratch::*scratch;
  Schedule SolveScratch::*pool;

  SolveResult operator()(const Platform& p, const Workload& w, const SolveOptions& opts) const {
    require_tasks(w);
    const P& platform = expect_platform(p, "optimal");
    const bool exact = !w.has_release_dates();
    Work work(opts, scratch, pool);
    if (exact && !opts.materialize) {
      const auto [horizon, probes] =
          Scheduler::makespan(platform, w.count(), count_scratch(work.scratch));
      count_search_probes(opts.metrics, probes);
      const Time lb =
          makespan_lower_bound(platform, w.count(), count_scratch(work.scratch).bound);
      return make_result("optimal", kind, w.count(), horizon, lb, /*optimal=*/true, {});
    }
    const std::size_t probes = Scheduler::schedule_into(platform, w, work.scratch, work.pool);
    if (exact) count_search_probes(opts.metrics, probes);
    const Time lb = makespan_lower_bound(platform, w.count(), count_scratch(work.scratch).bound);
    const Time makespan = work.pool.makespan();
    return make_result("optimal", kind, w.count(), makespan, lb, exact, std::move(work.pool));
  }

  DecisionResult operator()(const Platform& p, Time deadline, const SolveOptions& opts) const {
    const P& platform = expect_platform(p, "optimal");
    if (deadline <= 0) return make_decision("optimal", kind, deadline, 0, 0, true, {});
    const Workload* given = pool_of(opts);
    const std::size_t cap = decision_cap(opts, given);
    const Workload stream = Workload::identical(cap);  // a count: allocates nothing
    const Workload& tasks = given != nullptr ? *given : stream;
    const bool exact = !tasks.has_release_dates();
    Work work(opts, scratch, pool);
    if (!opts.materialize) {
      // Count + makespan without building task vectors: the same selection,
      // trim (or release replay) and sequencing as the materializing path.
      const auto [count, makespan] = Scheduler::makespan_within(platform, deadline, tasks, cap,
                                                                count_scratch(work.scratch));
      return make_decision("optimal", kind, deadline, count, makespan,
                           /*optimal=*/exact && decision_maximal(count, cap, given), {});
    }
    Scheduler::schedule_within_into(platform, deadline, tasks, cap, work.scratch, work.pool);
    return decision_from_pooled("optimal", kind, deadline, exact, cap, given, work.pool);
  }
};

/// Decision form of the exhaustive oracles, given one platform kind's
/// brute-force count, schedule and makespan: exact count from the monotone
/// makespan staircase, optionally materialized as the optimal schedule of
/// that count (its makespan fits the window by definition of the count).
template <typename P, typename Schedule>
DecisionResult brute_force_decision(PlatformKind kind, const P& platform, Time deadline,
                                    const SolveOptions& options,
                                    std::size_t (*max_tasks)(const P&, Time, std::size_t),
                                    Schedule (*schedule_of)(const P&, std::size_t),
                                    Time (*makespan_of)(const P&, std::size_t)) {
  const Workload* pool = pool_of(options);
  const std::size_t cap = decision_cap(options, pool);
  const std::size_t tasks = deadline > 0 && cap > 0 ? max_tasks(platform, deadline, cap) : 0;
  Time makespan = 0;
  AnySchedule payload;
  if (tasks > 0) {
    if (options.materialize) {
      Schedule schedule = schedule_of(platform, tasks);
      makespan = schedule.makespan();
      payload = std::move(schedule);
    } else {
      makespan = makespan_of(platform, tasks);
    }
  }
  return make_decision("brute-force", kind, deadline, tasks, makespan,
                       /*optimal=*/decision_maximal(tasks, cap, pool), std::move(payload));
}

/// The bandwidth-centric baseline as a makespan-form scheduler: dispatch the
/// first `n` destinations of the repeated periodic block with ASAP timing.
ChainSchedule periodic_prefix_schedule(const Chain& chain, std::size_t n) {
  const PeriodicPattern pattern = chain_periodic_pattern(chain);
  std::vector<std::size_t> dests;
  dests.reserve(n);
  while (dests.size() < n) {
    for (std::size_t dest : pattern.block) {
      if (dests.size() == n) break;
      dests.push_back(dest);
    }
  }
  return asap_chain_schedule(chain, dests);
}

/// Makespan form of the paper's §6 fork greedy: smallest window whose greedy
/// selection reaches `n` tasks, found by binary search (the count is
/// monotone in the window for the ascending-`c` greedy) with a doubling
/// safety net, then materialized.
ForkSchedule fork_greedy_schedule(const Fork& fork, std::size_t n) {
  Time lo = 1;
  Time hi = single_node_spider_makespan(Spider::from_fork(fork), n);
  while (ForkScheduler::greedy_max_tasks(fork, hi, n) < n) hi *= 2;
  while (lo < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (ForkScheduler::greedy_max_tasks(fork, mid, n) >= n) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  ForkSchedule schedule = ForkScheduler::greedy_schedule_within(fork, lo, n);
  while (schedule.num_tasks() < n) {
    lo *= 2;
    schedule = ForkScheduler::greedy_schedule_within(fork, lo, n);
  }
  return schedule;
}

/// Registers the streaming horizon re-planner for one exactly-solved kind.
/// The makespan form is the no-lookahead streaming simulation of the
/// workload's release stream (`sim/streaming.hpp`: the exact solver re-runs
/// on the known backlog at each arrival), materialized as the dispatch plan
/// on the embedded tree substrate; with every task released at 0 the single
/// plan is the offline optimum and the simulated makespan matches it.  The
/// streaming capability flag is what `mode=stream` sweep cells and
/// `mstctl --mode=stream` key on.
void register_replan(Registry& r, PlatformKind k) {
  r.add({k, "replan", "streaming horizon re-planning (exact solver re-run per arrival)",
         /*optimal=*/false, /*exponential=*/false, kReleaseStreaming},
        [k](const Platform& p, const Workload& w, const SolveOptions&) {
          require_tasks(w);
          Tree tree = sim::stream_substrate(p);
          const std::unique_ptr<sim::StreamPolicy> policy = sim::make_replan_policy(p);
          const sim::StreamResult run = sim::simulate_stream(tree, w, *policy);
          std::vector<NodeId> dests;
          dests.reserve(run.sim.tasks.size());
          for (const sim::SimTask& task : run.sim.tasks) dests.push_back(task.dest);
          TreeDispatch dispatch{std::move(tree), std::move(dests)};
          return make_result("replan", k, w.count(), run.sim.makespan, /*lower_bound=*/0,
                             /*optimal=*/false, std::move(dispatch));
        },
        nullptr);
}

SolveResult solve_tree_online(const Tree& tree, const Workload& workload,
                              sim::OnlinePolicy policy, const char* algorithm,
                              std::uint64_t seed) {
  const sim::SimResult run = sim::simulate_online(tree, workload, policy, seed);
  std::vector<NodeId> dests;
  dests.reserve(run.tasks.size());
  for (const sim::SimTask& task : run.tasks) dests.push_back(task.dest);
  return tree_result(algorithm, tree, std::move(dests), run.makespan, workload.count());
}

void register_chain_algorithms(Registry& r) {
  const PlatformKind k = PlatformKind::kChain;
  r.add({k, "optimal", "backward construction, Theorem 1 (O(n*p))", /*optimal=*/true,
         /*exponential=*/false, kReleaseOnly},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          require_tasks(w);
          const Chain& chain = expect_chain(p, "optimal");
          // Release dates anchor the backward construction at the minimal
          // feasible horizon inside the core scheduler.
          Work work(opts, &SolveScratch::chain, &SolveScratch::chain_pool);
          ChainScheduler::schedule_into(chain, w, work.scratch, work.pool);
          return chain_result("optimal", std::move(work.pool), w.count(), true);
        },
        [k](const Platform& p, Time deadline, const SolveOptions& opts) {
          const Chain& chain = expect_chain(p, "optimal");
          if (deadline <= 0) return make_decision("optimal", k, deadline, 0, 0, true, {});
          const Workload* pool = pool_of(opts);
          const std::size_t cap = decision_cap(opts, pool);
          const Workload stream = Workload::identical(cap);  // a count: allocates nothing
          const Workload& tasks = pool != nullptr ? *pool : stream;
          Work work(opts, &SolveScratch::chain, &SolveScratch::chain_pool);
          if (!opts.materialize) {
            // Allocation-free counting once the scratch is warm: no
            // placement vectors are ever built.  A nonempty backward
            // construction always ends exactly at the horizon, so the
            // completion time is `deadline` itself (release dates included
            // — the horizon anchor is unchanged).
            const std::size_t count =
                ChainScheduler::count_within(chain, deadline, tasks, cap, work.scratch);
            return make_decision("optimal", k, deadline, count, count > 0 ? deadline : 0,
                                 /*optimal=*/decision_maximal(count, cap, pool), {});
          }
          ChainScheduler::schedule_within_into(chain, deadline, tasks, cap, work.scratch,
                                               work.pool);
          return decision_from_pooled("optimal", k, deadline, /*optimal=*/true, cap, pool,
                                      work.pool);
        });
  r.add({k, "forward-greedy", "earliest-completion-time list scheduling", /*optimal=*/false,
         /*exponential=*/false, kSizesAndRelease},
        [](const Platform& p, const Workload& w, const SolveOptions&) {
          require_tasks(w);
          const Chain& chain = expect_chain(p, "forward-greedy");
          return chain_result("forward-greedy", forward_greedy_chain(chain, w), w.count(),
                              false);
        },
        nullptr);
  r.add({k, "round-robin", "heterogeneity-blind cyclic dispatch", /*optimal=*/false,
         /*exponential=*/false, kSizesAndRelease},
        [](const Platform& p, const Workload& w, const SolveOptions&) {
          require_tasks(w);
          const Chain& chain = expect_chain(p, "round-robin");
          return chain_result("round-robin", round_robin_chain(chain, w), w.count(), false);
        },
        nullptr);
  r.add({k, "single-node", "best single-processor pipeline (generalized T-infinity)",
         /*optimal=*/false, /*exponential=*/false, kSizesAndRelease},
        [](const Platform& p, const Workload& w, const SolveOptions&) {
          require_tasks(w);
          const Chain& chain = expect_chain(p, "single-node");
          return chain_result("single-node", single_node_chain(chain, w), w.count(), false);
        },
        nullptr);
  r.add({k, "periodic", "bandwidth-centric periodic pattern, ASAP prefix", /*optimal=*/false,
         /*exponential=*/false, WorkloadFeatures{}},
        [](const Platform& p, std::size_t n) {
          require_tasks(n);
          const Chain& chain = expect_chain(p, "periodic");
          return chain_result("periodic", periodic_prefix_schedule(chain, n), n, false);
        });
  r.add({k, "brute-force", "exhaustive destination-sequence search", /*optimal=*/true,
         /*exponential=*/true, WorkloadFeatures{}},
        [](const Platform& p, const Workload& w, const SolveOptions&) {
          require_tasks(w);
          const Chain& chain = expect_chain(p, "brute-force");
          return chain_result("brute-force", brute_force_chain_schedule(chain, w.count()),
                              w.count(), true);
        },
        [k](const Platform& p, Time deadline, const SolveOptions& opts) {
          return brute_force_decision(k, expect_chain(p, "brute-force"), deadline, opts,
                                      brute_force_chain_max_tasks, brute_force_chain_schedule,
                                      brute_force_chain_makespan);
        });
  register_replan(r, k);
}

/// Registers the three list-scheduling baselines of a fork or spider kind,
/// run on the spider form `as_spider(platform, name)` of its platforms.
template <typename AsSpider>
void register_spider_baselines(Registry& r, PlatformKind k, const char* single_node_summary,
                               AsSpider as_spider) {
  struct Baseline {
    const char* name;
    const char* summary;
    SpiderSchedule (*run)(const Spider&, const Workload&);
  };
  const Baseline baselines[] = {
      {"forward-greedy", "earliest-completion-time list scheduling", forward_greedy_spider},
      {"round-robin", "heterogeneity-blind cyclic dispatch", round_robin_spider},
      {"single-node", single_node_summary, single_node_spider},
  };
  for (const Baseline& b : baselines) {
    r.add({k, b.name, b.summary, /*optimal=*/false, /*exponential=*/false, kSizesAndRelease},
          [k, b, as_spider](const Platform& p, const Workload& w, const SolveOptions&) {
            require_tasks(w);
            return spider_result(b.name, k, b.run(as_spider(p, b.name), w), w.count(), false);
          },
          nullptr);
  }
}

void register_fork_algorithms(Registry& r) {
  const PlatformKind k = PlatformKind::kFork;
  const RunOptimal<ForkScheduler, Fork, ForkCountScratch, ForkSchedule> optimal{
      k, expect_fork, &SolveScratch::fork, &SolveScratch::fork_pool};
  r.add({k, "optimal", "Moore-Hodgson virtual-node selection, Fig 6", /*optimal=*/true,
         /*exponential=*/false, kReleaseOnly},
        optimal, optimal);
  r.add({k, "greedy", "the paper's ascending-c greedy (Beaumont et al.)", /*optimal=*/false,
         /*exponential=*/false, WorkloadFeatures{}},
        [k](const Platform& p, const Workload& w, const SolveOptions&) {
          require_tasks(w);
          const Fork& fork = expect_fork(p, "greedy");
          ForkSchedule schedule = fork_greedy_schedule(fork, w.count());
          const Time lb = spider_makespan_lower_bound(Spider::from_fork(fork), w.count());
          const Time makespan = schedule.makespan();
          return make_result("greedy", k, w.count(), makespan, lb, false, std::move(schedule));
        },
        [k](const Platform& p, Time deadline, const SolveOptions& opts) {
          const Fork& fork = expect_fork(p, "greedy");
          if (deadline <= 0) return make_decision("greedy", k, deadline, 0, 0, false, {});
          const Workload* pool = pool_of(opts);
          const std::size_t cap = decision_cap(opts, pool);
          ForkSchedule schedule = ForkScheduler::greedy_schedule_within(fork, deadline, cap);
          return decision_from_pooled("greedy", k, deadline, /*optimal=*/false, cap, pool,
                                      schedule);
        });
  register_spider_baselines(r, k, "best single-slave pipeline",
                            [](const Platform& p, const char* name) {
                              return Spider::from_fork(expect_fork(p, name));
                            });
  r.add({k, "brute-force", "exhaustive destination-sequence search", /*optimal=*/true,
         /*exponential=*/true, WorkloadFeatures{}},
        [k](const Platform& p, const Workload& w, const SolveOptions&) {
          require_tasks(w);
          const Fork& fork = expect_fork(p, "brute-force");
          return spider_result("brute-force", k,
                               brute_force_spider_schedule(Spider::from_fork(fork), w.count()),
                               w.count(), true);
        },
        [k](const Platform& p, Time deadline, const SolveOptions& opts) {
          return brute_force_decision(k, Spider::from_fork(expect_fork(p, "brute-force")),
                                      deadline, opts, brute_force_spider_max_tasks,
                                      brute_force_spider_schedule, brute_force_spider_makespan);
        });
  register_replan(r, k);
}

void register_spider_algorithms(Registry& r) {
  const PlatformKind k = PlatformKind::kSpider;
  const RunOptimal<SpiderScheduler, Spider, SpiderSolveScratch, SpiderSchedule> optimal{
      k, expect_spider, &SolveScratch::spider, &SolveScratch::spider_pool};
  r.add({k, "optimal", "per-leg decision form + Moore-Hodgson, Theorem 3", /*optimal=*/true,
         /*exponential=*/false, kReleaseOnly},
        optimal, optimal);
  register_spider_baselines(r, k, "best single-processor pipeline over all legs",
                            [](const Platform& p, const char* name) -> const Spider& {
                              return expect_spider(p, name);
                            });
  r.add({k, "brute-force", "exhaustive destination-sequence search", /*optimal=*/true,
         /*exponential=*/true, WorkloadFeatures{}},
        [k](const Platform& p, const Workload& w, const SolveOptions&) {
          require_tasks(w);
          const Spider& spider = expect_spider(p, "brute-force");
          return spider_result("brute-force", k, brute_force_spider_schedule(spider, w.count()),
                               w.count(), true);
        },
        [k](const Platform& p, Time deadline, const SolveOptions& opts) {
          return brute_force_decision(k, expect_spider(p, "brute-force"), deadline, opts,
                                      brute_force_spider_max_tasks, brute_force_spider_schedule,
                                      brute_force_spider_makespan);
        });
  register_replan(r, k);
}

void register_tree_algorithms(Registry& r) {
  const PlatformKind k = PlatformKind::kTree;
  // The three offline heuristics take the full SolveFn form (identical
  // workloads only, as before) so a caller-provided SolveScratch can pool
  // the dispatch plan and the pipeline working sets; with warm scratch
  // their per-solve allocation count is independent of `n`.
  r.add({k, "spider-cover", "optimal plan on the best-rate spider cover (section 8)",
         /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
        [k](const Platform& p, const Workload& w, const SolveOptions& opts) {
          require_tasks(w);
          const Tree& tree = expect_tree(p, "spider-cover");
          Work work(opts, &SolveScratch::tree_cover, &SolveScratch::tree_pool);
          Time makespan = 0;
          schedule_tree_via_cover_into(tree, w.count(), work.scratch, work.pool.dests, makespan);
          work.pool.tree = tree;
          return make_result("spider-cover", k, w.count(), makespan, /*lower_bound=*/0,
                             /*optimal=*/false, std::move(work.pool));
        },
        nullptr);
  r.add({k, "forward-greedy", "earliest-completion-time dispatch on the full tree",
         /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
        [k](const Platform& p, const Workload& w, const SolveOptions& opts) {
          require_tasks(w);
          const Tree& tree = expect_tree(p, "forward-greedy");
          PoolWork work(opts, &SolveScratch::tree_pool);
          TreeAsapState state(tree);  // tree-shaped, so n-independent
          const Time makespan = forward_greedy_tree_into(w.count(), state, work.pool.dests);
          work.pool.tree = tree;
          return make_result("forward-greedy", k, w.count(), makespan, /*lower_bound=*/0,
                             /*optimal=*/false, std::move(work.pool));
        },
        nullptr);
  r.add({k, "local-search", "greedy start + reassign/swap descent", /*optimal=*/false,
         /*exponential=*/false, WorkloadFeatures{}},
        [k](const Platform& p, const Workload& w, const SolveOptions& opts) {
          require_tasks(w);
          const Tree& tree = expect_tree(p, "local-search");
          PoolWork work(opts, &SolveScratch::tree_pool);
          TreeAsapState state(tree);
          forward_greedy_tree_into(w.count(), state, work.pool.dests);
          LocalSearchResult improved = improve_tree_dispatch(tree, std::move(work.pool.dests));
          work.pool.dests = std::move(improved.dests);
          work.pool.tree = tree;
          return make_result("local-search", k, w.count(), improved.makespan,
                             /*lower_bound=*/0, /*optimal=*/false, std::move(work.pool));
        },
        nullptr);
  // The online policies run on the discrete-event simulator, which executes
  // per-task sizes and release dates natively — the arrival-process axis of
  // the scenario engine lands here.  All four also adapt to the
  // no-lookahead streaming driver (the `streaming` capability flag), which
  // is what `mode=stream` sweep cells key on.
  r.add({k, "online-ect", "simulated online earliest-completion policy", /*optimal=*/false,
         /*exponential=*/false, kSizesReleaseStreaming},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          require_tasks(w);
          return solve_tree_online(expect_tree(p, "online-ect"), w,
                                   sim::OnlinePolicy::kEarliestCompletion, "online-ect",
                                   opts.seed);
        },
        nullptr);
  r.add({k, "online-jsq", "simulated online join-shortest-queue policy", /*optimal=*/false,
         /*exponential=*/false, kSizesReleaseStreaming},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          require_tasks(w);
          return solve_tree_online(expect_tree(p, "online-jsq"), w,
                                   sim::OnlinePolicy::kJoinShortestQueue, "online-jsq",
                                   opts.seed);
        },
        nullptr);
  r.add({k, "online-round-robin", "simulated online round-robin policy", /*optimal=*/false,
         /*exponential=*/false, kSizesReleaseStreaming},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          require_tasks(w);
          return solve_tree_online(expect_tree(p, "online-round-robin"), w,
                                   sim::OnlinePolicy::kRoundRobin, "online-round-robin",
                                   opts.seed);
        },
        nullptr);
  // Registered now that solves carry options: the policy is deterministic
  // per SolveOptions::seed, so mstctl runs are reproducible.
  r.add({k, "online-random", "simulated online uniform-random policy (SolveOptions::seed)",
         /*optimal=*/false, /*exponential=*/false, kSizesReleaseStreaming},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          require_tasks(w);
          return solve_tree_online(expect_tree(p, "online-random"), w,
                                   sim::OnlinePolicy::kRandom, "online-random", opts.seed);
        },
        nullptr);
}

}  // namespace

Registry& Registry::instance() {
  // `* const`: the pointer is written exactly once, under the C++11
  // thread-safe static-initialization guarantee; the Registry it points to
  // is fully populated before the first reference escapes.
  static Registry* const shared = [] {
    auto* r = new Registry();
    register_chain_algorithms(*r);
    register_fork_algorithms(*r);
    register_spider_algorithms(*r);
    register_tree_algorithms(*r);
    return r;
  }();
  return *shared;
}

Registry& registry() { return Registry::instance(); }

std::string default_algorithm(PlatformKind kind) {
  if (registry().find(kind, "optimal") != nullptr) return "optimal";
  const std::vector<std::string> names = registry().names(kind);
  if (names.empty()) {
    throw std::invalid_argument("no algorithms registered for " + to_string(kind) +
                                " platforms");
  }
  return names.front();
}

}  // namespace mst::api
