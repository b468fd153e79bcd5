#include "mst/scenario/runner.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "mst/api/solve_scratch.hpp"
#include "mst/api/stream.hpp"
#include "mst/common/mutex.hpp"
#include "mst/common/thread_annotations.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/scenario/journal.hpp"

namespace mst::scenario {

namespace {

/// The pool's one cross-thread aggregation point.  Result slots are
/// disjoint by construction (slot `i` belongs to cell `i`), so the only
/// genuinely shared state is this progress tally — guarded by an annotated
/// mutex so the Clang `-Wthread-safety` job proves every access holds it.
class ProgressSink {
 public:
  ProgressSink(std::function<void(std::size_t, std::size_t, bool)> callback, std::size_t total,
               obs::MetricsRegistry* metrics)
      : callback_(std::move(callback)), total_(total) {
    if (metrics != nullptr) {
      completed_counter_ = metrics->counter("scenario.cells.completed");
      failed_counter_ = metrics->counter("scenario.cells.failed");
      total_gauge_ = metrics->gauge("scenario.cells.total");
    }
  }

  /// Announces the run before any cell executes: records the shard's cell
  /// count on the metrics sink, credits the journal-replayed cells (they
  /// count as completed — the sweep's totals must match the uninterrupted
  /// run's) and fires the callback's leading `(replayed, total, false)`
  /// report, so consumers learn the total up front and progress never
  /// appears to jump backwards after a resume.
  void start(std::size_t replayed, std::size_t replayed_failed) MST_EXCLUDES(mutex_) {
    total_gauge_.record(static_cast<Time>(total_));
    completed_counter_.add(static_cast<std::int64_t>(replayed));
    failed_counter_.add(static_cast<std::int64_t>(replayed_failed));
    if (callback_ == nullptr) return;
    LockGuard lock(mutex_);
    done_ = replayed;
    failed_ = replayed_failed;
    callback_(replayed, total_, false);
  }

  /// Records one finished cell — counters always, then the user callback
  /// (if any) while still holding the lock, so callbacks never interleave.
  void report(bool failed) MST_EXCLUDES(mutex_) {
    completed_counter_.increment();
    if (failed) failed_counter_.increment();
    if (callback_ == nullptr) return;
    LockGuard lock(mutex_);
    ++done_;
    if (failed) ++failed_;
    callback_(done_, total_, failed);
  }

 private:
  const std::function<void(std::size_t, std::size_t, bool)> callback_;
  const std::size_t total_;
  obs::Counter completed_counter_;
  obs::Counter failed_counter_;
  obs::Gauge total_gauge_;
  Mutex mutex_;
  std::size_t done_ MST_GUARDED_BY(mutex_) = 0;
  std::size_t failed_ MST_GUARDED_BY(mutex_) = 0;
};

double ms_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The one timing loop all three cell modes share: runs `solve` `reps`
/// times, keeps the smallest wall time in `wall_ms`, and returns the last
/// result.  When the result type is recyclable (solve/decision results),
/// each overwritten rep hands its payload back to the scratch first, so the
/// rep loop itself runs on warm pools.
template <typename Solve>
auto best_of_reps(int reps, api::SolveScratch& scratch, double& wall_ms, Solve&& solve) {
  using Result = std::invoke_result_t<Solve&>;
  Result result;
  for (int rep = 0; rep < reps; ++rep) {
    if constexpr (requires(api::SolveScratch& s) { s.recycle(std::move(result)); }) {
      if (rep > 0) scratch.recycle(std::move(result));
    }
    const auto start = std::chrono::steady_clock::now();
    result = solve();
    const double ms = ms_since(start);
    if (rep == 0 || ms < wall_ms) wall_ms = ms;
  }
  return result;
}

/// One worker's metric sinks.  Without a journal, cells record straight
/// into `total_`, one long-lived registry merged into the sweep's sink once,
/// when the worker finishes: the merge is commutative, so the aggregate is
/// the same at any thread count, and no cell pays for a snapshot.  A
/// journal record must carry its own cell's delta (resume re-absorbs it),
/// so under `journal_dir` each cell records into `cell_` instead — reset,
/// not rebuilt, before every cell — whose snapshot lands in
/// `CellOutcome::metrics` before it folds into `total_`.
class WorkerMetrics {
 public:
  WorkerMetrics(obs::MetricsRegistry* sweep, bool per_cell) : sweep_(sweep) {
    if (sweep_ == nullptr) return;
    total_ = std::make_unique<obs::MetricsRegistry>();
    if (per_cell) {
      cell_ = std::make_unique<obs::MetricsRegistry>();
    } else {
      wall_us_ = wall_us_counter(*total_);
    }
  }

  /// The registry the next cell records into; null when metrics are off.
  obs::MetricsRegistry* begin_cell() {
    if (cell_ == nullptr) return total_.get();
    cell_->reset();
    wall_us_ = wall_us_counter(*cell_);
    return cell_.get();
  }

  /// Adds the finished cell's wall time (truncated per cell, so `--timing`
  /// sums the same values at any thread count) and, per cell, moves its
  /// snapshot into `out.metrics`.
  void end_cell(CellOutcome& out) {
    wall_us_.add(static_cast<Time>(out.wall_ms * 1000.0));
    if (cell_ == nullptr) return;
    out.metrics = cell_->snapshot(/*include_wall_time=*/true);
    cell_->merge_into(*total_);
  }

  /// The worker's one merge into the sweep's sink.
  void finish() const {
    if (total_ != nullptr) total_->merge_into(*sweep_);
  }

 private:
  // Host-measured, hence wall-time class: excluded from default snapshots,
  // mirroring the reporters' --timing convention.
  static obs::Counter wall_us_counter(obs::MetricsRegistry& registry) {
    return registry.counter("scenario.cell.wall_us", obs::DeterminismClass::kWallTime);
  }

  obs::MetricsRegistry* const sweep_;
  std::unique_ptr<obs::MetricsRegistry> total_;
  std::unique_ptr<obs::MetricsRegistry> cell_;
  obs::Counter wall_us_;
};

void run_one(const Cell& cell, const RunOptions& options, const api::Registry& registry,
             api::SolveScratch& scratch, obs::MetricsRegistry* metrics, CellOutcome& out) {
  api::SolveOptions solve_options;
  solve_options.materialize = options.materialize;
  solve_options.seed = cell.seed;
  solve_options.cap = options.cap;
  solve_options.scratch = &scratch;
  solve_options.metrics = metrics;
  // Decision-form cells of the workload axis select from a finite pool.
  if (cell.mode == CellMode::kWithin) solve_options.workload = cell.workload;

  try {
    const int reps = options.reps < 1 ? 1 : options.reps;
    if (cell.mode == CellMode::kStream) {
      // Streaming cells run the no-lookahead driver; identical-axis cells
      // stream `n` tasks all released at 0 (the equivalence baseline).
      const Workload workload =
          cell.workload != nullptr ? *cell.workload : Workload::identical(cell.n);
      // Reference-free inside the timed loop: wall_ms measures the
      // streamed run alone, not the offline regret baseline.
      api::StreamOutcome result = best_of_reps(reps, scratch, out.wall_ms, [&] {
        return api::run_stream(*cell.platform, cell.algorithm, workload, cell.seed, registry,
                               /*attach_reference=*/false,
                               obs::Observation{solve_options.metrics, nullptr});
      });
      api::attach_offline_reference(result, *cell.platform, workload, registry,
                                    solve_options.metrics);
      out.tasks = result.tasks;
      out.makespan = result.makespan;
      out.throughput = result.throughput();
      out.mean_latency = result.metrics.mean_latency;
      out.peak_backlog = result.metrics.peak_backlog;
      out.regret = result.regret;
      return;
    }
    if (cell.mode == CellMode::kSolve) {
      api::SolveResult result = best_of_reps(reps, scratch, out.wall_ms, [&] {
        return cell.workload != nullptr
                   ? registry.solve(*cell.platform, cell.algorithm, *cell.workload,
                                    solve_options)
                   : registry.solve(*cell.platform, cell.algorithm, cell.n, solve_options);
      });
      out.tasks = result.tasks;
      out.makespan = result.makespan;
      out.lower_bound = result.lower_bound;
      out.optimal = result.optimal;
      out.throughput = result.throughput();
      if (options.check && options.materialize) {
        const FeasibilityReport report = api::check_feasibility(result);
        if (!report.ok()) out.error = report.summary();
      }
      scratch.recycle(std::move(result));
    } else {
      api::DecisionResult result = best_of_reps(reps, scratch, out.wall_ms, [&] {
        return registry.solve_within(*cell.platform, cell.algorithm, cell.deadline,
                                     solve_options);
      });
      out.tasks = result.tasks;
      out.makespan = result.makespan;
      out.optimal = result.optimal;
      out.throughput = result.throughput();
      if (options.check && options.materialize) {
        const FeasibilityReport report = api::check_feasibility(result);
        if (!report.ok()) out.error = report.summary();
      }
      scratch.recycle(std::move(result));
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

/// Journal records identify cells by key fields only; before trusting a
/// record, the resuming runner checks the live cell agrees on every one of
/// them.  The grid fingerprint in the journal header already makes a
/// mismatch nearly impossible — this is the per-record belt to that
/// suspender.
bool same_cell_key(const Cell& a, const Cell& b) {
  return a.index == b.index && a.spec_name == b.spec_name && a.kind == b.kind &&
         a.cls == b.cls && a.size == b.size && a.instance == b.instance &&
         a.platform_seed == b.platform_seed && a.algorithm == b.algorithm &&
         a.mode == b.mode && a.n == b.n && a.deadline == b.deadline && a.seed == b.seed &&
         a.workload_label == b.workload_label && a.workload_seed == b.workload_seed;
}

// The resume skip test runs once per owned cell while the batches are
// built: one byte load.  Completed cells never reach a worker — the solve
// hot path itself re-checks nothing — and the region pins the lookup
// allocation-free.
// mstlint: zero-alloc
bool journal_done(const std::vector<unsigned char>& done, std::size_t slot) {
  return done[slot] != 0;
}
// mstlint: zero-alloc-end

}  // namespace

std::vector<CellOutcome> run_cells(const std::vector<Cell>& cells, const RunOptions& options,
                                   const api::Registry& registry) {
  if (options.shard_count == 0 || options.shard_index >= options.shard_count) {
    throw std::invalid_argument("run_cells: shard " + std::to_string(options.shard_index) +
                                "/" + std::to_string(options.shard_count) +
                                " out of range (need 0 <= index < count)");
  }

  // Deterministic partition by canonical cell index, applied before any
  // batching: shard i of N owns exactly the indices congruent to i mod N,
  // so per-cell seeds are untouched, same-platform batching is unchanged
  // within the shard, and the N shards' union is provably the full grid.
  std::vector<std::size_t> owned;
  owned.reserve(cells.size() / options.shard_count + 1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].index % options.shard_count == options.shard_index) owned.push_back(i);
  }

  std::vector<CellOutcome> results(owned.size());
  for (std::size_t j = 0; j < owned.size(); ++j) results[j].cell = cells[owned[j]];

  // Crash-safe resume: replay this shard's journal (if any), mark every
  // valid record's cell as done, and re-absorb its metric snapshot so the
  // sweep aggregate matches the uninterrupted run's.
  std::vector<unsigned char> done(owned.size(), 0);
  std::optional<Journal> journal;
  std::size_t replayed = 0;
  std::size_t replayed_failed = 0;
  obs::Counter appended_counter;
  obs::Counter skipped_counter;
  if (!options.journal_dir.empty()) {
    journal.emplace(options.journal_dir, options.shard_index, options.shard_count,
                    cells.size(), grid_fingerprint(cells));
    if (options.metrics != nullptr) {
      appended_counter = options.metrics->counter("scenario.journal.appended");
      skipped_counter = options.metrics->counter("scenario.journal.skipped");
      options.metrics->counter("scenario.journal.replayed")
          .add(static_cast<std::int64_t>(journal->replayed().outcomes.size()));
      options.metrics->counter("scenario.journal.torn")
          .add(journal->replayed().torn ? 1 : 0);
    }
    std::map<std::size_t, std::size_t> slot_of;  // canonical index -> result slot
    for (std::size_t j = 0; j < owned.size(); ++j) slot_of[cells[owned[j]].index] = j;
    for (const CellOutcome& record : journal->replayed().outcomes) {
      const auto found = slot_of.find(record.cell.index);
      if (found == slot_of.end() ||
          !same_cell_key(record.cell, cells[owned[found->second]])) {
        throw std::runtime_error(journal->path() + ": journal record for cell " +
                                 std::to_string(record.cell.index) +
                                 " does not match this sweep's grid; refusing to resume");
      }
      // A record journaled with metrics on always carries its cell's
      // `scenario.cell.wall_us`: an empty one was written with metrics off,
      // and absorbing nothing for it would leave the aggregate short of the
      // uninterrupted run's.
      if (options.metrics != nullptr && record.metrics.empty()) {
        throw std::runtime_error(journal->path() + ": journal record for cell " +
                                 std::to_string(record.cell.index) +
                                 " carries no metric samples (the journal was written without "
                                 "metrics); resume without metrics or start a fresh journal");
      }
      const std::size_t j = found->second;
      if (done[j] != 0) continue;  // duplicate record: identical by determinism
      results[j] = record;
      results[j].cell = cells[owned[j]];  // restore the live platform/workload pointers
      done[j] = 1;
      ++replayed;
      if (!results[j].ok()) ++replayed_failed;
      if (options.metrics != nullptr) {
        for (const obs::MetricSample& sample : results[j].metrics) {
          options.metrics->absorb(sample);
        }
      }
    }
  }

  // Group the remaining cells into same-platform batches, first-occurrence
  // order (`expand` shares each spec's platform via shared_ptr, so pointer
  // identity is the grouping key; the linear scan keeps the grouping
  // deterministic — no unordered containers anywhere in the runner).  A
  // worker executes a whole batch with one warm SolveScratch, so every cell
  // after the first reuses the previous solve's buffers.  Journal-completed
  // cells are filtered out here, before batching — the solve hot path never
  // sees them.
  std::vector<std::vector<std::size_t>> batches;  // entries are result slots
  std::vector<const api::Platform*> seen;
  for (std::size_t j = 0; j < owned.size(); ++j) {
    if (journal_done(done, j)) {
      skipped_counter.increment();
      continue;
    }
    const api::Platform* platform = cells[owned[j]].platform.get();
    std::size_t b = 0;
    while (b < seen.size() && seen[b] != platform) ++b;
    if (b == seen.size()) {
      seen.push_back(platform);
      batches.emplace_back();
    }
    batches[b].push_back(j);
  }

  unsigned threads =
      options.threads == 0 ? std::thread::hardware_concurrency() : options.threads;
  if (threads == 0) threads = 1;
  if (static_cast<std::size_t>(threads) > batches.size()) {
    threads = static_cast<unsigned>(batches.size());
  }

  // Work stealing by atomic batch index; slot `j` belongs to owned cell
  // `j`, so the result order never depends on scheduling, and the
  // scratch-reusing solves are bit-identical to scratch-free ones — output
  // stays identical at any thread count.  A
  // journal failure (disk full, fsync error) in any worker stops the pool
  // and rethrows on the calling thread: a sweep that cannot record its
  // progress must fail loudly, not finish unresumably.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::exception_ptr journal_failure;
  Mutex failure_mutex;
  ProgressSink progress(options.on_progress, owned.size(), options.metrics);
  progress.start(replayed, replayed_failed);
  auto worker = [&] {
    api::SolveScratch scratch;
    WorkerMetrics metrics(options.metrics, journal.has_value());
    for (std::size_t b = next.fetch_add(1); b < batches.size() && !stop.load();
         b = next.fetch_add(1)) {
      for (std::size_t j : batches[b]) {
        run_one(cells[owned[j]], options, registry, scratch, metrics.begin_cell(), results[j]);
        metrics.end_cell(results[j]);
        if (journal.has_value()) {
          try {
            journal->append(results[j]);
            appended_counter.increment();
          } catch (...) {
            LockGuard lock(failure_mutex);
            if (journal_failure == nullptr) journal_failure = std::current_exception();
            stop.store(true);
            break;
          }
        }
        progress.report(!results[j].ok());
      }
    }
    metrics.finish();
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (journal_failure != nullptr) std::rethrow_exception(journal_failure);
  return results;
}

std::vector<CellOutcome> run_sweep(const SweepSpec& spec, const RunOptions& options,
                                   const api::Registry& registry) {
  return run_cells(expand(spec, registry), options, registry);
}

}  // namespace mst::scenario
