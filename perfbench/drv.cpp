// Sweep benchmark driver: runs one named workload through the public calls
// `mstctl --mode=sweep` and `--mode=merge` make (`scenario::parse_spec` ->
// `expand` -> `run_cells` -> `to_csv`, plus `merge_journals`) for a fixed
// length of time, checks the outputs and writes `result.json`.
//
//   perfbench_drv --workload=NAME --seed=N --seconds=S --trace=0|1
//                 --specs=DIR --out=DIR [--quick]
//
// `--trace=0` measures the end-to-end metrics with nothing but clocks
// around the public calls.  `--trace=1` runs separate passes for the
// per-layer metrics: the same cells at several thread counts, with and
// without `RunOptions::metrics`, one pass through a registry of timing
// decorators (spans.hpp), and direct timed calls into core, baselines, sim,
// report and the journal.  README.md in this directory defines every
// metric and check.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/api/stream.hpp"
#include "mst/baselines/bounds.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/scenario/generators.hpp"
#include "mst/scenario/journal.hpp"
#include "mst/scenario/report.hpp"
#include "mst/scenario/runner.hpp"
#include "mst/scenario/spec.hpp"
#include "spans.hpp"

namespace {

namespace fs = std::filesystem;
namespace api = mst::api;
namespace scenario = mst::scenario;
using perfbench::Clock;
using perfbench::SpanLog;
using Counts = std::map<std::string, std::int64_t>;
using Outcomes = std::vector<scenario::CellOutcome>;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Linear-interpolation percentile (numpy's default), `q` in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Temp file, then rename — how `mstctl` writes its reports.
void write_file_atomic(const fs::path& path, const std::string& text) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << text;
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadDef {
  std::string name;
  std::vector<std::string> specs;  ///< spec file stems under --specs
  unsigned threads;                ///< RunOptions::threads
  bool metrics;                    ///< RunOptions::metrics on (`--metrics-out`)
  bool journaled;                  ///< shard 0/2 then 1/2 with a journal, resume, merge
  std::size_t check_sample;        ///< cells per grid in the materialize + check pass
};

// README.md says why each workload exists.  solve-large needs two specs
// because a spec shares `sizes` across kinds (chains at p = 64, 128; forks
// and spiders at p = 16, 32).  grid-small runs 2 threads, not 4: on a
// shared 4-vCPU host, 4 threads made its throughput follow the neighbours'
// load.  The check samples differ because a solve-large cell costs about a
// thousand grid cells.
const WorkloadDef kWorkloads[] = {
    {"solve-large", {"solve-large-chain", "solve-large-star"}, 1, false, false, 24},
    {"grid-small", {"grid-small"}, 2, true, false, 4096},
    {"grid-journaled", {"grid-journaled"}, 2, false, true, 1024},
};

/// Appends per fresh-journal probe; a larger sweep is subsampled by stride.
constexpr std::size_t kJournalProbeCells = 2048;
/// Extra set-ups per run: at least kSetupReps, more until kSetupMs passed.
constexpr std::size_t kSetupReps = 5;
constexpr double kSetupMs = 500;

unsigned max_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, n));
}

struct Grid {
  std::string stem;
  scenario::SweepSpec spec;
  std::vector<scenario::Cell> cells;
};

struct Setup {
  std::vector<Grid> grids;
  double parse_ms = 0;
  double expand_ms = 0;
};

/// `parse_spec` + `expand` for every spec of the workload — `setup_s`.
/// The seed overrides the spec's, as `mstctl --seed` does; `quick` shrinks
/// the grid to one instance of its first size and work point.
Setup set_up(const WorkloadDef& w, const std::vector<std::string>& texts, std::uint64_t seed,
             bool quick, SpanLog* log = nullptr) {
  Setup s;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    Grid g;
    g.stem = w.specs[i];
    const auto t0 = Clock::now();
    const std::int64_t t0_ns = log != nullptr ? log->now_ns() : 0;
    g.spec = scenario::parse_spec(texts[i]);
    s.parse_ms += ms_since(t0);
    if (log != nullptr) {
      log->record(log->name("scenario.parse_spec", "scenario.spec"), SpanLog::kNone,
                  SpanLog::kNone, t0_ns, log->now_ns());
    }
    g.spec.seed = seed;
    if (quick) {
      g.spec.instances = 1;
      g.spec.sizes.resize(std::min<std::size_t>(1, g.spec.sizes.size()));
      g.spec.tasks.resize(std::min<std::size_t>(1, g.spec.tasks.size()));
      g.spec.deadlines.resize(std::min<std::size_t>(1, g.spec.deadlines.size()));
    }
    const auto t1 = Clock::now();
    const std::int64_t t1_ns = log != nullptr ? log->now_ns() : 0;
    g.cells = scenario::expand(g.spec);
    s.expand_ms += ms_since(t1);
    if (log != nullptr) {
      log->record(log->name("scenario.expand", "scenario.expand"), SpanLog::kNone,
                  SpanLog::kNone, t1_ns, log->now_ns());
    }
    s.grids.push_back(std::move(g));
  }
  return s;
}

std::size_t cell_count(const std::vector<Grid>& grids) {
  std::size_t n = 0;
  for (const Grid& g : grids) n += g.cells.size();
  return n;
}

/// Same-platform batches: the runner batches by shared platform.
std::size_t platform_count(const std::vector<Grid>& grids) {
  std::size_t n = 0;
  for (const Grid& g : grids) {
    std::set<const api::Platform*> seen;
    for (const scenario::Cell& c : g.cells) seen.insert(c.platform.get());
    n += seen.size();
  }
  return n;
}

std::int64_t counter_value(const std::vector<mst::obs::MetricSample>& snapshot,
                           const std::string& name) {
  for (const mst::obs::MetricSample& s : snapshot) {
    if (s.name == name) return s.value;
  }
  return 0;
}

/// The deterministic count tier: identical on every run and thread count.
Counts counts_of(const std::vector<Grid>& grids, const std::vector<Outcomes>& outcomes,
                 const mst::obs::MetricsRegistry* metrics, std::size_t csv_bytes) {
  Counts c;
  c["scenario.cells"] = static_cast<std::int64_t>(cell_count(grids));
  c["scenario.platforms"] = static_cast<std::int64_t>(platform_count(grids));
  c["report.bytes"] = static_cast<std::int64_t>(csv_bytes);
  if (metrics != nullptr) {
    const auto snapshot = metrics->snapshot();
    c["api.decision.probe_solves"] = counter_value(snapshot, "api.decision.probe_solves");
    c["sim.engine.events"] = counter_value(snapshot, "sim.engine.events");
    std::int64_t samples = 0;
    for (const Outcomes& rows : outcomes) {
      for (const scenario::CellOutcome& o : rows) {
        samples += static_cast<std::int64_t>(o.metrics.size());
      }
    }
    c["obs.cell_samples"] = samples;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Checks

std::string describe(const scenario::Cell& c) {
  std::ostringstream os;
  os << c.spec_name << " cell " << c.index << ": " << c.kind << " " << c.cls << " size "
     << c.size << " instance " << c.instance << " " << c.algorithm << " "
     << scenario::to_string(c.mode) << " n=" << c.n;
  if (c.mode == scenario::CellMode::kWithin) os << " deadline=" << c.deadline;
  os << " workload=" << c.workload_label;
  return os.str();
}

/// Structural checks decide `correct`; cell checks (errors and false
/// labels) are counted per cell into `failed` and listed.
struct Checks {
  struct Entry {
    std::string name;
    bool ok;
    std::string detail;
    bool structural;
  };
  std::vector<Entry> entries;
  std::set<std::pair<std::size_t, std::size_t>> failed_cells;  ///< (grid, cell index)
  std::vector<std::string> violations;
  bool correct = true;
  std::optional<Counts> reference_counts;

  void structural(const std::string& name, bool ok, const std::string& detail = "") {
    entries.push_back({name, ok, detail, true});
    correct = correct && ok;
  }

  void cell_failure(std::size_t grid, const scenario::Cell& cell, const std::string& what) {
    failed_cells.emplace(grid, cell.index);
    violations.push_back(describe(cell) + ": " + what);
  }

  /// Records a per-cell check with the number of cells it failed.
  void cell_check(const std::string& name, std::size_t failures, std::size_t checked) {
    entries.push_back({name, failures == 0,
                       std::to_string(failures) + " of " + std::to_string(checked) +
                           " cells failed",
                       false});
  }

  /// Every count must equal the first value seen for it.
  void counts(const Counts& c, const std::string& where) {
    if (!reference_counts.has_value()) {
      reference_counts = c;
      return;
    }
    for (const auto& [name, value] : c) {
      const auto ref = reference_counts->find(name);
      if (ref == reference_counts->end()) {
        reference_counts->emplace(name, value);
      } else if (ref->second != value) {
        structural("counts_repeat", false,
                   name + " = " + std::to_string(value) + " in " + where + ", " +
                       std::to_string(ref->second) + " before");
      }
    }
  }
};

/// Every cell ok; every makespan at least its lower bound; per
/// (platform, workload, n) an `optimal=yes` makespan no larger than any
/// other entry's.
void check_outcomes(const std::vector<Grid>& grids, const std::vector<Outcomes>& outcomes,
                    Checks& checks) {
  std::size_t errors = 0;
  std::size_t bound_failures = 0;
  std::size_t label_failures = 0;
  std::size_t checked = 0;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const Outcomes& rows = outcomes[g];
    // Key fields only: merged journal rows carry no platform pointer.
    using Key = std::tuple<std::string, std::string, std::size_t, std::size_t, std::uint64_t,
                           std::string, std::uint64_t, std::size_t>;
    std::map<Key, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const scenario::CellOutcome& o = rows[i];
      ++checked;
      if (!o.ok()) {
        ++errors;
        checks.cell_failure(g, o.cell, "error: " + o.error);
        continue;
      }
      if (o.cell.mode != scenario::CellMode::kSolve) continue;
      if (o.lower_bound > 0 && o.makespan < o.lower_bound) {
        ++bound_failures;
        checks.cell_failure(g, o.cell,
                            "makespan " + std::to_string(o.makespan) + " below lower_bound " +
                                std::to_string(o.lower_bound));
      }
      const scenario::Cell& c = o.cell;
      groups[Key{c.kind, c.cls, c.size, c.instance, c.platform_seed, c.workload_label,
                 c.workload_seed, c.n}]
          .push_back(i);
    }
    for (const auto& [key, members] : groups) {
      for (const std::size_t i : members) {
        if (!rows[i].optimal) continue;
        std::string beaten_by;
        for (const std::size_t j : members) {
          if (j != i && rows[j].makespan < rows[i].makespan) {
            beaten_by += " " + rows[j].cell.algorithm + "=" + std::to_string(rows[j].makespan);
          }
        }
        if (!beaten_by.empty()) {
          ++label_failures;
          checks.cell_failure(g, rows[i].cell,
                              "optimal=yes makespan " + std::to_string(rows[i].makespan) +
                                  " beaten by" + beaten_by);
        }
      }
    }
  }
  checks.cell_check("cells_ok", errors, checked);
  checks.cell_check("lower_bounds", bound_failures, checked);
  checks.cell_check("optimal_labels", label_failures, checked);
}

/// Re-runs a deterministic subsample with `materialize` and `check` (what
/// `mstctl --check` does): every schedule must pass `check_feasibility`, and
/// its report row must equal the count-only row.
void check_feasibility_sample(const WorkloadDef& w, const std::vector<Grid>& grids,
                              const std::vector<Outcomes>& outcomes, std::uint64_t seed,
                              Checks& checks) {
  std::size_t failures = 0;
  std::size_t sampled = 0;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const std::vector<scenario::Cell>& cells = grids[g].cells;
    const std::size_t stride = std::max<std::size_t>(1, cells.size() / w.check_sample);
    std::vector<scenario::Cell> sample;
    std::vector<std::size_t> slot;
    for (std::size_t i = seed % stride; i < cells.size(); i += stride) {
      sample.push_back(cells[i]);
      slot.push_back(i);
    }
    scenario::RunOptions options;
    options.threads = w.threads;
    options.materialize = true;
    options.check = true;
    const Outcomes checked = scenario::run_cells(sample, options);
    sampled += checked.size();
    for (std::size_t k = 0; k < checked.size(); ++k) {
      const scenario::CellOutcome& fast = outcomes[g][slot[k]];
      if (!checked[k].ok()) {
        ++failures;
        checks.cell_failure(g, fast.cell, "materialized check: " + checked[k].error);
      } else if (scenario::to_csv({checked[k]}) != scenario::to_csv({fast})) {
        ++failures;
        checks.cell_failure(g, fast.cell,
                            "materialized row differs: tasks " +
                                std::to_string(checked[k].tasks) + " makespan " +
                                std::to_string(checked[k].makespan) + " vs count-only " +
                                std::to_string(fast.tasks) + " / " +
                                std::to_string(fast.makespan));
      }
    }
  }
  checks.cell_check("feasibility_sample", failures, sampled);
}

// ---------------------------------------------------------------------------
// Passes

/// One `run_cells` over every grid of the workload.
struct Pass {
  double run_ms = 0;
  std::vector<Outcomes> outcomes;                      ///< per grid
  std::unique_ptr<mst::obs::MetricsRegistry> metrics;  ///< when on
  std::vector<std::string> csv;                        ///< per grid
  std::size_t csv_bytes = 0;
};

/// With a `log`, each `run_cells` becomes a span under `parent` with one
/// child span per cell (the pass must run at 1 thread).
Pass run_pass(const std::vector<Grid>& grids, unsigned threads, bool metrics,
              const api::Registry& registry = api::registry(), SpanLog* log = nullptr,
              std::size_t parent = SpanLog::kNone) {
  Pass p;
  if (metrics) p.metrics = std::make_unique<mst::obs::MetricsRegistry>();
  for (const Grid& g : grids) {
    scenario::RunOptions options;
    options.threads = threads;
    options.metrics = p.metrics.get();
    std::size_t run_span = SpanLog::kNone;
    bool started = false;
    if (log != nullptr) {
      run_span = log->open(log->name("scenario.run_cells", "scenario.runner"), parent);
      // At 1 thread each report after the leading one ends exactly one cell.
      options.on_progress = [log, run_span, &started](std::size_t, std::size_t, bool) {
        if (!started) {
          started = true;
          log->begin_cells(run_span);
        } else {
          log->next_cell();
        }
      };
    }
    const auto t0 = Clock::now();
    p.outcomes.push_back(scenario::run_cells(g.cells, options, registry));
    p.run_ms += ms_since(t0);
    if (log != nullptr) {
      log->end_cells();
      log->close(run_span);
    }
  }
  for (const Outcomes& rows : p.outcomes) {
    p.csv.push_back(scenario::to_csv(rows));
    p.csv_bytes += p.csv.back().size();
  }
  return p;
}

Counts counts_of(const std::vector<Grid>& grids, const Pass& p) {
  return counts_of(grids, p.outcomes, p.metrics.get(), p.csv_bytes);
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct Result {
  std::map<std::string, Metric> metrics;
  /// Per-iteration values behind the end-to-end medians, for diagnosis.
  std::map<std::string, std::vector<double>> series;
  std::size_t iterations = 0;
  std::size_t attempted = 0;
  /// Files the wrapper checks against `mstctl`.
  struct GridFiles {
    fs::path spec, csv, metrics_json;
    unsigned threads;
  };
  std::vector<GridFiles> grids;
  fs::path journal_dir;
  std::vector<fs::path> trace_files;
};

/// Writes the effective spec (seed applied) beside the CSV the wrapper
/// compares with `mstctl --mode=sweep` on it.
void record_grid_files(const Grid& g, const std::string& csv,
                       const std::string& metrics_json, const fs::path& out, Result& r) {
  Result::GridFiles f;
  f.spec = out / (g.stem + ".spec");
  f.csv = out / (g.stem + ".csv");
  // Reports are identical at any thread count, so the check runs wide.
  f.threads = max_threads();
  write_file_atomic(f.spec, scenario::write_spec(g.spec));
  write_file_atomic(f.csv, csv);
  if (!metrics_json.empty()) {
    f.metrics_json = out / (g.stem + ".metrics.json");
    write_file_atomic(f.metrics_json, metrics_json);
  }
  r.grids.push_back(f);
}

// ---------------------------------------------------------------------------
// End-to-end (untraced) run

struct Iteration {
  double setup_ms = 0;
  double run_ms = 0;
  double wall_ms = 0;
  double recover_ms = 0;
  bool resume_appended = false;
  std::size_t cells = 0;
  std::vector<double> cell_ms;
  Setup setup;
  std::vector<Outcomes> outcomes;
  std::vector<std::string> csv;
  std::string metrics_json;
  Counts counts;
};

std::uintmax_t journal_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::directory_iterator(dir)) bytes += entry.file_size();
  return bytes;
}

/// One timed run of the workload, as its command would make it: set up,
/// run, render and write the report (and the metrics file).  The journaled
/// workload runs shard 0/2 then 1/2 with `--journal`, resumes both shards
/// over the complete journals (replaying, solving nothing) and merges.
Iteration untraced_iteration(const WorkloadDef& w, const std::vector<std::string>& texts,
                             std::uint64_t seed, bool quick, const fs::path& out) {
  Iteration it;
  const fs::path journal_root = out / "journal";
  if (w.journaled) fs::remove_all(journal_root);
  const unsigned threads = w.threads;
  std::unique_ptr<mst::obs::MetricsRegistry> metrics;
  if (w.metrics) metrics = std::make_unique<mst::obs::MetricsRegistry>();

  const auto t0 = Clock::now();
  it.setup = set_up(w, texts, seed, quick);
  it.setup_ms = ms_since(t0);
  for (const Grid& g : it.setup.grids) {
    scenario::RunOptions options;
    options.threads = threads;
    options.metrics = metrics.get();
    Outcomes rows;
    if (!w.journaled) {
      const auto t = Clock::now();
      rows = scenario::run_cells(g.cells, options);
      it.run_ms += ms_since(t);
      for (const scenario::CellOutcome& o : rows) it.cell_ms.push_back(o.wall_ms);
    } else {
      options.journal_dir = (journal_root / g.stem).string();
      options.shard_count = 2;
      for (std::size_t shard = 0; shard < 2; ++shard) {
        options.shard_index = shard;
        const auto t = Clock::now();
        const Outcomes part = scenario::run_cells(g.cells, options);
        it.run_ms += ms_since(t);
        for (const scenario::CellOutcome& o : part) it.cell_ms.push_back(o.wall_ms);
      }
      const auto t = Clock::now();
      const std::uintmax_t before = journal_bytes(options.journal_dir);
      for (std::size_t shard = 0; shard < 2; ++shard) {
        options.shard_index = shard;
        (void)scenario::run_cells(g.cells, options);
      }
      it.resume_appended = it.resume_appended || journal_bytes(options.journal_dir) != before;
      rows = scenario::merge_journals(options.journal_dir);
      it.recover_ms += ms_since(t);
    }
    std::string csv = scenario::to_csv(rows);
    write_file_atomic(out / (g.stem + ".csv"), csv);
    it.csv.push_back(std::move(csv));
    it.outcomes.push_back(std::move(rows));
  }
  if (metrics != nullptr) {
    it.metrics_json = metrics->to_json();
    write_file_atomic(out / (it.setup.grids.front().stem + ".metrics.json"), it.metrics_json);
  }
  it.wall_ms = ms_since(t0);

  it.cells = cell_count(it.setup.grids);
  std::size_t bytes = 0;
  for (const std::string& csv : it.csv) bytes += csv.size();
  it.counts = counts_of(it.setup.grids, it.outcomes, metrics.get(), bytes);
  return it;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void run_end_to_end(const WorkloadDef& w, const std::vector<std::string>& texts,
                    std::uint64_t seed, double seconds, bool quick, const fs::path& out,
                    Checks& checks, Result& r) {
  // Set-up is repeated on its own as well, so its median has samples
  // beyond the few iterations a large workload fits in a run.
  std::vector<double> setup_ms;
  const auto setup_start = Clock::now();
  while (setup_ms.size() < kSetupReps || ms_since(setup_start) < kSetupMs) {
    const auto t = Clock::now();
    const Setup s = set_up(w, texts, seed, quick);
    setup_ms.push_back(ms_since(t));
  }

  std::vector<double> wall_ms, recover_ms, cells_per_s, cell_p50, cell_p90;
  std::size_t cell_samples = 0;
  std::vector<std::string> first_csv;
  std::string first_metrics;
  std::optional<Iteration> last;
  bool resume_appended = false;
  bool iterations_identical = true;
  const auto start = Clock::now();
  double last_ms = 0;
  while (r.iterations < 2 || ms_since(start) + last_ms <= seconds * 1000.0) {
    last.reset();  // free the previous outcomes before the next run
    const auto t = Clock::now();
    last.emplace(untraced_iteration(w, texts, seed, quick, out));
    last_ms = ms_since(t);
    ++r.iterations;
    const Iteration& it = *last;
    setup_ms.push_back(it.setup_ms);
    wall_ms.push_back(it.wall_ms);
    cells_per_s.push_back(static_cast<double>(it.cells) / (it.run_ms / 1000.0));
    if (w.journaled) recover_ms.push_back(it.recover_ms);
    cell_p50.push_back(percentile(it.cell_ms, 0.5));
    cell_p90.push_back(percentile(it.cell_ms, 0.9));
    cell_samples += it.cell_ms.size();
    resume_appended = resume_appended || it.resume_appended;
    if (first_csv.empty()) {
      first_csv = it.csv;
      first_metrics = it.metrics_json;
    } else {
      iterations_identical =
          iterations_identical && it.csv == first_csv && it.metrics_json == first_metrics;
    }
    checks.counts(it.counts, "iteration " + std::to_string(r.iterations));
  }
  const double rss = peak_rss_mb();

  const Iteration& it = *last;
  const std::vector<Grid>& grids = it.setup.grids;
  r.attempted = it.cells;
  checks.structural("iterations_identical", iterations_identical,
                    std::to_string(r.iterations) + " iterations");
  check_outcomes(grids, it.outcomes, checks);
  check_feasibility_sample(w, grids, it.outcomes, seed, checks);
  if (w.journaled) {
    checks.structural("resume_solves_nothing", !resume_appended,
                      "journals unchanged by the resume passes");
    for (std::size_t g = 0; g < grids.size(); ++g) {
      scenario::RunOptions options;
      options.threads = w.threads;
      const Outcomes single = scenario::run_cells(grids[g].cells, options);
      checks.structural("merged_equals_single_process", scenario::to_csv(single) == it.csv[g],
                        grids[g].stem);
    }
    r.journal_dir = out / "journal" / grids.front().stem;
  }
  for (std::size_t g = 0; g < grids.size(); ++g) {
    record_grid_files(grids[g], it.csv[g], g == 0 ? it.metrics_json : "", out, r);
  }

  const std::size_t n = r.iterations;
  r.series["cells_per_s"] = cells_per_s;
  r.series["wall_ms"] = wall_ms;
  r.series["cell_ms_p50"] = cell_p50;
  r.series["cell_ms_p90"] = cell_p90;
  if (w.journaled) r.series["recover_ms"] = recover_ms;
  r.metrics["setup_s"] = {median(setup_ms) / 1000.0, "s", setup_ms.size()};
  r.metrics["cells_per_s"] = {median(cells_per_s), "1/s", n};
  r.metrics["wall_s"] = {median(wall_ms) / 1000.0, "s", n};
  r.metrics["cell_ms_p50"] = {median(cell_p50), "ms", cell_samples};
  r.metrics["cell_ms_p90"] = {median(cell_p90), "ms", cell_samples};
  r.metrics["peak_rss_mb"] = {rss, "MB", 1};
  if (w.journaled) r.metrics["recover_s"] = {median(recover_ms) / 1000.0, "s", n};
}

// ---------------------------------------------------------------------------
// Per-layer (traced) run

const char* const kExactKinds[] = {"chain", "fork", "spider"};

struct LayerSample {
  std::map<std::string, double> values;  ///< measured; medians across iterations
  std::map<std::string, std::size_t> samples;
  Counts counts;  ///< the deterministic tier, equal across iterations
};

/// Direct timed calls into the core kernels: one warm-scratch
/// `count_within(platform, makespan, n)` per unit makespan-form `optimal`
/// cell.  Anything but `n` is a failed cell.
void probe_core(const std::vector<Grid>& grids, const std::vector<Outcomes>& outcomes,
                SpanLog& log, LayerSample& s, std::map<std::string, std::set<std::uint64_t>>& seeds,
                Checks& checks) {
  mst::ChainCountScratch chain_scratch;
  mst::ForkCountScratch fork_scratch;
  mst::SpiderCountScratch spider_scratch;
  std::map<std::string, double> probe_ms;
  std::size_t failures = 0;
  std::size_t probed = 0;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    for (const scenario::CellOutcome& o : outcomes[g]) {
      const scenario::Cell& c = o.cell;
      if (c.mode != scenario::CellMode::kSolve || c.workload != nullptr ||
          c.algorithm != "optimal" || !o.ok() || c.kind == "tree") {
        continue;
      }
      const std::uint32_t span = log.name("core." + c.kind + ".count_within", "core");
      const std::int64_t start = log.now_ns();
      const std::size_t got = std::visit(
          [&](const auto& platform) -> std::size_t {
            using P = std::decay_t<decltype(platform)>;
            if constexpr (std::is_same_v<P, mst::Chain>) {
              return mst::ChainScheduler::count_within(platform, o.makespan, c.n, chain_scratch);
            } else if constexpr (std::is_same_v<P, mst::Fork>) {
              return mst::ForkScheduler::count_within(platform, o.makespan, c.n, fork_scratch);
            } else if constexpr (std::is_same_v<P, mst::Spider>) {
              return mst::SpiderScheduler::count_within(platform, o.makespan, c.n,
                                                        spider_scratch);
            } else {
              return 0;
            }
          },
          *c.platform);
      const std::size_t id =
          log.record(span, SpanLog::kNone, SpanLog::kNone, start, log.now_ns(), c.seed);
      probe_ms[c.kind] += SpanLog::ms(log.spans()[id]);
      seeds[c.kind].insert(c.seed);
      ++probed;
      if (got != c.n) {
        ++failures;
        checks.cell_failure(g, c,
                            "core count_within(makespan " + std::to_string(o.makespan) +
                                ", cap " + std::to_string(c.n) + ") = " + std::to_string(got));
      }
    }
  }
  checks.cell_check("core_probe_counts", failures, probed);
  for (const char* kind : kExactKinds) {
    s.values[std::string("core.") + kind + ".probe_ms"] = probe_ms[kind];
    s.samples[std::string("core.") + kind + ".probe_ms"] = seeds[kind].size();
  }
}

/// The makespan lower bound of every unit makespan-form chain/fork/spider
/// cell, as the registry computes it per solve.
void probe_bounds(const std::vector<Grid>& grids, SpanLog& log, LayerSample& s) {
  mst::OnePortScratch scratch;
  const std::uint32_t span = log.name("baselines.makespan_lower_bound", "baselines");
  double total = 0;
  std::size_t calls = 0;
  for (const Grid& g : grids) {
    for (const scenario::Cell& c : g.cells) {
      if (c.mode != scenario::CellMode::kSolve || c.workload != nullptr || c.kind == "tree") {
        continue;
      }
      const std::int64_t start = log.now_ns();
      const mst::Time bound = std::visit(
          [&](const auto& platform) -> mst::Time {
            using P = std::decay_t<decltype(platform)>;
            if constexpr (std::is_same_v<P, mst::Chain>) {
              return mst::chain_makespan_lower_bound(platform, c.n);
            } else if constexpr (std::is_same_v<P, mst::Fork>) {
              return mst::fork_makespan_lower_bound(platform, c.n, scratch);
            } else if constexpr (std::is_same_v<P, mst::Spider>) {
              return mst::spider_makespan_lower_bound(platform, c.n, scratch);
            } else {
              return 0;
            }
          },
          *c.platform);
      const std::size_t id =
          log.record(span, SpanLog::kNone, SpanLog::kNone, start, log.now_ns(), c.seed);
      total += SpanLog::ms(log.spans()[id]);
      ++calls;
      (void)bound;
    }
  }
  s.values["baselines.lower_bound_ms"] = total;
  s.samples["baselines.lower_bound_ms"] = calls;
}

/// `api::run_stream` over every stream cell without the offline reference;
/// the rerun must reproduce the runner's row.
void probe_stream(const std::vector<Grid>& grids, const std::vector<Outcomes>& outcomes,
                  SpanLog& log, LayerSample& s, Checks& checks) {
  const std::uint32_t span = log.name("sim.run_stream", "sim");
  double total = 0;
  std::size_t runs = 0;
  bool same = true;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    for (const scenario::CellOutcome& o : outcomes[g]) {
      const scenario::Cell& c = o.cell;
      if (c.mode != scenario::CellMode::kStream) continue;
      const mst::Workload workload =
          c.workload != nullptr ? *c.workload : mst::Workload::identical(c.n);
      const std::int64_t start = log.now_ns();
      const api::StreamOutcome run =
          api::run_stream(*c.platform, c.algorithm, workload, c.seed, api::registry(),
                          /*attach_reference=*/false);
      const std::size_t id =
          log.record(span, SpanLog::kNone, SpanLog::kNone, start, log.now_ns(), c.seed);
      total += SpanLog::ms(log.spans()[id]);
      ++runs;
      same = same && run.makespan == o.makespan && run.tasks == o.tasks;
    }
  }
  checks.structural("stream_rerun_identical", same, std::to_string(runs) + " stream cells");
  s.values["sim.stream_ms"] = total;
  s.samples["sim.stream_ms"] = runs;
}

/// `Journal::append` of each outcome (a stride subsample past
/// `kJournalProbeCells`, re-indexed as a grid of its own) into two fresh
/// shard journals, as a 2-shard sweep writes them; then a replay over each
/// complete file and a merge, which must give back the appended rows.
void probe_journal(const std::vector<Outcomes>& outcomes, const fs::path& dir, SpanLog& log,
                   LayerSample& s, Counts& counts, Checks& checks) {
  constexpr std::size_t kShards = 2;
  std::size_t total = 0;
  for (const Outcomes& rows : outcomes) total += rows.size();
  const std::size_t stride = (total + kJournalProbeCells - 1) / kJournalProbeCells;
  Outcomes sample;
  std::vector<scenario::Cell> cells;
  std::size_t k = 0;
  for (const Outcomes& rows : outcomes) {
    for (const scenario::CellOutcome& o : rows) {
      if (k++ % stride != 0) continue;
      sample.push_back(o);
      sample.back().cell.index = sample.size() - 1;
      cells.push_back(sample.back().cell);
    }
  }
  fs::remove_all(dir);
  const std::uint64_t fingerprint = scenario::grid_fingerprint(cells);
  const std::uint32_t append_span = log.name("journal.append", "scenario.journal");
  std::vector<double> append_us;
  {
    std::optional<scenario::Journal> journals[kShards];
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      journals[shard].emplace(dir.string(), shard, kShards, cells.size(), fingerprint);
    }
    for (const scenario::CellOutcome& o : sample) {
      const std::int64_t start = log.now_ns();
      journals[o.cell.index % kShards]->append(o);
      const std::size_t id = log.record(append_span, SpanLog::kNone, SpanLog::kNone, start,
                                        log.now_ns(), o.cell.seed);
      append_us.push_back(SpanLog::ms(log.spans()[id]) * 1000.0);
    }
  }
  counts["journal.appends"] = static_cast<std::int64_t>(sample.size());
  // Not a count of the deterministic tier: each record carries the cell's
  // measured wall_ms (and wall-time metric sample) in %.17g, so the file
  // length moves by a few bytes from run to run.
  s.values["journal.bytes"] = static_cast<double>(journal_bytes(dir));
  s.samples["journal.bytes"] = sample.size();

  std::size_t span = log.open(log.name("journal.replay", "scenario.journal"), SpanLog::kNone);
  std::size_t replayed = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const scenario::Journal journal(dir.string(), shard, kShards, cells.size(), fingerprint);
    replayed += journal.replayed().outcomes.size();
  }
  log.close(span);
  s.values["journal.replay_ms"] = SpanLog::ms(log.spans()[span]);

  span = log.open(log.name("journal.merge", "scenario.journal"), SpanLog::kNone);
  const Outcomes merged = scenario::merge_journals(dir.string());
  log.close(span);
  s.values["journal.merge_ms"] = SpanLog::ms(log.spans()[span]);

  const bool roundtrip =
      replayed == sample.size() && scenario::to_csv(merged) == scenario::to_csv(sample);
  checks.structural("journal_probe_roundtrip", roundtrip,
                    std::to_string(sample.size()) + " records in " + std::to_string(kShards) +
                        " shards");
  s.values["journal.append_us_p50"] = percentile(append_us, 0.5);
  s.values["journal.append_us_p90"] = percentile(append_us, 0.9);
  s.samples["journal.append_us_p50"] = s.samples["journal.append_us_p90"] = append_us.size();
  s.samples["journal.replay_ms"] = s.samples["journal.merge_ms"] = sample.size();
}

/// One traced iteration; `first` also runs the cell checks, records the
/// report files and exports the trace.
LayerSample traced_iteration(const WorkloadDef& w, const std::vector<std::string>& texts,
                             std::uint64_t seed, bool quick, const fs::path& out, bool first,
                             Checks& checks, Result& r) {
  LayerSample s;
  SpanLog log;
  const Setup setup = set_up(w, texts, seed, quick, &log);
  const std::vector<Grid>& grids = setup.grids;
  s.values["scenario.parse_ms"] = setup.parse_ms;
  s.values["scenario.expand_ms"] = setup.expand_ms;

  // Untraced passes: 1 thread and min(4, nproc) threads with metrics (the
  // runner speed-up), and the workload's own thread count with and without
  // metrics (the obs overhead); passes that coincide run once.  The traced
  // pass runs the real runner at 1 thread over a registry of timing
  // decorators, and expand must see the same grid through it.  Each pair a
  // ratio compares runs back to back.
  const unsigned tw = w.threads;
  const unsigned tmax = max_threads();
  const auto timed_pass = [&](const std::string& label, unsigned threads, bool metrics) {
    const std::size_t span = log.open(log.name("pass." + label, "bench"), SpanLog::kNone);
    Pass p = run_pass(grids, threads, metrics);
    log.close(span);
    return p;
  };
  const std::string own = std::to_string(tw) + "t.";
  std::optional<Pass> without_own, own_on, many_own;
  if (tw == 1) without_own.emplace(timed_pass(own + "plain", tw, false));
  const Pass one = timed_pass("1t.metrics", 1, true);
  const std::unique_ptr<api::Registry> timed = perfbench::timed_registry(api::registry(), log);
  bool same_grid = true;
  for (const Grid& g : grids) {
    same_grid = same_grid && scenario::grid_fingerprint(scenario::expand(g.spec, *timed)) ==
                                 scenario::grid_fingerprint(g.cells);
  }
  const std::size_t traced_span = log.open(log.name("pass.1t.traced", "bench"), SpanLog::kNone);
  const Pass traced = run_pass(grids, 1, true, *timed, &log, traced_span);
  log.close(traced_span);
  if (tw != 1 && tw != tmax) {
    own_on.emplace(timed_pass(own + "metrics", tw, true));
    without_own.emplace(timed_pass(own + "plain", tw, false));
  }
  if (tmax != 1) many_own.emplace(timed_pass(std::to_string(tmax) + "t.metrics", tmax, true));
  if (tw != 1 && tw == tmax) without_own.emplace(timed_pass(own + "plain", tw, false));
  const Pass& many = many_own.has_value() ? *many_own : one;
  const Pass& with_metrics = tw == 1 ? one : tw == tmax ? many : *own_on;
  const Pass& without_metrics = *without_own;

  bool threads_identical = true;
  for (const Pass* p : {&many, &with_metrics, &without_metrics}) {
    threads_identical = threads_identical && p->csv == one.csv;
  }
  checks.structural("timed_registry_same_grid", same_grid);
  checks.structural("thread_counts_identical", threads_identical,
                    "1, " + std::to_string(tw) + " and " + std::to_string(tmax) + " threads");
  checks.structural("traced_equals_untraced", traced.csv == one.csv);
  Counts counts = counts_of(grids, one);
  for (const Pass* p : {&many, &with_metrics, &without_metrics, &traced}) {
    checks.counts(counts_of(grids, *p), "a pass at another thread count");
  }

  // Direct calls into the layers the runner hides.
  std::map<std::string, std::set<std::uint64_t>> probed_seeds;
  probe_core(grids, one.outcomes, log, s, probed_seeds, checks);
  probe_bounds(grids, log, s);
  probe_stream(grids, one.outcomes, log, s, checks);
  double csv_ms = 0;
  for (const Outcomes& rows : one.outcomes) {
    const std::size_t span = log.open(log.name("report.to_csv", "scenario.report"), SpanLog::kNone);
    (void)scenario::to_csv(rows);
    log.close(span);
    csv_ms += SpanLog::ms(log.spans()[span]);
  }
  s.values["report.csv_ms"] = csv_ms;
  probe_journal(one.outcomes, out / "journal-probe", log, s, counts, checks);
  checks.counts(counts, "the journal probe");

  // Metrics out of the spans.
  const auto by_name = log.by_name();
  const auto self_of = [&](const std::string& name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.self_ms;
  };
  s.values["runner.self_ms"] = self_of("scenario.run_cells") + self_of("scenario.cell");
  s.values["runner.speedup"] = one.run_ms / many.run_ms;
  s.values["obs.overhead_frac"] = with_metrics.run_ms / without_metrics.run_ms - 1.0;
  s.values["trace.overhead_frac"] = traced.run_ms / one.run_ms - 1.0;
  for (const auto& [name, totals] : by_name) {
    if (name.rfind("api.", 0) != 0) continue;
    s.values[name + "_ms"] = totals.total_ms;
    s.samples[name + "_ms"] = totals.count;
  }
  for (const char* kind : kExactKinds) {
    const std::string solve = std::string("api.") + kind + ".optimal.solve";
    const auto solve_name = log.name(solve, "api");
    double api_ms = 0;
    for (const perfbench::Span& span : log.spans()) {
      if (span.name == solve_name && probed_seeds[kind].count(span.tag) != 0) {
        api_ms += SpanLog::ms(span);
      }
    }
    const double probe_ms = s.values[std::string("core.") + kind + ".probe_ms"];
    s.values[std::string("api.") + kind + ".probe_ratio"] = probe_ms > 0 ? api_ms / probe_ms : 0;
    s.samples[std::string("api.") + kind + ".probe_ratio"] = probed_seeds[kind].size();
    for (const char* form : {".solve_ms", ".within_ms"}) {
      s.values.emplace(std::string("api.") + kind + ".optimal" + form, 0.0);
    }
  }

  std::size_t optimal_rows = 0;
  std::size_t exact = 0;
  for (const Outcomes& rows : one.outcomes) {
    for (const scenario::CellOutcome& o : rows) {
      if (o.cell.mode != scenario::CellMode::kSolve || !o.optimal || !o.ok()) continue;
      ++optimal_rows;
      if (o.makespan == o.lower_bound) ++exact;
    }
  }
  s.values["api.lb_exact_frac"] =
      optimal_rows > 0 ? static_cast<double>(exact) / static_cast<double>(optimal_rows) : 0;
  s.samples["api.lb_exact_frac"] = optimal_rows;

  s.counts = counts;

  if (first) {
    r.attempted = cell_count(grids);
    check_outcomes(grids, one.outcomes, checks);
    check_feasibility_sample(w, grids, one.outcomes, seed, checks);
    for (std::size_t g = 0; g < grids.size(); ++g) {
      // The traced pass's report, checked against `mstctl` by the wrapper.
      std::string metrics_json;
      if (w.metrics && g == 0) metrics_json = one.metrics->to_json();
      record_grid_files(grids[g], traced.csv[g], metrics_json, out, r);
    }
    const fs::path trace = out / "trace.json";
    const fs::path table = out / "layers.tsv";
    write_file_atomic(trace, log.to_chrome_json());
    write_file_atomic(table, log.table());
    r.trace_files = {trace, table};
  }
  return s;
}

/// Per-layer units: the names below, `*_ratio`, and milliseconds otherwise.
std::string unit_of(const std::string& name) {
  static const std::map<std::string, std::string> units = {
      {"scenario.cells", "count"},       {"scenario.platforms", "count"},
      {"runner.speedup", "ratio"},       {"api.lb_exact_frac", "ratio"},
      {"api.decision.probe_solves", "count"}, {"sim.engine.events", "count"},
      {"report.bytes", "bytes"},         {"journal.bytes", "bytes"},
      {"journal.appends", "count"},      {"obs.overhead_frac", "ratio"},
      {"obs.cell_samples", "count"},     {"trace.overhead_frac", "ratio"},
      {"journal.append_us_p50", "us"},   {"journal.append_us_p90", "us"},
  };
  const auto it = units.find(name);
  if (it != units.end()) return it->second;
  if (name.size() > 6 && name.compare(name.size() - 6, 6, "_ratio") == 0) return "ratio";
  return "ms";
}

void run_layers(const WorkloadDef& w, const std::vector<std::string>& texts, std::uint64_t seed,
                double seconds, bool quick, const fs::path& out, double calib_ms,
                Checks& checks, Result& r) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::size_t> samples;
  const auto start = Clock::now();
  double last_ms = 0;
  while (r.iterations < 1 || ms_since(start) + last_ms <= seconds * 1000.0) {
    const auto t = Clock::now();
    const bool first = r.iterations == 0;
    // Later iterations repeat the first one's checks; only a structural
    // failure (a difference between iterations) carries over.
    Checks later;
    later.reference_counts = checks.reference_counts;
    const LayerSample s =
        traced_iteration(w, texts, seed, quick, out, first, first ? checks : later, r);
    for (const Checks::Entry& e : later.entries) {
      if (e.structural && !e.ok) {
        checks.structural(e.name, false, "iteration " + std::to_string(r.iterations + 1) +
                                             ": " + e.detail);
      }
    }
    last_ms = ms_since(t);
    ++r.iterations;
    for (const auto& [name, value] : s.values) values[name].push_back(value);
    for (const auto& [name, n] : s.samples) samples[name] = n;
    for (const auto& [name, value] : s.counts) {
      r.metrics[name] = {static_cast<double>(value), unit_of(name), r.iterations};
    }
  }
  for (const auto& [name, v] : values) {
    const std::size_t n = samples.count(name) != 0 ? samples.at(name) : v.size();
    r.metrics[name] = {median(v), unit_of(name), n};
  }
  r.metrics["host.calib_ms"] = {calib_ms, "ms", 1};
}

// ---------------------------------------------------------------------------
// Host tags

/// A fixed dependent-arithmetic loop; its time tracks the host's speed
/// (advisory, for comparing results across machines).
double calibrate_ms() {
  static volatile std::uint64_t sink = 0;
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull + sink;
    for (int i = 0; i < (1 << 23); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    times.push_back(ms_since(t));
  }
  return median(times);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------

std::string arg(int argc, char** argv, const std::string& key, const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    if (a == "--" + key) return "1";
  }
  return fallback;
}

std::string result_json(const WorkloadDef& w, std::uint64_t seed, bool trace, bool quick,
                        double calib_ms, const Checks& checks, const Result& r) {
  std::ostringstream os;
  os << "{\"workload\":" << json_str(w.name) << ",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0) << ",\"quick\":" << (quick ? "true" : "false")
     << ",\"iterations\":" << r.iterations << ",\n\"host\":{\"compiler\":"
     << json_str(PERFBENCH_COMPILER) << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
     << ",\"cxx_flags\":" << json_str(PERFBENCH_CXX_FLAGS)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":" << json_str(cpu_model()) << ",\"calib_ms\":" << json_num(calib_ms)
     << "},\n\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    os << (first ? "\n" : ",\n") << json_str(name) << ":{\"value\":" << json_num(m.value)
       << ",\"unit\":" << json_str(m.unit) << ",\"samples\":" << m.samples << "}";
    first = false;
  }
  os << "},\n\"series\":{";
  first = true;
  for (const auto& [name, values] : r.series) {
    os << (first ? "" : ",") << json_str(name) << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) os << (i ? "," : "") << json_num(values[i]);
    os << "]";
    first = false;
  }
  os << "},\n\"counts\":{";
  first = true;
  if (checks.reference_counts.has_value()) {
    for (const auto& [name, value] : *checks.reference_counts) {
      os << (first ? "" : ",") << json_str(name) << ":" << value;
      first = false;
    }
  }
  os << "},\n\"attempted\":" << r.attempted << ",\"failed\":" << checks.failed_cells.size()
     << ",\"correct\":" << (checks.correct ? "true" : "false") << ",\n\"checks\":[";
  first = true;
  for (const Checks::Entry& e : checks.entries) {
    os << (first ? "\n" : ",\n") << "{\"name\":" << json_str(e.name)
       << ",\"ok\":" << (e.ok ? "true" : "false") << ",\"detail\":" << json_str(e.detail) << "}";
    first = false;
  }
  os << "],\n\"violations\":[";
  first = true;
  for (const std::string& v : checks.violations) {
    os << (first ? "\n" : ",\n") << json_str(v);
    first = false;
  }
  os << "],\n\"grids\":[";
  first = true;
  for (const Result::GridFiles& f : r.grids) {
    os << (first ? "\n" : ",\n") << "{\"spec\":" << json_str(f.spec.string())
       << ",\"csv\":" << json_str(f.csv.string())
       << ",\"metrics_json\":" << json_str(f.metrics_json.string())
       << ",\"threads\":" << f.threads << "}";
    first = false;
  }
  os << "],\n\"journal_dir\":" << json_str(r.journal_dir.string()) << ",\"trace_files\":[";
  first = true;
  for (const fs::path& p : r.trace_files) {
    os << (first ? "" : ",") << json_str(p.string());
    first = false;
  }
  os << "]}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string name = arg(argc, argv, "workload", "");
    const WorkloadDef* w = nullptr;
    for (const WorkloadDef& def : kWorkloads) {
      if (def.name == name) w = &def;
    }
    if (w == nullptr) throw std::invalid_argument("unknown --workload=" + name);
    const std::uint64_t seed = std::stoull(arg(argc, argv, "seed", "1"));
    const double seconds = std::stod(arg(argc, argv, "seconds", "10"));
    const bool trace = arg(argc, argv, "trace", "0") == "1";
    const bool quick = arg(argc, argv, "quick", "0") == "1";
    const fs::path specs = arg(argc, argv, "specs", "perfbench/specs");
    const fs::path out = arg(argc, argv, "out", "");
    if (out.empty()) throw std::invalid_argument("--out=DIR is required");
    fs::create_directories(out);

    std::vector<std::string> texts;
    for (const std::string& stem : w->specs) texts.push_back(slurp(specs / (stem + ".spec")));

    const double calib_ms = calibrate_ms();
    Checks checks;
    Result r;
    if (trace) {
      run_layers(*w, texts, seed, seconds, quick, out, calib_ms, checks, r);
    } else {
      run_end_to_end(*w, texts, seed, seconds, quick, out, checks, r);
    }
    const double failed = static_cast<double>(checks.failed_cells.size());
    r.metrics["failed_frac"] = {
        r.attempted > 0 ? failed / static_cast<double>(r.attempted) : 0, "ratio", r.attempted};
    write_file_atomic(out / "result.json",
                      result_json(*w, seed, trace, quick, calib_ms, checks, r));

    std::printf("perfbench %s seed=%llu trace=%d iterations=%zu cells=%zu\n", w->name.c_str(),
                static_cast<unsigned long long>(seed), trace ? 1 : 0, r.iterations, r.attempted);
    for (const auto& [metric, m] : r.metrics) {
      std::printf("  %-34s %14.6g %-6s (n=%zu)\n", metric.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    }
    for (const Checks::Entry& e : checks.entries) {
      std::printf("check %-30s %s  %s\n", e.name.c_str(), e.ok ? "ok" : "FAILED",
                  e.detail.c_str());
    }
    for (const std::string& v : checks.violations) std::printf("violation: %s\n", v.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_drv: " << e.what() << "\n";
    return 1;
  }
}
