// Distributed, resumable sweeps: journal record round-trips, torn-tail
// truncation recovery, resume-skips-completed-cells, and the tentpole
// contract — N shard journals merge into CSV/JSON byte-identical to the
// single-process run (both batch modes, 2- and 3-way splits).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "mst/obs/metrics.hpp"
#include "mst/scenario/generators.hpp"
#include "mst/scenario/journal.hpp"
#include "mst/scenario/report.hpp"
#include "mst/scenario/runner.hpp"
#include "mst/scenario/spec.hpp"

namespace mst::scenario {
namespace {

/// A small all-kinds grid exercising both work axes — big enough that a
/// 3-way shard split leaves several same-platform batches per shard.
SweepSpec small_grid() {
  SweepSpec spec;
  spec.name = "journal";
  spec.seed = 42;
  spec.kinds = {api::PlatformKind::kChain, api::PlatformKind::kFork,
                api::PlatformKind::kSpider, api::PlatformKind::kTree};
  spec.classes = {PlatformClass::kUniform};
  spec.sizes = {2, 3};
  spec.instances = 2;
  spec.tasks = {4, 8};
  spec.deadlines = {30};
  return spec;
}

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mst_journal_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CellOutcome sample_outcome() {
  CellOutcome out;
  out.cell.index = 7;
  out.cell.spec_name = "round\ntrip \\ spec";  // escapes must survive
  out.cell.kind = "spider";
  out.cell.cls = "comm-bound";
  out.cell.size = 3;
  out.cell.instance = 1;
  out.cell.platform_seed = 0xDEADBEEFCAFEBABEull;
  out.cell.algorithm = "optimal";
  out.cell.mode = CellMode::kStream;
  out.cell.n = 12;
  out.cell.deadline = 40;
  out.cell.seed = 0xFEEDFACE12345678ull;
  out.cell.workload_label = "poisson(3)";
  out.cell.workload_seed = 99;
  out.tasks = 12;
  out.makespan = 137;
  out.lower_bound = 120;
  out.optimal = true;
  out.throughput = 12.0 / 137.0;  // must round-trip to the exact bits
  out.wall_ms = 1.25;
  out.error = "boom: line1\nline2";
  out.mean_latency = 3.9999999999999996;
  out.peak_backlog = 5;
  out.regret = 1.0833333333333333;
  obs::MetricSample counter;
  counter.name = "sim.engine.events";
  counter.type = obs::MetricType::kCounter;
  counter.value = 321;
  obs::MetricSample hist;
  hist.name = "stream.latency";
  hist.type = obs::MetricType::kHistogram;
  hist.determinism = obs::DeterminismClass::kWallTime;
  hist.count = 12;
  hist.sum = 48;
  hist.buckets[0] = 2;
  hist.buckets[5] = 10;
  out.metrics = {counter, hist};
  return out;
}

TEST(JournalRecord, RoundTripsEveryField) {
  const CellOutcome out = sample_outcome();
  const CellOutcome back = decode_record(encode_record(out));

  EXPECT_EQ(back.cell.index, out.cell.index);
  EXPECT_EQ(back.cell.spec_name, out.cell.spec_name);
  EXPECT_EQ(back.cell.kind, out.cell.kind);
  EXPECT_EQ(back.cell.cls, out.cell.cls);
  EXPECT_EQ(back.cell.size, out.cell.size);
  EXPECT_EQ(back.cell.instance, out.cell.instance);
  EXPECT_EQ(back.cell.platform_seed, out.cell.platform_seed);
  EXPECT_EQ(back.cell.algorithm, out.cell.algorithm);
  EXPECT_EQ(back.cell.mode, out.cell.mode);
  EXPECT_EQ(back.cell.n, out.cell.n);
  EXPECT_EQ(back.cell.deadline, out.cell.deadline);
  EXPECT_EQ(back.cell.seed, out.cell.seed);
  EXPECT_EQ(back.cell.workload_label, out.cell.workload_label);
  EXPECT_EQ(back.cell.workload_seed, out.cell.workload_seed);
  // Key-only decode: live pointers are the resuming runner's to restore.
  EXPECT_EQ(back.cell.platform, nullptr);
  EXPECT_EQ(back.cell.workload, nullptr);

  EXPECT_EQ(back.tasks, out.tasks);
  EXPECT_EQ(back.makespan, out.makespan);
  EXPECT_EQ(back.lower_bound, out.lower_bound);
  EXPECT_EQ(back.optimal, out.optimal);
  // %.17g + strtod is exact for doubles: the same bits, not "close".
  EXPECT_EQ(back.throughput, out.throughput);
  EXPECT_EQ(back.wall_ms, out.wall_ms);
  EXPECT_EQ(back.error, out.error);
  EXPECT_EQ(back.mean_latency, out.mean_latency);
  EXPECT_EQ(back.peak_backlog, out.peak_backlog);
  EXPECT_EQ(back.regret, out.regret);
  ASSERT_EQ(back.metrics.size(), out.metrics.size());
  EXPECT_EQ(back.metrics[0], out.metrics[0]);
  EXPECT_EQ(back.metrics[1], out.metrics[1]);
}

TEST(JournalRecord, DecodeRejectsGarbage) {
  EXPECT_THROW(decode_record(""), std::invalid_argument);
  EXPECT_THROW(decode_record("out 1 2 3 0 4\n"), std::invalid_argument);  // no cell line
  EXPECT_THROW(decode_record("cell not-a-number\n"), std::invalid_argument);
}

TEST(JournalGrid, FingerprintBindsToTheGrid) {
  std::vector<Cell> cells = expand(small_grid());
  const std::uint64_t fp = grid_fingerprint(cells);
  EXPECT_EQ(grid_fingerprint(cells), fp);  // stable
  cells[3].seed ^= 1;                      // any key change moves it
  EXPECT_NE(grid_fingerprint(cells), fp);
}

TEST(JournalFile, PathFormat) {
  EXPECT_EQ(journal_path("dir", 2, 5), "dir/shard-2-of-5.mstj");
}

TEST(JournalFile, AppendReplayAndHeaderMismatch) {
  const std::string dir = scratch_dir("append_replay");
  const CellOutcome out = sample_outcome();
  {
    Journal journal(dir, 0, 2, 16, /*fingerprint=*/0xABCD);
    EXPECT_TRUE(journal.replayed().outcomes.empty());
    EXPECT_FALSE(journal.replayed().torn);
    journal.append(out);
  }
  {
    Journal journal(dir, 0, 2, 16, 0xABCD);
    ASSERT_EQ(journal.replayed().outcomes.size(), 1u);
    EXPECT_FALSE(journal.replayed().torn);
    EXPECT_EQ(journal.replayed().outcomes[0].cell.index, out.cell.index);
    EXPECT_EQ(journal.replayed().outcomes[0].error, out.error);
  }
  // A different grid fingerprint (an edited spec), shard position or cell
  // count must be rejected loudly, never resumed.
  EXPECT_THROW(Journal(dir, 0, 2, 16, 0xABCE), std::runtime_error);
  EXPECT_THROW(Journal(dir, 0, 2, 17, 0xABCD), std::runtime_error);
}

TEST(JournalFile, TornTailIsTruncatedAndRecovered) {
  const std::string dir = scratch_dir("torn_tail");
  CellOutcome a = sample_outcome();
  CellOutcome b = sample_outcome();
  b.cell.index = 9;
  b.error.clear();
  {
    Journal journal(dir, 1, 3, 30, 0x1234);
    journal.append(a);
    journal.append(b);
  }
  const std::string path = journal_path(dir, 1, 3);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 7);  // tear the final record
  {
    Journal journal(dir, 1, 3, 30, 0x1234);
    ASSERT_EQ(journal.replayed().outcomes.size(), 1u);  // only `a` survives
    EXPECT_TRUE(journal.replayed().torn);
    EXPECT_EQ(journal.replayed().outcomes[0].cell.index, a.cell.index);
    journal.append(b);  // the truncated tail is writable again
  }
  {
    Journal journal(dir, 1, 3, 30, 0x1234);
    ASSERT_EQ(journal.replayed().outcomes.size(), 2u);
    EXPECT_FALSE(journal.replayed().torn);
    EXPECT_EQ(journal.replayed().outcomes[1].cell.index, b.cell.index);
  }
}

TEST(ShardedRun, PartitionIsDisjointAndComplete) {
  const std::vector<Cell> cells = expand(small_grid());
  RunOptions options;
  options.threads = 2;
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    options.shard_index = i;
    options.shard_count = 3;
    for (const CellOutcome& outcome : run_cells(cells, options)) {
      EXPECT_EQ(outcome.cell.index % 3, i);
      EXPECT_TRUE(seen.insert(outcome.cell.index).second) << "duplicate cell";
      ++total;
    }
  }
  EXPECT_EQ(total, cells.size());  // disjoint + complete = a partition
}

TEST(ShardedRun, OutOfRangeShardThrows) {
  const std::vector<Cell> cells = expand(small_grid());
  RunOptions options;
  options.shard_count = 0;
  EXPECT_THROW(run_cells(cells, options), std::invalid_argument);
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW(run_cells(cells, options), std::invalid_argument);
}

TEST(ShardedRun, ResumeSkipsCompletedCellsAndAnnouncesProgress) {
  const std::string dir = scratch_dir("resume");
  const std::vector<Cell> cells = expand(small_grid());
  RunOptions options;
  options.shard_index = 0;
  options.shard_count = 2;
  options.journal_dir = dir;

  obs::MetricsRegistry first_metrics;
  options.metrics = &first_metrics;
  const std::vector<CellOutcome> first = run_cells(cells, options);

  // Second run over the same journal: every cell replays, none recomputes.
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  std::vector<std::size_t> announced;
  options.on_progress = [&](std::size_t done, std::size_t total, bool failed) {
    announced.push_back(done);
    EXPECT_EQ(total, first.size());
    EXPECT_FALSE(failed);
  };
  const std::vector<CellOutcome> second = run_cells(cells, options);

  // The leading announce carries (replayed, total, false) and nothing runs
  // after it — progress never jumps backwards on a resume.
  ASSERT_EQ(announced.size(), 1u);
  EXPECT_EQ(announced[0], first.size());

  std::int64_t replayed = 0;
  std::int64_t skipped = 0;
  std::int64_t appended = 0;
  for (const obs::MetricSample& sample : metrics.snapshot(true)) {
    if (sample.name == "scenario.journal.replayed") replayed = sample.value;
    if (sample.name == "scenario.journal.skipped") skipped = sample.value;
    if (sample.name == "scenario.journal.appended") appended = sample.value;
  }
  EXPECT_EQ(replayed, static_cast<std::int64_t>(first.size()));
  EXPECT_EQ(skipped, static_cast<std::int64_t>(first.size()));
  EXPECT_EQ(appended, 0);

  // Replayed outcomes reproduce the first run's rows byte-for-byte, and the
  // re-absorbed metric aggregate matches the fresh run's exactly — except
  // the journal bookkeeping counters themselves (a resume replays instead
  // of appending; that difference is the feature).
  EXPECT_EQ(to_csv(second, {}), to_csv(first, {}));
  const auto without_journal = [](const obs::MetricsRegistry& registry) {
    std::vector<obs::MetricSample> samples = registry.snapshot(true);
    std::erase_if(samples, [](const obs::MetricSample& sample) {
      return sample.name.rfind("scenario.journal.", 0) == 0;
    });
    return samples;
  };
  EXPECT_EQ(without_journal(metrics), without_journal(first_metrics));
}

TEST(ShardedRun, ResumeRejectsAForeignGrid) {
  const std::string dir = scratch_dir("foreign");
  SweepSpec spec = small_grid();
  const std::vector<Cell> cells = expand(spec);
  RunOptions options;
  options.journal_dir = dir;
  (void)run_cells(cells, options);
  // The same directory with a reseeded (different-fingerprint) grid: the
  // header check refuses before any cell runs.
  spec.seed = 43;
  const std::vector<Cell> other = expand(spec);
  EXPECT_THROW(run_cells(other, options), std::runtime_error);
}

TEST(ShardedRun, PartialResumeRebuildsTheMetricAggregate) {
  // The unjournaled reference: workers record into their own registries and
  // no cell keeps a snapshot.
  const std::vector<Cell> cells = expand(small_grid());
  RunOptions plain;
  plain.threads = 2;
  obs::MetricsRegistry reference;
  plain.metrics = &reference;
  const std::vector<CellOutcome> reference_rows = run_cells(cells, plain);

  // A complete journaled run with metrics on, then its journal torn in the
  // middle of a record about halfway through the file.
  const std::string full = scratch_dir("partial_full");
  {
    obs::MetricsRegistry metrics;
    RunOptions journaled = plain;
    journaled.metrics = &metrics;
    journaled.journal_dir = full;
    (void)run_cells(cells, journaled);
  }
  const std::string file = journal_path(full, 0, 1);
  std::string bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::size_t frame = bytes.find("\nrec ", bytes.size() / 2);
  ASSERT_NE(frame, std::string::npos);
  const std::size_t payload = bytes.find('\n', frame + 1);
  ASSERT_NE(payload, std::string::npos);
  const std::size_t cut = payload + 1 + 5;  // five bytes into that record's payload
  ASSERT_LT(cut, bytes.size());

  for (const unsigned threads : {1u, 4u}) {
    const std::string dir = scratch_dir("partial_t" + std::to_string(threads));
    std::filesystem::create_directories(dir);
    const std::string torn = journal_path(dir, 0, 1);
    std::filesystem::copy_file(file, torn);
    std::filesystem::resize_file(torn, cut);

    obs::MetricsRegistry metrics;
    RunOptions resume = plain;
    resume.threads = threads;
    resume.metrics = &metrics;
    resume.journal_dir = dir;
    const std::vector<CellOutcome> rows = run_cells(cells, resume);

    // Some cells replay, the rest (the torn one among them) solve fresh.
    std::int64_t replayed = 0;
    std::int64_t appended = 0;
    std::int64_t torn_count = 0;
    obs::MetricsRegistry without_journal;
    for (const obs::MetricSample& sample : metrics.snapshot(true)) {
      if (sample.name == "scenario.journal.replayed") replayed = sample.value;
      if (sample.name == "scenario.journal.appended") appended = sample.value;
      if (sample.name == "scenario.journal.torn") torn_count = sample.value;
      if (sample.name.rfind("scenario.journal.", 0) != 0) without_journal.absorb(sample);
    }
    EXPECT_EQ(torn_count, 1) << threads << " threads";
    EXPECT_GT(replayed, 0) << threads << " threads";
    EXPECT_GT(appended, 0) << threads << " threads";
    EXPECT_EQ(replayed + appended, static_cast<std::int64_t>(cells.size()));
    EXPECT_EQ(metrics.dropped(), 0);

    // The deterministic aggregate is the unjournaled run's, byte for byte,
    // and so are the rows.
    EXPECT_EQ(without_journal.to_json(), reference.to_json()) << threads << " threads";
    EXPECT_EQ(to_csv(rows, {}), to_csv(reference_rows, {}));
  }
}

TEST(ShardedRun, MetricsResumeRefusesAMetricsLessJournal) {
  // Records journaled with metrics off carry no samples: a resume with
  // metrics on could not rebuild the aggregate from them, so it refuses,
  // naming the journal and both ways out — either of which then works.
  const std::vector<Cell> cells = expand(small_grid());
  const std::string dir = scratch_dir("metrics_less");
  RunOptions journaled;
  journaled.threads = 2;
  journaled.journal_dir = dir;
  const std::vector<CellOutcome> reference_rows = run_cells(cells, journaled);

  obs::MetricsRegistry metrics;
  RunOptions resume = journaled;
  resume.metrics = &metrics;
  try {
    (void)run_cells(cells, resume);
    ADD_FAILURE() << "a metrics-on resume over a metrics-less journal must be refused";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(journal_path(dir, 0, 1)), std::string::npos) << what;
    EXPECT_NE(what.find("carries no metric samples"), std::string::npos) << what;
    EXPECT_NE(what.find("resume without metrics or start a fresh journal"), std::string::npos)
        << what;
  }

  // Without metrics the same journal still resumes: every cell replays.
  const std::vector<CellOutcome> rows = run_cells(cells, journaled);
  EXPECT_EQ(to_csv(rows, {}), to_csv(reference_rows, {}));

  // A fresh journal takes metrics.
  RunOptions fresh = resume;
  fresh.journal_dir = scratch_dir("metrics_less_fresh");
  EXPECT_EQ(to_csv(run_cells(cells, fresh), {}), to_csv(reference_rows, {}));
  EXPECT_FALSE(metrics.snapshot().empty());
}

/// The tentpole: shard the grid N ways through journals, merge, and demand
/// the merged report is byte-identical to the single-process run — for 2-
/// and 3-way splits, CSV and JSON.
void check_merge_identity(std::size_t shards, const std::string& tag) {
  const std::string dir = scratch_dir("merge_" + tag);
  const std::vector<Cell> cells = expand(small_grid());

  RunOptions single;
  single.threads = 2;
  const std::vector<CellOutcome> reference = run_cells(cells, single);

  for (std::size_t i = 0; i < shards; ++i) {
    RunOptions shard;
    shard.threads = 2;
    shard.shard_index = i;
    shard.shard_count = shards;
    shard.journal_dir = dir;
    (void)run_cells(cells, shard);
  }
  const std::vector<CellOutcome> merged = merge_journals(dir);
  ASSERT_EQ(merged.size(), reference.size());

  ReportOptions plain;
  EXPECT_EQ(to_csv(merged, plain), to_csv(reference, plain));
  EXPECT_EQ(to_json(merged, plain), to_json(reference, plain));
  // The timing column is wall-clock and can't be byte-compared, but the
  // merged rows must still render through the --timing reporter.
  ReportOptions timing;
  timing.timing = true;
  EXPECT_FALSE(to_csv(merged, timing).empty());
}

TEST(MergeJournals, TwoShardsBatchedByteIdentical) { check_merge_identity(2, "2b"); }

TEST(MergeJournals, ThreeShardsBatchedByteIdentical) { check_merge_identity(3, "3b"); }

TEST(MergeJournals, MissingShardIsAHardError) {
  const std::string dir = scratch_dir("missing_shard");
  const std::vector<Cell> cells = expand(small_grid());
  for (std::size_t i = 0; i < 2; ++i) {
    RunOptions shard;
    shard.shard_index = i;
    shard.shard_count = 3;  // shard 2 never runs
    shard.journal_dir = dir;
    (void)run_cells(cells, shard);
  }
  try {
    (void)merge_journals(dir);
    FAIL() << "merge of an incomplete shard set must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos) << e.what();
  }
}

TEST(MergeJournals, EmptyDirectoryIsAnError) {
  const std::string dir = scratch_dir("empty");
  std::filesystem::create_directories(dir);
  EXPECT_THROW((void)merge_journals(dir), std::runtime_error);
}

}  // namespace
}  // namespace mst::scenario
