// The deterministic observability layer: metric handle semantics, registry
// registration edge cases, commutative merging (the sweep aggregation
// contract), trace recording/serialization, and the end-to-end pins — the
// Figure-2 solve replayed into a well-formed Chrome trace, and sweep metric
// JSON byte-identical at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/api/trace_replay.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/obs/observation.hpp"
#include "mst/obs/trace.hpp"
#include "mst/platform/chain.hpp"
#include "mst/scenario/report.hpp"
#include "mst/scenario/runner.hpp"
#include "mst/scenario/spec.hpp"

namespace mst {
namespace {

using obs::Counter;
using obs::DeterminismClass;
using obs::Gauge;
using obs::Histogram;
using obs::MetricSample;
using obs::MetricsRegistry;
using obs::MetricType;
using obs::TraceSink;

TEST(Metrics, CounterSumsAndGaugeKeepsMaximum) {
  MetricsRegistry registry;
  Counter counter = registry.counter("test.counter");
  ASSERT_TRUE(counter.enabled());
  counter.increment();
  counter.add(41);

  Gauge gauge = registry.gauge("test.gauge");
  gauge.record(7);
  gauge.record(3);  // below the high water: ignored
  gauge.record(9);

  const std::vector<MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "test.counter");
  EXPECT_EQ(samples[0].value, 42);
  EXPECT_EQ(samples[1].name, "test.gauge");
  EXPECT_EQ(samples[1].value, 9);
}

TEST(Metrics, HistogramBucketsByPowerOfTwo) {
  MetricsRegistry registry;
  Histogram histogram = registry.histogram("test.hist");
  // bucket_of: 0 for <= 0, else bit_width clamped to the last bucket.
  EXPECT_EQ(Histogram::bucket_of(-5), 0u);
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(std::int64_t{1} << 60), obs::kBucketCount - 1);

  histogram.observe(0);
  histogram.observe(3);
  histogram.observe(3);
  histogram.observe(1000);
  const std::vector<MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].count, 4);
  EXPECT_EQ(samples[0].sum, 1006);
  EXPECT_EQ(samples[0].buckets[0], 1);
  EXPECT_EQ(samples[0].buckets[2], 2);
  EXPECT_EQ(samples[0].buckets[10], 1);  // 1000 in [512, 1024)
}

TEST(Metrics, DisabledHandlesAreNoOps) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  EXPECT_FALSE(counter.enabled());
  EXPECT_FALSE(gauge.enabled());
  EXPECT_FALSE(histogram.enabled());
  // Must not crash; there is nothing to record into.
  counter.increment();
  gauge.record(5);
  histogram.observe(5);
}

TEST(Metrics, RegistrationIsIdempotentAndTypeClashesDrop) {
  MetricsRegistry registry;
  Counter a = registry.counter("shared");
  Counter b = registry.counter("shared");
  a.increment();
  b.increment();
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.snapshot()[0].value, 2);

  // Same name, different type: refused with a disabled handle and a
  // deterministic drop count — never silent aliasing.
  Gauge clash = registry.gauge("shared");
  EXPECT_FALSE(clash.enabled());
  EXPECT_EQ(registry.dropped(), 1);

  // Unusable names are refused the same way.
  EXPECT_FALSE(registry.counter("").enabled());
  const std::string oversized(MetricsRegistry::kNameCapacity + 10, 'x');
  EXPECT_FALSE(registry.counter(oversized).enabled());
  EXPECT_EQ(registry.dropped(), 3);
}

TEST(Metrics, CapacityOverflowDegradesGracefully) {
  MetricsRegistry registry;
  char name[32];
  for (std::size_t i = 0; i < MetricsRegistry::kCapacity; ++i) {
    std::snprintf(name, sizeof name, "metric.%04zu", i);
    EXPECT_TRUE(registry.counter(name).enabled());
  }
  EXPECT_EQ(registry.size(), MetricsRegistry::kCapacity);
  Counter overflow = registry.counter("metric.overflow");
  EXPECT_FALSE(overflow.enabled());
  overflow.increment();  // still a safe no-op
  EXPECT_EQ(registry.dropped(), 1);
}

TEST(Metrics, SnapshotSortsByNameAndSegregatesWallTime) {
  MetricsRegistry registry;
  registry.counter("zebra").increment();
  registry.counter("alpha").increment();
  registry.counter("wall.us", DeterminismClass::kWallTime).add(1234);

  const std::vector<MetricSample> deterministic = registry.snapshot();
  ASSERT_EQ(deterministic.size(), 2u);
  EXPECT_EQ(deterministic[0].name, "alpha");
  EXPECT_EQ(deterministic[1].name, "zebra");

  const std::vector<MetricSample> all = registry.snapshot(/*include_wall_time=*/true);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].name, "wall.us");
  EXPECT_EQ(all[1].determinism, DeterminismClass::kWallTime);

  const std::string json = registry.to_json();
  EXPECT_EQ(json.find("wall.us"), std::string::npos);
  EXPECT_NE(registry.to_json(/*include_wall_time=*/true).find("wall.us"), std::string::npos);
}

TEST(Metrics, MergeIsCommutative) {
  const auto populate_a = [](MetricsRegistry& r) {
    r.counter("events").add(10);
    r.gauge("peak").record(5);
    r.histogram("latency").observe(3);
  };
  const auto populate_b = [](MetricsRegistry& r) {
    r.counter("events").add(7);
    r.gauge("peak").record(9);
    r.histogram("latency").observe(100);
    r.counter("only_b").increment();
  };

  MetricsRegistry a1;
  MetricsRegistry b1;
  populate_a(a1);
  populate_b(b1);
  MetricsRegistry ab;
  a1.merge_into(ab);
  b1.merge_into(ab);

  MetricsRegistry a2;
  MetricsRegistry b2;
  populate_a(a2);
  populate_b(b2);
  MetricsRegistry ba;
  b2.merge_into(ba);
  a2.merge_into(ba);

  EXPECT_EQ(ab.to_json(true), ba.to_json(true));
  const std::vector<MetricSample> samples = ab.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "events");
  EXPECT_EQ(samples[0].value, 17);
  EXPECT_EQ(samples[2].name, "only_b");
  EXPECT_EQ(samples[3].name, "peak");
  EXPECT_EQ(samples[3].value, 9);
}

TEST(Metrics, MergeFoldsRefusedRegistrations) {
  // A refused registration in a worker's registry must still show in the
  // sweep's `dropped` after the merge.
  MetricsRegistry worker;
  worker.counter("kept").increment();
  (void)worker.gauge("kept");  // type clash: refused
  (void)worker.counter("");    // empty name: refused
  MetricsRegistry parent;
  parent.counter("kept").add(2);
  worker.merge_into(parent);
  EXPECT_EQ(parent.dropped(), 2);
  const std::vector<MetricSample> samples = parent.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].value, 3);
}

TEST(Metrics, ResetSnapshotsLikeAFreshRegistry) {
  const auto populate = [](MetricsRegistry& r) {
    r.counter("solve").add(3);
    r.gauge("peak").record(8);
    r.histogram("latency").observe(5);
    r.counter("cell.wall_us", DeterminismClass::kWallTime).add(17);
  };
  MetricsRegistry used;
  populate(used);
  used.histogram("zzz.only.before.reset").observe(1000);
  (void)used.gauge("solve");  // a drop, forgotten by the reset too
  ASSERT_EQ(used.dropped(), 1);
  used.reset();
  EXPECT_EQ(used.size(), 0u);
  EXPECT_EQ(used.dropped(), 0);
  EXPECT_TRUE(used.snapshot(true).empty());
  EXPECT_EQ(used.to_json(true), MetricsRegistry().to_json(true));

  // Re-registered in another order, one name changing type: the reset
  // registry serializes byte-for-byte like a fresh one given the same calls.
  MetricsRegistry fresh;
  for (MetricsRegistry* r : {&used, &fresh}) {
    r->gauge("latency").record(2);
    populate(*r);
  }
  EXPECT_EQ(used.snapshot(true), fresh.snapshot(true));
  EXPECT_EQ(used.to_json(true), fresh.to_json(true));
  EXPECT_EQ(used.dropped(), fresh.dropped());
  EXPECT_EQ(used.size(), fresh.size());
}

TEST(Trace, RecordsAndSerializesChromeEvents) {
  TraceSink sink;
  const obs::TrackId cpu = sink.track("cpu 1");
  const obs::NameId exec = sink.name("exec");
  sink.begin(cpu, exec, 3, /*arg=*/0);
  sink.end(cpu, exec, 8);
  sink.instant(cpu, exec, 10);
  sink.counter(cpu, exec, 11, 42);
  EXPECT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.dropped(), 0);
  EXPECT_EQ(sink.track_label(cpu), "cpu 1");

  const std::string json = sink.to_chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);  // track metadata
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

TEST(Trace, OverflowAndInvalidHandlesDropCounted) {
  TraceSink sink(/*event_capacity=*/4, /*track_capacity=*/1, /*name_capacity=*/1);
  const obs::TrackId track = sink.track("only");
  const obs::NameId name = sink.name("tick");
  EXPECT_EQ(sink.track("second"), obs::kInvalidTrack);  // table full
  for (int i = 0; i < 6; ++i) sink.instant(track, name, i);
  EXPECT_EQ(sink.events().size(), 4u);
  // 1 refused track + 2 overflowed events.
  EXPECT_EQ(sink.dropped(), 3);
  sink.instant(obs::kInvalidTrack, name, 0);
  EXPECT_EQ(sink.dropped(), 4);
}

/// Structural walk of the serialized trace: per track, `ts` must be
/// monotone and 'B'/'E' must alternate (every span closed).  Parses the
/// flat event array with line-level string ops — the serializer emits one
/// event object per line.
void check_trace_structure(const std::string& json) {
  std::vector<std::int64_t> last_ts;
  std::vector<int> open_spans;
  std::size_t pos = 0;
  std::size_t checked = 0;
  while ((pos = json.find("\"ph\": \"", pos)) != std::string::npos) {
    const char phase = json[pos + 7];
    const std::size_t line_end = json.find('\n', pos);
    const std::string line = json.substr(pos, line_end - pos);
    pos = line_end;
    if (phase == 'M') continue;  // metadata rows carry no ts
    const std::size_t tid_at = line.find("\"tid\": ");
    const std::size_t ts_at = line.find("\"ts\": ");
    ASSERT_NE(tid_at, std::string::npos) << line;
    ASSERT_NE(ts_at, std::string::npos) << line;
    const auto tid = static_cast<std::size_t>(std::stoll(line.substr(tid_at + 7)));
    const std::int64_t ts = std::stoll(line.substr(ts_at + 6));
    if (tid >= last_ts.size()) {
      last_ts.resize(tid + 1, 0);
      open_spans.resize(tid + 1, 0);
    }
    EXPECT_GE(ts, last_ts[tid]) << "non-monotone ts on tid " << tid;
    last_ts[tid] = ts;
    if (phase == 'B') ++open_spans[tid];
    if (phase == 'E') {
      EXPECT_GT(open_spans[tid], 0) << "span end without begin on tid " << tid;
      --open_spans[tid];
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  for (const int open : open_spans) EXPECT_EQ(open, 0);
}

TEST(TraceReplay, Fig2ScheduleProducesWellFormedGantt) {
  // The paper's worked example: chain c=(2,3), w=(3,5), 5 tasks, makespan 14.
  const api::Platform platform = Chain::from_vectors({2, 3}, {3, 5});
  MetricsRegistry metrics;
  api::SolveOptions options;
  options.metrics = &metrics;
  const api::SolveResult result = api::registry().solve(platform, "optimal", 5, options);
  ASSERT_EQ(result.makespan, 14);

  TraceSink trace;
  const sim::SimResult replay = api::replay_schedule(result, {&metrics, &trace});
  EXPECT_EQ(replay.makespan, 14);
  EXPECT_EQ(replay.num_tasks(), 5u);

  // The solve recorded into the registry; the replay added simulator counts.
  const std::vector<MetricSample> samples = metrics.snapshot();
  const auto find = [&](const std::string& name) {
    const auto it = std::find_if(samples.begin(), samples.end(),
                                 [&](const MetricSample& s) { return s.name == name; });
    return it == samples.end() ? std::int64_t{-1} : it->value;
  };
  EXPECT_EQ(find("api.solve.optimal"), 1);
  EXPECT_EQ(find("sim.tasks.completed"), 5);
  EXPECT_GT(find("sim.engine.events"), 0);

  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"cpu 1\""), std::string::npos);
  EXPECT_NE(json.find("\"link 0->1\""), std::string::npos);
  check_trace_structure(json);
}

TEST(TraceReplay, UnmaterializedResultThrows) {
  const api::Platform platform = Chain::from_vectors({2, 3}, {3, 5});
  api::SolveOptions options;
  options.materialize = false;
  const api::SolveResult result = api::registry().solve(platform, "optimal", 5, options);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(result.schedule));
  EXPECT_THROW((void)api::replay_schedule(result), std::invalid_argument);
}

TEST(SweepMetrics, AggregateIsByteIdenticalAtAnyThreadCount) {
  // A small grid with enough cells to actually interleave workers, run at 1
  // and 4 threads into fresh parent registries: the merged JSON — like the
  // CSV — must be byte-identical (CI repeats this via mstctl at 2 vs 8).
  scenario::SweepSpec spec;
  spec.name = "obs";
  spec.kinds = {api::PlatformKind::kChain, api::PlatformKind::kSpider};
  spec.sizes = {4, 8};
  spec.instances = 2;
  spec.algorithms = {"optimal", "forward-greedy"};
  spec.tasks = {6};
  spec.deadlines = {30};
  const std::vector<scenario::Cell> cells = scenario::expand(spec);
  ASSERT_GT(cells.size(), 8u);

  std::vector<std::string> jsons;
  for (const unsigned threads : {1u, 4u}) {
    MetricsRegistry parent;
    scenario::RunOptions options;
    options.threads = threads;
    options.metrics = &parent;
    const std::vector<scenario::CellOutcome> outcomes = scenario::run_cells(cells, options);
    for (const scenario::CellOutcome& out : outcomes) {
      EXPECT_TRUE(out.ok()) << out.error;
      // Without a journal the workers record straight into their own
      // registries: no cell takes a snapshot.
      EXPECT_TRUE(out.metrics.empty());
    }
    jsons.push_back(parent.to_json());
    EXPECT_EQ(parent.dropped(), 0);
  }
  ASSERT_EQ(jsons.size(), 2u);
  EXPECT_EQ(jsons[0], jsons[1]);
  // The aggregate carries the runner's own progress metrics too.
  EXPECT_NE(jsons[0].find("scenario.cells.completed"), std::string::npos);
  // Wall-time entries stay out of the deterministic serialization.
  EXPECT_EQ(jsons[0].find("scenario.cell.wall_us"), std::string::npos);

  // A journaled run of the same grid keeps a snapshot per cell (its record
  // carries it), and its aggregate, less the journal's own bookkeeping, is
  // the unjournaled one.
  const std::string dir = ::testing::TempDir() + "mst_obs_journaled";
  std::filesystem::remove_all(dir);
  MetricsRegistry journaled;
  scenario::RunOptions options;
  options.threads = 4;
  options.metrics = &journaled;
  options.journal_dir = dir;
  for (const scenario::CellOutcome& out : scenario::run_cells(cells, options)) {
    EXPECT_TRUE(out.ok()) << out.error;
    EXPECT_FALSE(out.metrics.empty());
    EXPECT_TRUE(std::any_of(out.metrics.begin(), out.metrics.end(), [](const MetricSample& m) {
      return m.name == "scenario.cell.wall_us";
    }));
  }
  MetricsRegistry without_journal;
  for (const MetricSample& sample : journaled.snapshot(true)) {
    if (sample.name.rfind("scenario.journal.", 0) != 0) without_journal.absorb(sample);
  }
  EXPECT_EQ(without_journal.to_json(), jsons[0]);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mst
