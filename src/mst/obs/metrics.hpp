#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mst/common/mutex.hpp"
#include "mst/common/thread_annotations.hpp"

/// \file metrics.hpp
/// Preregistered, allocation-free counters for the deterministic
/// observability layer.
///
/// The repo's core invariant is byte-identical output at any thread count,
/// so the metrics core is built on *commutative* updates over fixed-capacity
/// storage: a `Counter` is a relaxed atomic sum, a `Gauge` a relaxed atomic
/// max (high-water semantics), a `Histogram` a fixed set of power-of-two
/// buckets with atomic adds.  Whatever order worker threads interleave their
/// updates in, the totals — and therefore the sorted-by-name snapshot and
/// its JSON — come out identical.  Wall-clock-derived metrics are the one
/// exception; they carry `DeterminismClass::kWallTime` and are segregated
/// out of the default snapshot, mirroring the sweep reporter's `--timing`
/// convention.
///
/// Cost model (the linted zero-alloc regions in the simulator stay clean):
///  * a default-constructed handle is *disabled* — one null check, no-op;
///  * an enabled handle is one relaxed atomic RMW on a slot that was
///    registered up front — no allocation, no lock, no string;
///  * registration (`MetricsRegistry::counter` & co) takes the registry
///    mutex and scans the fixed slot array — cold path, but still heap-free,
///    so instrumented runs allocate nothing the uninstrumented runs don't
///    (pinned by tests/test_zero_alloc.cpp).
///
/// Sweep attribution: each scenario-runner worker records into one
/// long-lived registry of its own and `merge_into`s it into the parent once,
/// when the worker finishes.  Merging is the same commutative arithmetic, so
/// the parent's totals are independent of which worker ran which cell — the
/// thread-count byte-identity contract extends end to end (CI diffs the
/// JSON at 2 vs. 8 threads).  Only a journaled sweep keeps per-cell
/// snapshots: there each cell records into a second per-worker registry,
/// `reset` before every cell, whose snapshot rides on the cell's journal
/// record so a resume can rebuild the aggregate.

namespace mst::obs {

/// Histogram bucket count.  Bucket 0 holds values `<= 0`; bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`; the last bucket absorbs everything
/// larger.
inline constexpr std::size_t kBucketCount = 16;

/// Fixed storage bounds.  Registrations beyond capacity (or with a name this
/// long) are refused gracefully: the caller gets a disabled handle and the
/// registry's `dropped()` count grows — deterministically, since every run
/// attempts the same registrations.
inline constexpr std::size_t kMetricCapacity = 512;
inline constexpr std::size_t kMetricNameCapacity = 48;

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

/// Determinism contract of one metric.  `kDeterministic` values are pure
/// functions of (spec, seed) and byte-identical at any thread count;
/// `kWallTime` values measure the host and are excluded from snapshots
/// unless explicitly requested (the `--timing` convention).
enum class DeterminismClass : std::uint8_t { kDeterministic, kWallTime };

namespace detail {

/// One preregistered metric.  Counters and gauges use `value`; histograms
/// use `count`/`sum`/`buckets`.  Names are fixed char arrays so a slot never
/// touches the heap; mutation is lock-free atomics, and the owning
/// registry's mutex covers registration only.
struct MetricSlot {
  char name[kMetricNameCapacity] = {};
  std::uint8_t name_size = 0;  ///< registration compares lengths before bytes
  MetricType type = MetricType::kCounter;
  DeterminismClass determinism = DeterminismClass::kDeterministic;
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> sum{0};
  std::array<std::atomic<std::int64_t>, kBucketCount> buckets{};
};
static_assert(kMetricNameCapacity <= 256, "MetricSlot::name_size is one byte");

}  // namespace detail

// The handle hot paths are a statically-checked zero-alloc region: enabled
// updates are one relaxed atomic RMW on a preregistered slot; disabled
// handles cost one branch.  Relaxed ordering is sufficient because every
// update is commutative and the only cross-thread reads happen at snapshot
// time, after the workers joined.
// mstlint: zero-alloc

/// Monotone sum.  Disabled (no-op) when default-constructed.
class Counter {
 public:
  Counter() = default;
  explicit Counter(detail::MetricSlot* slot) : slot_(slot) {}

  [[nodiscard]] bool enabled() const { return slot_ != nullptr; }

  void add(std::int64_t delta) {
    if (slot_ != nullptr) slot_->value.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }

 private:
  detail::MetricSlot* slot_ = nullptr;
};

/// High-water mark: `record` keeps the maximum ever seen.  Max is
/// commutative, so the final value is thread-order independent.
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(detail::MetricSlot* slot) : slot_(slot) {}

  [[nodiscard]] bool enabled() const { return slot_ != nullptr; }

  void record(std::int64_t value) {
    if (slot_ == nullptr) return;
    std::int64_t current = slot_->value.load(std::memory_order_relaxed);
    while (value > current &&
           !slot_->value.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
    }
  }

 private:
  detail::MetricSlot* slot_ = nullptr;
};

/// Power-of-two bucket histogram with exact `count`/`sum` side totals.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(detail::MetricSlot* slot) : slot_(slot) {}

  [[nodiscard]] bool enabled() const { return slot_ != nullptr; }

  /// Bucket of `value`: 0 for non-positive values, else `bit_width(value)`
  /// clamped to the last bucket.
  [[nodiscard]] static std::size_t bucket_of(std::int64_t value) {
    if (value <= 0) return 0;
    const auto width =
        static_cast<std::size_t>(std::bit_width(static_cast<std::uint64_t>(value)));
    return width < kBucketCount ? width : kBucketCount - 1;
  }

  void observe(std::int64_t value) {
    if (slot_ == nullptr) return;
    slot_->count.fetch_add(1, std::memory_order_relaxed);
    slot_->sum.fetch_add(value, std::memory_order_relaxed);
    slot_->buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  }

 private:
  detail::MetricSlot* slot_ = nullptr;
};

// mstlint: zero-alloc-end

/// One metric's state at snapshot time.  `value` carries counter sums and
/// gauge maxima; `count`/`sum`/`buckets` are histogram-only.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  DeterminismClass determinism = DeterminismClass::kDeterministic;
  std::int64_t value = 0;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::array<std::int64_t, kBucketCount> buckets{};

  friend bool operator==(const MetricSample&, const MetricSample&) = default;
};

/// The fixed-capacity metric table.  Registration (find-or-create by name)
/// is mutex-guarded and idempotent; handle updates are lock-free; snapshots
/// are sorted by name so output never depends on registration order, which
/// *does* vary across thread schedules.
class MetricsRegistry {
 public:
  static constexpr std::size_t kCapacity = kMetricCapacity;
  static constexpr std::size_t kNameCapacity = kMetricNameCapacity;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create registration.  Returns a disabled handle (and counts a
  /// drop) when the table is full, the name is empty or too long, or the
  /// name is already registered with a different type.
  [[nodiscard]] Counter counter(std::string_view name,
                                DeterminismClass determinism = DeterminismClass::kDeterministic);
  [[nodiscard]] Gauge gauge(std::string_view name,
                            DeterminismClass determinism = DeterminismClass::kDeterministic);
  [[nodiscard]] Histogram histogram(
      std::string_view name, DeterminismClass determinism = DeterminismClass::kDeterministic);

  /// Registered metric count / refused registration count.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Sorted-by-name samples.  Wall-time-class metrics are excluded unless
  /// `include_wall_time` — the determinism contract's default.
  [[nodiscard]] std::vector<MetricSample> snapshot(bool include_wall_time = false) const;

  /// JSON object: `{"dropped":N,"metrics":[...]}` with one object per
  /// sample, sorted by name.  Every field is an integer, so the text is
  /// byte-comparable across runs with no float-formatting caveats.
  [[nodiscard]] std::string to_json(bool include_wall_time = false) const;

  /// Adds this registry's totals into `target` (registering names there as
  /// needed): counters add, gauges max, histograms add per bucket, and the
  /// refused-registration count adds into `target.dropped()`.  All
  /// commutative — concurrent merges from a worker pool land on the same
  /// totals in any order.  Heap-free: slots fold into slots, no snapshot.
  void merge_into(MetricsRegistry& target) const;

  /// Forgets every registration and value, in O(registered slots): the
  /// registry then snapshots exactly like a freshly constructed one, and
  /// registering again allocates nothing.  Handles taken before the reset
  /// must not be used after it — their slots get reassigned.
  void reset();

  /// Folds one externally-captured sample into this registry with the
  /// metric's own commutative combine (register-as-needed; counters and
  /// histogram buckets add, gauges max).  This is how a resumed sweep
  /// re-aggregates the per-cell snapshots replayed from a journal: the
  /// totals come out identical to the uninterrupted run's, in any replay
  /// order.
  void absorb(const MetricSample& sample);

 private:
  [[nodiscard]] detail::MetricSlot* intern(std::string_view name, MetricType type,
                                           DeterminismClass determinism);

  mutable Mutex mutex_;
  std::size_t size_ MST_GUARDED_BY(mutex_) = 0;
  std::atomic<std::int64_t> dropped_{0};
  std::array<detail::MetricSlot, kCapacity> slots_;
};

}  // namespace mst::obs
