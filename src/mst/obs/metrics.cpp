#include "mst/obs/metrics.hpp"

#include <algorithm>
#include <cstring>

namespace mst::obs {

namespace {

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "counter";
}

const char* determinism_name(DeterminismClass determinism) {
  return determinism == DeterminismClass::kWallTime ? "wall_time" : "deterministic";
}

}  // namespace

detail::MetricSlot* MetricsRegistry::intern(std::string_view name, MetricType type,
                                            DeterminismClass determinism) {
  if (name.empty() || name.size() >= kNameCapacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  LockGuard lock(mutex_);
  for (std::size_t i = 0; i < size_; ++i) {
    detail::MetricSlot& slot = slots_[i];
    if (slot.name_size == name.size() &&
        std::memcmp(slot.name, name.data(), name.size()) == 0) {
      if (slot.type != type) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
      return &slot;
    }
  }
  if (size_ == kCapacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  detail::MetricSlot& slot = slots_[size_++];
  std::memcpy(slot.name, name.data(), name.size());
  slot.name[name.size()] = '\0';
  slot.name_size = static_cast<std::uint8_t>(name.size());
  slot.type = type;
  slot.determinism = determinism;
  return &slot;
}

Counter MetricsRegistry::counter(std::string_view name, DeterminismClass determinism) {
  return Counter(intern(name, MetricType::kCounter, determinism));
}

Gauge MetricsRegistry::gauge(std::string_view name, DeterminismClass determinism) {
  return Gauge(intern(name, MetricType::kGauge, determinism));
}

Histogram MetricsRegistry::histogram(std::string_view name, DeterminismClass determinism) {
  return Histogram(intern(name, MetricType::kHistogram, determinism));
}

std::size_t MetricsRegistry::size() const {
  LockGuard lock(mutex_);
  return size_;
}

std::vector<MetricSample> MetricsRegistry::snapshot(bool include_wall_time) const {
  std::vector<MetricSample> samples;
  {
    LockGuard lock(mutex_);
    samples.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
      const detail::MetricSlot& slot = slots_[i];
      if (!include_wall_time && slot.determinism == DeterminismClass::kWallTime) continue;
      MetricSample sample;
      sample.name = slot.name;
      sample.type = slot.type;
      sample.determinism = slot.determinism;
      sample.value = slot.value.load(std::memory_order_relaxed);
      sample.count = slot.count.load(std::memory_order_relaxed);
      sample.sum = slot.sum.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kBucketCount; ++b) {
        sample.buckets[b] = slot.buckets[b].load(std::memory_order_relaxed);
      }
      samples.push_back(std::move(sample));
    }
  }
  // Registration order depends on which thread registered a name first, so
  // the snapshot is sorted by name to keep every downstream serialization
  // thread-schedule independent.
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return samples;
}

std::string MetricsRegistry::to_json(bool include_wall_time) const {
  const std::vector<MetricSample> samples = snapshot(include_wall_time);
  std::string out = "{\n  \"dropped\": " + std::to_string(dropped()) + ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& sample = samples[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + sample.name + "\", \"type\": \"" + type_name(sample.type) +
           "\", \"determinism\": \"" + determinism_name(sample.determinism) + "\"";
    if (sample.type == MetricType::kHistogram) {
      out += ", \"count\": " + std::to_string(sample.count) +
             ", \"sum\": " + std::to_string(sample.sum) + ", \"buckets\": [";
      for (std::size_t b = 0; b < kBucketCount; ++b) {
        if (b != 0) out += ", ";
        out += std::to_string(sample.buckets[b]);
      }
      out += "]";
    } else {
      out += ", \"value\": " + std::to_string(sample.value);
    }
    out += "}";
  }
  out += samples.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

namespace {

/// Adds histogram totals into `slot`: count, sum and every bucket.
template <typename Bucket>
void add_histogram(detail::MetricSlot& slot, std::int64_t count, std::int64_t sum,
                   Bucket&& bucket) {
  slot.count.fetch_add(count, std::memory_order_relaxed);
  slot.sum.fetch_add(sum, std::memory_order_relaxed);
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    slot.buckets[b].fetch_add(bucket(b), std::memory_order_relaxed);
  }
}

}  // namespace

void MetricsRegistry::absorb(const MetricSample& sample) {
  switch (sample.type) {
    case MetricType::kCounter:
      counter(sample.name, sample.determinism).add(sample.value);
      break;
    case MetricType::kGauge:
      gauge(sample.name, sample.determinism).record(sample.value);
      break;
    case MetricType::kHistogram: {
      detail::MetricSlot* slot =
          intern(sample.name, MetricType::kHistogram, sample.determinism);
      if (slot == nullptr) break;
      add_histogram(*slot, sample.count, sample.sum,
                    [&](std::size_t b) { return sample.buckets[b]; });
      break;
    }
  }
}

void MetricsRegistry::merge_into(MetricsRegistry& target) const {
  // Folds each registered slot (wall-time metrics included — the filter
  // belongs at serialization time, not merge time) into the target with
  // the metric's own commutative combine: counters and histogram buckets
  // add, gauges take the max.  Concurrent merges therefore commute.  Slots
  // below `size_` never change name or type, so only the count is read
  // under the lock.
  std::size_t size = 0;
  {
    LockGuard lock(mutex_);
    size = size_;
  }
  for (std::size_t i = 0; i < size; ++i) {
    const detail::MetricSlot& from = slots_[i];
    detail::MetricSlot* to = target.intern(from.name, from.type, from.determinism);
    if (to == nullptr) continue;
    switch (from.type) {
      case MetricType::kCounter:
        Counter(to).add(from.value.load(std::memory_order_relaxed));
        break;
      case MetricType::kGauge:
        Gauge(to).record(from.value.load(std::memory_order_relaxed));
        break;
      case MetricType::kHistogram:
        add_histogram(*to, from.count.load(std::memory_order_relaxed),
                      from.sum.load(std::memory_order_relaxed), [&](std::size_t b) {
                        return from.buckets[b].load(std::memory_order_relaxed);
                      });
        break;
    }
  }
  target.dropped_.fetch_add(dropped(), std::memory_order_relaxed);
}

void MetricsRegistry::reset() {
  LockGuard lock(mutex_);
  for (std::size_t i = 0; i < size_; ++i) {
    detail::MetricSlot& slot = slots_[i];
    std::memset(slot.name, 0, sizeof slot.name);
    slot.name_size = 0;
    slot.type = MetricType::kCounter;
    slot.determinism = DeterminismClass::kDeterministic;
    slot.value.store(0, std::memory_order_relaxed);
    slot.count.store(0, std::memory_order_relaxed);
    slot.sum.store(0, std::memory_order_relaxed);
    for (std::atomic<std::int64_t>& bucket : slot.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
  size_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace mst::obs
