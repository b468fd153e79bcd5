#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanLog::SpanLog() : origin_(Clock::now()) {
  cell_name_ = name("scenario.cell", "scenario.runner");
}

std::uint32_t SpanLog::name(const std::string& span_name, const std::string& layer) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == span_name) return i;
  }
  std::size_t layer_id = 0;
  while (layer_id < layers_.size() && layers_[layer_id] != layer) ++layer_id;
  if (layer_id == layers_.size()) layers_.push_back(layer);
  names_.push_back(span_name);
  layer_index_.push_back(layer_id);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::size_t SpanLog::open(std::uint32_t span_name, std::size_t parent, std::size_t cell) {
  spans_.push_back(Span{span_name, parent, cell, 0, now_ns(), -1});
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t span) { spans_[span].end_ns = now_ns(); }

std::size_t SpanLog::record(std::uint32_t span_name, std::size_t parent, std::size_t cell,
                            std::int64_t start_ns, std::int64_t end_ns, std::uint64_t tag) {
  spans_.push_back(Span{span_name, parent, cell, tag, start_ns, end_ns});
  return spans_.size() - 1;
}

void SpanLog::begin_cells(std::size_t run_span) {
  run_span_ = run_span;
  cell_ordinal_ = 0;
  current_cell_span_ = open(cell_name_, run_span_, cell_ordinal_);
}

void SpanLog::next_cell() {
  close(current_cell_span_);
  ++cell_ordinal_;
  current_cell_span_ = open(cell_name_, run_span_, cell_ordinal_);
}

void SpanLog::end_cells() {
  // The callback's last report opened a span for a cell that never came.
  if (current_cell_span_ != kNone && current_cell_span_ + 1 == spans_.size()) spans_.pop_back();
  run_span_ = current_cell_span_ = cell_ordinal_ = kNone;
}

std::vector<double> SpanLog::self_ms() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNone) children[span.parent].emplace_back(span.start_ns, span.end_ns);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans_[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, spans_[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - covered) / 1e6;
  }
  return self;
}

std::map<std::string, SpanTotals> SpanLog::by_name() const {
  const std::vector<double> self = self_ms();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[names_[spans_[i].name]];
    ++t.count;
    t.total_ms += ms(spans_[i]);
    t.self_ms += self[i];
  }
  return out;
}

std::map<std::string, SpanTotals> SpanLog::by_layer() const {
  const std::vector<double> self = self_ms();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[layer_of(spans_[i].name)];
    ++t.count;
    t.total_ms += ms(spans_[i]);
    t.self_ms += self[i];
  }
  return out;
}

std::string SpanLog::to_chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[512];
  bool first = true;
  const auto emit = [&](const char* text) {
    if (!first) out += ",\n";
    first = false;
    out += text;
  };
  for (std::size_t layer = 0; layer < layers_.size(); ++layer) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                  "\"args\":{\"name\":\"%s\"}}",
                  layer + 1, layers_[layer].c_str());
    emit(buf);
  }
  const auto signed_id = [](std::size_t id) {
    return id == kNone ? -1LL : static_cast<long long>(id);
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                  "\"cell\":%lld,\"tag\":%llu}}",
                  names_[s.name].c_str(), layer_of(s.name).c_str(), layer_index_[s.name] + 1,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, signed_id(s.parent),
                  signed_id(s.cell), static_cast<unsigned long long>(s.tag));
    emit(buf);
  }
  out += "\n]}\n";
  return out;
}

std::string SpanLog::table() const {
  std::string out = "kind\tname\tcount\ttotal_ms\tself_ms\n";
  char buf[256];
  const auto rows = [&](const char* kind, const std::map<std::string, SpanTotals>& totals) {
    for (const auto& [key, t] : totals) {
      std::snprintf(buf, sizeof buf, "%s\t%s\t%zu\t%.6f\t%.6f\n", kind, key.c_str(), t.count,
                    t.total_ms, t.self_ms);
      out += buf;
    }
  };
  rows("layer", by_layer());
  rows("span", by_name());
  return out;
}

namespace {

class TimedScheduler final : public mst::api::Scheduler {
 public:
  TimedScheduler(const mst::api::Scheduler& inner, SpanLog& log, std::uint32_t solve_name,
                 std::uint32_t within_name)
      : inner_(inner), log_(log), solve_name_(solve_name), within_name_(within_name) {}

  using Scheduler::solve;

  [[nodiscard]] mst::api::SolveResult solve(const mst::api::Platform& platform,
                                            const mst::Workload& workload,
                                            const mst::api::SolveOptions& options) const override {
    const std::int64_t start = log_.now_ns();
    mst::api::SolveResult result = inner_.solve(platform, workload, options);
    log_.record(solve_name_, log_.current_parent(), log_.current_cell(), start, log_.now_ns(),
                options.seed);
    return result;
  }

  [[nodiscard]] mst::api::DecisionResult solve_within(
      const mst::api::Platform& platform, mst::Time deadline,
      const mst::api::SolveOptions& options) const override {
    const std::int64_t start = log_.now_ns();
    mst::api::DecisionResult result = inner_.solve_within(platform, deadline, options);
    log_.record(within_name_, log_.current_parent(), log_.current_cell(), start, log_.now_ns(),
                options.seed);
    return result;
  }

 private:
  const mst::api::Scheduler& inner_;
  SpanLog& log_;
  std::uint32_t solve_name_;
  std::uint32_t within_name_;
};

}  // namespace

std::unique_ptr<mst::api::Registry> timed_registry(const mst::api::Registry& base,
                                                   SpanLog& log) {
  auto timed = std::make_unique<mst::api::Registry>();
  for (const mst::api::AlgorithmInfo& info : base.list()) {
    const std::string prefix = "api." + mst::api::to_string(info.kind) + "." + info.name;
    timed->add(info, std::make_shared<const TimedScheduler>(*base.find(info.kind, info.name), log,
                                                            log.name(prefix + ".solve", "api"),
                                                            log.name(prefix + ".within", "api")));
  }
  return timed;
}

}  // namespace perfbench
