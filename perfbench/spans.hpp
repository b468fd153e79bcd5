#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mst/api/registry.hpp"

/// \file spans.hpp
/// Host-time spans recorded from the benchmark's own files, around the
/// calls it makes into each layer of the library.  Nothing here reaches
/// inside the library: the api boundary is observed through timing
/// decorators registered in a benchmark-built `api::Registry`, and the
/// runner's per-cell boundaries through `RunOptions::on_progress`.
///
/// Spans stay in memory and are exported when the run ends, as Chrome
/// trace JSON (one track per layer) and as a self-time table.  A span's
/// self time is its duration minus the part of it its children cover.
/// The log is single-threaded: the traced pass runs the sweep at 1 thread.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded interval.  `parent` and `cell` use `kNone` when absent.
/// Inside a traced `run_cells`, every span of one sweep cell carries the
/// cell's execution ordinal in `cell`; spans about one cell carry its solve
/// seed in `tag`, which identifies the cell across tracks.
struct Span {
  std::uint32_t name = 0;  ///< index into the log's interned names
  std::size_t parent = 0;
  std::size_t cell = 0;
  std::uint64_t tag = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
};

/// Per-name totals of a finished log.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class SpanLog {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  SpanLog();

  /// Interns a span name under its layer (the trace track); idempotent.
  std::uint32_t name(const std::string& span_name, const std::string& layer);
  [[nodiscard]] const std::string& layer_of(std::uint32_t id) const {
    return layers_[layer_index_[id]];
  }

  [[nodiscard]] std::int64_t now_ns() const;

  /// Opens a span that closes later (its children are recorded meanwhile).
  std::size_t open(std::uint32_t name, std::size_t parent, std::size_t cell = kNone);
  void close(std::size_t span);
  /// Records a finished span.
  std::size_t record(std::uint32_t name, std::size_t parent, std::size_t cell,
                     std::int64_t start_ns, std::int64_t end_ns, std::uint64_t tag = 0);

  /// Cell boundaries of one `run_cells` call, fed by its progress callback:
  /// `begin_cells` opens cell 0 under `run_span`, `next_cell` closes the
  /// current cell span and opens the next, `end_cells` drops the last,
  /// empty one.  Api spans nest under the open cell span.
  void begin_cells(std::size_t run_span);
  void next_cell();
  void end_cells();
  [[nodiscard]] std::size_t current_parent() const { return current_cell_span_; }
  [[nodiscard]] std::size_t current_cell() const { return cell_ordinal_; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] static double ms(const Span& span) {
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }
  /// Totals keyed by span name, and by layer (`count`, `self_ms`; a layer's
  /// `total_ms` sums its spans, so it double-counts same-layer nesting).
  [[nodiscard]] std::map<std::string, SpanTotals> by_name() const;
  [[nodiscard]] std::map<std::string, SpanTotals> by_layer() const;

  /// Chrome trace JSON (`chrome://tracing`, Perfetto): one host-time track
  /// (tid) per layer, complete ("X") events in microseconds from the log's
  /// origin, with `id`, `parent`, `cell` and `tag` args.
  [[nodiscard]] std::string to_chrome_json() const;
  /// Tab-separated self-time table: one row per layer, then one per span
  /// name, each with count, total and self milliseconds.
  [[nodiscard]] std::string table() const;

 private:
  /// Self time of every span, index-aligned with `spans()`.
  [[nodiscard]] std::vector<double> self_ms() const;

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<std::size_t> layer_index_;
  std::vector<std::string> layers_;
  std::vector<Span> spans_;
  std::uint32_t cell_name_ = 0;
  std::size_t run_span_ = kNone;
  std::size_t current_cell_span_ = kNone;
  std::size_t cell_ordinal_ = kNone;
};

/// A copy of `base` whose every entry is a timing decorator around the
/// built-in scheduler: same `AlgorithmInfo`, same registration order, so
/// `expand` and the runner see the same grid.  Each solve records an
/// `api.<kind>.<algorithm>.solve` (or `.within`) span under the log's
/// current cell.  Calls the inner scheduler makes on itself, such as the
/// decision-form search's probes, stay inside the span and are not seen.
/// `base` and `log` must outlive the returned registry.
std::unique_ptr<mst::api::Registry> timed_registry(const mst::api::Registry& base,
                                                   SpanLog& log);

}  // namespace perfbench
