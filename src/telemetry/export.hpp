// Exporters for the causal-tracing layer: Chrome/Perfetto trace-event JSON
// from recorded spans, post-run stitching of spans into per-trace causal
// summaries, and a periodic registry time-series sampler.
//
// All output is byte-deterministic for identical inputs: spans are emitted
// in record order, summaries in trace-id order, metrics in name order, and
// timestamps are printed with fixed precision (virtual-time ns are exact in
// microseconds at three decimals).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace swish::telemetry {

/// Writes the spans as a Chrome trace-event JSON document loadable by
/// Perfetto (ui.perfetto.dev) and chrome://tracing. Each switch becomes a
/// process lane (pid = node id, named via `node_names` when provided);
/// parent→child causality is drawn with flow events, so one sampled write's
/// origin visually links to every replica apply. One event per line.
void write_perfetto(std::ostream& os, const std::vector<Span>& spans,
                    const std::map<NodeId, std::string>& node_names = {});

/// One point on a Perfetto counter track ("ph":"C" event): `track` becomes
/// the counter name in node `node`'s process lane. Produced by the health
/// collector (per-switch queue depth from INT hop records).
struct CounterSample {
  TimeNs time = 0;
  NodeId node = 0;
  std::string track;
  double value = 0.0;
};

/// write_perfetto variant that appends counter tracks after the span and
/// flow events. With an empty `counters` vector the output is byte-identical
/// to the spans-only overload, and read_perfetto ignores "C" events, so
/// counter tracks can ride in the same file without breaking `analyze`.
void write_perfetto(std::ostream& os, const std::vector<Span>& spans,
                    const std::vector<CounterSample>& counters,
                    const std::map<NodeId, std::string>& node_names = {});

/// Parses a document produced by write_perfetto back into spans (used by the
/// `swish_sim analyze` subcommand; not a general trace-event parser). Span
/// names are interned into static storage. Throws std::runtime_error on
/// malformed input.
std::vector<Span> read_perfetto(std::istream& is);

/// Line-oriented JSON field readers behind read_perfetto and
/// print_health_report: one object per line, flat fields. raw_field returns
/// the raw text of `key`'s value (a string without its quotes), or empty when
/// absent; u64_field parses it as a decimal integer, 0 when absent.
std::string_view raw_field(std::string_view line, std::string_view key);
std::uint64_t u64_field(std::string_view line, std::string_view key);

/// One stitched causal chain: everything recorded under a single trace id.
struct TraceSummary {
  std::uint64_t trace_id = 0;
  const char* root_name = "";
  NodeId origin = 0;         ///< node of the root span
  std::uint32_t space = 0;   ///< from the root span
  std::uint64_t key = 0;     ///< from the root span
  TimeNs start = 0;          ///< earliest span start
  TimeNs end = 0;            ///< latest span end
  std::size_t span_count = 0;
  std::size_t node_count = 0;  ///< distinct switches touched
  std::uint8_t max_hop = 0;

  [[nodiscard]] TimeNs duration() const noexcept { return end - start; }
};

/// Groups spans by trace id into summaries, sorted by trace id. Spans whose
/// parent was dropped at the recorder cap still aggregate into their trace.
std::vector<TraceSummary> stitch_traces(const std::vector<Span>& spans);

/// Rewrites span/trace ids into a canonical, content-derived numbering so
/// that two recordings of the same causal structure compare byte-identical
/// regardless of id-allocation order — the cross-shard-count comparison for
/// the sharded simulation core (per-shard recorders allocate ids from
/// disjoint bases, and record order differs with the partitioning).
///
/// Traces order by (root start, root node, old trace id); spans within the
/// result by (trace, start, hop, node, name, space, key, end, old span id).
/// Ids renumber densely from 1 in that order; parent links are remapped, and
/// a parent outside the set (dropped at the recorder cap) becomes 0.
std::vector<Span> canonicalize_spans(std::vector<Span> spans);

/// The k slowest traces by duration (ties broken by ascending trace id).
std::vector<TraceSummary> top_slowest(std::vector<TraceSummary> summaries, std::size_t k);

/// Human-readable top-k table ("slowest propagations") on `os`.
void print_trace_summaries(std::ostream& os, const std::vector<TraceSummary>& summaries);

/// Periodic metric-over-virtual-time sampler. The driver calls sample() on
/// its own schedule (swish_sim uses a periodic simulator timer); write_csv
/// emits long-format rows `time_ns,metric,value`, histograms expanded into
/// .count/.p50/.p99 rows.
class TimeSeriesSampler {
 public:
  void sample(TimeNs at, const MetricsRegistry& registry) {
    samples_.emplace_back(at, registry.snapshot());
  }

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::pair<TimeNs, MetricsSnapshot>> samples_;
};

}  // namespace swish::telemetry
