#include "telemetry/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <istream>
#include <ostream>
#include <set>
#include <stdexcept>
#include <unordered_map>

namespace swish::telemetry {

namespace {

/// Virtual-time ns → trace-event µs with three decimals (exact for ns).
std::string us3(TimeNs ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

}  // namespace

void write_perfetto(std::ostream& os, const std::vector<Span>& spans,
                    const std::map<NodeId, std::string>& node_names) {
  write_perfetto(os, spans, {}, node_names);
}

void write_perfetto(std::ostream& os, const std::vector<Span>& spans,
                    const std::vector<CounterSample>& counters,
                    const std::map<NodeId, std::string>& node_names) {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    os << (first ? "\n" : ",\n");
    first = false;
  };

  std::map<NodeId, const std::string*> nodes;
  for (const Span& s : spans) nodes.emplace(s.node, nullptr);
  for (const CounterSample& c : counters) nodes.emplace(c.node, nullptr);
  for (auto& [node, name] : nodes) {
    auto it = node_names.find(node);
    if (it != node_names.end()) name = &it->second;
  }
  for (const auto& [node, name] : nodes) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << node << ",\"tid\":0,\"args\":{\"name\":\"";
    if (name != nullptr) {
      os << *name;
    } else {
      os << "node" << node;
    }
    os << "\"}}";
  }

  std::unordered_map<std::uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& s : spans) by_id.emplace(s.span_id, &s);

  for (const Span& s : spans) {
    sep();
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"swish\",\"ph\":\"X\",\"ts\":" << us3(s.start)
       << ",\"dur\":" << us3(s.end - s.start) << ",\"pid\":" << s.node
       << ",\"tid\":0,\"args\":{\"trace\":" << s.trace_id << ",\"span\":" << s.span_id
       << ",\"parent\":" << s.parent_span << ",\"hop\":" << static_cast<unsigned>(s.hop)
       << ",\"space\":" << s.space << ",\"key\":" << s.key << "}}";
  }

  // Flow events draw the causal edges: an "s" at the parent span's lane and a
  // matching "f" at the child's, keyed by the child's span id.
  for (const Span& s : spans) {
    if (s.parent_span == 0) continue;
    auto it = by_id.find(s.parent_span);
    if (it == by_id.end()) continue;  // parent dropped at the recorder cap
    const Span& p = *it->second;
    sep();
    os << "{\"name\":\"causal\",\"cat\":\"swish\",\"ph\":\"s\",\"id\":" << s.span_id
       << ",\"ts\":" << us3(p.start) << ",\"pid\":" << p.node << ",\"tid\":0}";
    sep();
    os << "{\"name\":\"causal\",\"cat\":\"swish\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << s.span_id
       << ",\"ts\":" << us3(s.start) << ",\"pid\":" << s.node << ",\"tid\":0}";
  }

  // Counter tracks (health collector): ignored by read_perfetto, rendered by
  // the Perfetto UI as per-process counter lanes.
  for (const CounterSample& c : counters) {
    sep();
    os << "{\"name\":\"" << c.track << "\",\"cat\":\"swish\",\"ph\":\"C\",\"ts\":" << us3(c.time)
       << ",\"pid\":" << c.node << ",\"tid\":0,\"args\":{\"value\":"
       << format_metric_number(c.value) << "}}";
  }

  os << "\n]}\n";
}

std::string_view raw_field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return {};
  auto start = pos + needle.size();
  auto end = start;
  if (end < line.size() && line[end] == '"') {  // string value
    ++start;
    end = line.find('"', start);
    if (end == std::string_view::npos) return {};
    return line.substr(start, end - start);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

std::uint64_t u64_field(std::string_view line, std::string_view key) {
  const std::string_view raw = raw_field(line, key);
  if (raw.empty()) return 0;
  return std::strtoull(std::string(raw).c_str(), nullptr, 10);
}

namespace {

TimeNs ns_field(std::string_view line, std::string_view key) {
  const std::string_view raw = raw_field(line, key);
  if (raw.empty()) return 0;
  return static_cast<TimeNs>(std::llround(std::strtod(std::string(raw).c_str(), nullptr) * 1000.0));
}

const char* intern_name(std::string_view name) {
  static std::set<std::string, std::less<>> names;  // node-based: c_str() stays stable
  auto it = names.find(name);
  if (it == names.end()) it = names.emplace(name).first;
  return it->c_str();
}

}  // namespace

std::vector<Span> read_perfetto(std::istream& is) {
  std::vector<Span> spans;
  std::string line;
  bool saw_header = false;
  while (std::getline(is, line)) {
    if (line.find("\"traceEvents\"") != std::string::npos) saw_header = true;
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    Span s;
    s.name = intern_name(raw_field(line, "name"));
    s.trace_id = u64_field(line, "trace");
    s.span_id = u64_field(line, "span");
    s.parent_span = u64_field(line, "parent");
    s.node = static_cast<NodeId>(u64_field(line, "pid"));
    s.start = ns_field(line, "ts");
    s.end = s.start + ns_field(line, "dur");
    s.hop = static_cast<std::uint8_t>(u64_field(line, "hop"));
    s.space = static_cast<std::uint32_t>(u64_field(line, "space"));
    s.key = u64_field(line, "key");
    if (s.trace_id == 0 || s.span_id == 0) continue;  // metadata or foreign event
    spans.push_back(s);
  }
  if (!saw_header) throw std::runtime_error("not a swish perfetto trace (no traceEvents)");
  return spans;
}

std::vector<TraceSummary> stitch_traces(const std::vector<Span>& spans) {
  struct Acc {
    TraceSummary sum;
    std::set<NodeId> nodes;
    bool root_seen = false;
  };
  std::map<std::uint64_t, Acc> by_trace;
  for (const Span& s : spans) {
    Acc& a = by_trace[s.trace_id];
    if (a.sum.span_count == 0) {
      a.sum.trace_id = s.trace_id;
      a.sum.start = s.start;
      a.sum.end = s.end;
      a.sum.root_name = s.name;
      a.sum.origin = s.node;
      a.sum.space = s.space;
      a.sum.key = s.key;
    }
    if (s.parent_span == 0 && !a.root_seen) {
      a.root_seen = true;
      a.sum.root_name = s.name;
      a.sum.origin = s.node;
      a.sum.space = s.space;
      a.sum.key = s.key;
    }
    a.sum.start = std::min(a.sum.start, s.start);
    a.sum.end = std::max(a.sum.end, s.end);
    a.sum.max_hop = std::max(a.sum.max_hop, s.hop);
    ++a.sum.span_count;
    a.nodes.insert(s.node);
  }
  std::vector<TraceSummary> out;
  out.reserve(by_trace.size());
  for (auto& [id, a] : by_trace) {
    a.sum.node_count = a.nodes.size();
    out.push_back(a.sum);
  }
  return out;
}

std::vector<Span> canonicalize_spans(std::vector<Span> spans) {
  // Per-trace sort key: (root start, root node, old trace id). The root is
  // the earliest parentless span; traces whose root was dropped at the
  // recorder cap fall back to their earliest span.
  struct TraceKey {
    TimeNs start = 0;
    NodeId node = 0;
    std::uint64_t old_id = 0;
    bool root_seen = false;
  };
  std::unordered_map<std::uint64_t, TraceKey> traces;
  traces.reserve(spans.size());
  for (const Span& s : spans) {
    auto [it, fresh] = traces.try_emplace(s.trace_id);
    TraceKey& k = it->second;
    const bool is_root = s.parent_span == 0;
    const bool better = fresh || (is_root && !k.root_seen) ||
                        (is_root == k.root_seen &&
                         (s.start < k.start || (s.start == k.start && s.node < k.node)));
    if (better) {
      k.start = s.start;
      k.node = s.node;
      k.root_seen = k.root_seen || is_root;
    }
    if (fresh) k.old_id = s.trace_id;
  }

  std::sort(spans.begin(), spans.end(), [&traces](const Span& a, const Span& b) {
    if (a.trace_id != b.trace_id) {
      const TraceKey& ka = traces.at(a.trace_id);
      const TraceKey& kb = traces.at(b.trace_id);
      if (ka.start != kb.start) return ka.start < kb.start;
      if (ka.node != kb.node) return ka.node < kb.node;
      return ka.old_id < kb.old_id;
    }
    if (a.start != b.start) return a.start < b.start;
    if (a.hop != b.hop) return a.hop < b.hop;
    if (a.node != b.node) return a.node < b.node;
    if (const int c = std::strcmp(a.name, b.name); c != 0) return c < 0;
    if (a.space != b.space) return a.space < b.space;
    if (a.key != b.key) return a.key < b.key;
    if (a.end != b.end) return a.end < b.end;
    return a.span_id < b.span_id;
  });

  // Dense renumbering in sorted order; parent links follow the span-id map.
  std::unordered_map<std::uint64_t, std::uint64_t> trace_map;
  std::unordered_map<std::uint64_t, std::uint64_t> span_map;
  trace_map.reserve(traces.size());
  span_map.reserve(spans.size());
  for (const Span& s : spans) {
    trace_map.try_emplace(s.trace_id, trace_map.size() + 1);
    span_map.try_emplace(s.span_id, span_map.size() + 1);
  }
  for (Span& s : spans) {
    s.trace_id = trace_map.at(s.trace_id);
    s.span_id = span_map.at(s.span_id);
    if (s.parent_span != 0) {
      auto it = span_map.find(s.parent_span);
      s.parent_span = it == span_map.end() ? 0 : it->second;
    }
  }
  return spans;
}

std::vector<TraceSummary> top_slowest(std::vector<TraceSummary> summaries, std::size_t k) {
  std::sort(summaries.begin(), summaries.end(), [](const TraceSummary& a, const TraceSummary& b) {
    if (a.duration() != b.duration()) return a.duration() > b.duration();
    return a.trace_id < b.trace_id;
  });
  if (summaries.size() > k) summaries.resize(k);
  return summaries;
}

void print_trace_summaries(std::ostream& os, const std::vector<TraceSummary>& summaries) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%8s  %-16s %6s %5s %8s %12s %12s %6s %6s %4s\n", "trace",
                "root", "origin", "space", "key", "start_us", "dur_us", "spans", "nodes", "hops");
  os << buf;
  for (const TraceSummary& t : summaries) {
    std::snprintf(buf, sizeof buf,
                  "%8" PRIu64 "  %-16s %6u %5u %8" PRIu64 " %12s %12s %6zu %6zu %4u\n",
                  t.trace_id, t.root_name, t.origin, t.space, t.key, us3(t.start).c_str(),
                  us3(t.duration()).c_str(), t.span_count, t.node_count,
                  static_cast<unsigned>(t.max_hop));
    os << buf;
  }
}

void TimeSeriesSampler::write_csv(std::ostream& os) const {
  os << "time_ns,metric,value\n";
  for (const auto& [at, snap] : samples_) {
    for (const auto& [name, v] : snap.values) {
      switch (v.kind) {
        case MetricKind::kCounter:
        case MetricKind::kProbe:
          os << at << ',' << name << ',' << v.count << '\n';
          break;
        case MetricKind::kGauge:
          os << at << ',' << name << ',' << format_metric_number(v.number) << '\n';
          break;
        case MetricKind::kHistogram:
          os << at << ',' << name << ".count," << v.hist.count() << '\n';
          os << at << ',' << name << ".p50," << v.hist.percentile(0.50) << '\n';
          os << at << ',' << name << ".p99," << v.hist.percentile(0.99) << '\n';
          break;
      }
    }
  }
}

}  // namespace swish::telemetry
