#include "telemetry/collector.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace swish::telemetry {

const char* to_string(AnomalyFlag::Kind kind) noexcept {
  switch (kind) {
    case AnomalyFlag::Kind::kQueueGrowth: return "queue_growth";
    case AnomalyFlag::Kind::kAsymLink: return "asym_link";
    case AnomalyFlag::Kind::kDropSpike: return "drop_spike";
  }
  return "?";
}

double slo_burn_fraction(const Histogram& hist, std::uint64_t target) noexcept {
  if (hist.count() == 0) return 0.0;
  if (hist.max() <= target) return 0.0;
  if (hist.min() > target) return 1.0;
  // Bisect q with the invariant percentile(lo) <= target < percentile(hi);
  // 48 halvings put the interval far below one sample's quantile weight.
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 48; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (hist.percentile(mid) <= target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 1.0 - 0.5 * (lo + hi);
}

HealthCollector::HealthCollector(CollectorConfig config) : config_(config) {
  // Default propagation SLO targets per consistency class: single-writer and
  // quorum classes are expected to land within a round trip or two; the
  // eventual classes get budgets matching their periodic-sync cadence.
  slo_["SRO"] = 1 * kMs;
  slo_["ERO"] = 5 * kMs;
  slo_["EWO"] = 10 * kMs;
  slo_["OWN"] = 1 * kMs;
  slo_["CON"] = 5 * kMs;
}

namespace {

void observe(TimeNs t, TimeNs& lo, TimeNs& hi, bool& any) {
  if (!any) {
    lo = hi = t;
    any = true;
    return;
  }
  lo = std::min(lo, t);
  hi = std::max(hi, t);
}

}  // namespace

void HealthCollector::ingest_reports(const std::vector<IntSinkReport>& reports) {
  for (const IntSinkReport& r : reports) {
    ++int_reports_;
    if (r.truncated) ++int_truncated_;
    int_hops_ += r.hops.size();
    observe(r.time, observed_min_, observed_max_, observed_any_);
    for (std::size_t i = 0; i + 1 < r.hops.size(); ++i) {
      const IntHop& a = r.hops[i];
      const IntHop& b = r.hops[i + 1];
      // Hop latency on the directed link a→b: wire time plus the receiver's
      // ingress wait. Both timestamps are virtual time, so a negative gap can
      // only mean a malformed stack — skip rather than pollute.
      if (b.ingress_ts < a.egress_ts) continue;
      link_ns_[{a.switch_id, b.switch_id}].add(static_cast<std::uint64_t>(b.ingress_ts - a.egress_ts));
    }
    for (const IntHop& h : r.hops) {
      queue_series_[h.switch_id].emplace_back(h.ingress_ts, h.queue_depth);
    }
  }
}

void HealthCollector::ingest_drops(const std::vector<DropRecord>& records,
                                   const std::map<NodeId, DropTally>& counts) {
  for (const DropRecord& rec : records) {
    drop_times_[rec.node].push_back(rec.time);
    observe(rec.time, observed_min_, observed_max_, observed_any_);
    // A dropped packet's partial INT stack still holds valid queue-depth
    // observations for the switches it did traverse.
    for (const IntHop& h : rec.hops) {
      queue_series_[h.switch_id].emplace_back(h.ingress_ts, h.queue_depth);
    }
  }
  for (const auto& [node, arr] : counts) {
    auto& dst = drop_counts_[node];
    for (std::size_t r = 0; r < kNumDropReasons; ++r) {
      dst[r] += arr[r];
      drops_total_ += arr[r];
    }
  }
}

void HealthCollector::ingest_lag(const MetricsSnapshot& snapshot) {
  constexpr std::string_view kPrefix = "lag.class.";
  constexpr std::string_view kSuffix = ".propagation_ns";
  for (const auto& [name, v] : snapshot.values) {
    if (v.kind != MetricKind::kHistogram) continue;
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) continue;
    const std::string cls =
        name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    lag_[cls].merge(v.hist);
  }
}

void HealthCollector::finalize() {
  if (finalized_) throw std::logic_error("HealthCollector::finalize called twice");
  finalized_ = true;

  for (auto& [node, series] : queue_series_) {
    std::stable_sort(series.begin(), series.end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });
  }

  links_.reserve(link_ns_.size());
  for (const auto& [key, hist] : link_ns_) {
    LinkHealth l;
    l.from = key.first;
    l.to = key.second;
    l.hop_ns = hist;
    links_.push_back(std::move(l));
  }

  std::map<NodeId, SwitchHealth> sw;
  for (const auto& [node, series] : queue_series_) {
    SwitchHealth& h = sw[node];
    h.node = node;
    for (const auto& [t, depth] : series) {
      (void)t;
      h.queue_depth.add(static_cast<double>(depth));
    }
  }
  for (const auto& [node, arr] : drop_counts_) {
    SwitchHealth& h = sw[node];
    h.node = node;
    for (const std::uint64_t c : arr) h.drops += c;
  }
  switches_.reserve(sw.size());
  for (auto& [node, h] : sw) switches_.push_back(std::move(h));

  for (const auto& [cls, hist] : lag_) {
    SloBurn b;
    b.cls = cls;
    const auto it = slo_.find(cls);
    b.target_ns = it == slo_.end() ? 1 * kMs : it->second;
    b.samples = hist.count();
    b.burn = slo_burn_fraction(hist, static_cast<std::uint64_t>(b.target_ns));
    b.p50_ns = static_cast<TimeNs>(hist.p50());
    b.p99_ns = static_cast<TimeNs>(hist.p99());
    burns_.push_back(std::move(b));
  }

  detect_queue_growth();
  detect_asym_links();
  detect_drop_spikes();
  std::sort(anomalies_.begin(), anomalies_.end(), [](const AnomalyFlag& x, const AnomalyFlag& y) {
    if (x.kind != y.kind) return x.kind < y.kind;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
}

void HealthCollector::detect_queue_growth() {
  for (const auto& [node, series] : queue_series_) {
    if (series.size() < config_.queue_growth_min_samples) continue;
    const TimeNs t0 = series.front().first;
    const TimeNs t1 = series.back().first;
    if (t1 <= t0) continue;
    const TimeNs mid = t0 + (t1 - t0) / 2;
    RunningStats early;
    RunningStats late;
    for (const auto& [t, depth] : series) {
      (t <= mid ? early : late).add(static_cast<double>(depth));
    }
    if (early.count() == 0 || late.count() == 0) continue;
    const double base = std::max(1.0, early.mean());
    if (late.mean() < config_.queue_growth_factor * base ||
        late.mean() < config_.queue_growth_min_depth) {
      continue;
    }
    AnomalyFlag f;
    f.kind = AnomalyFlag::Kind::kQueueGrowth;
    f.a = node;
    f.severity = late.mean() / base;
    f.detail = "queue depth mean " + format_double(early.mean(), 1) + " early -> " +
               format_double(late.mean(), 1) + " late";
    anomalies_.push_back(std::move(f));
  }
}

void HealthCollector::detect_asym_links() {
  for (const auto& [key, fwd] : link_ns_) {
    if (key.first >= key.second) continue;  // visit each unordered pair once
    const auto rit = link_ns_.find({key.second, key.first});
    if (rit == link_ns_.end()) continue;
    const Histogram& rev = rit->second;
    if (fwd.count() < config_.asym_min_samples || rev.count() < config_.asym_min_samples) {
      continue;
    }
    const double pf = static_cast<double>(std::max<std::uint64_t>(1, fwd.p50()));
    const double pr = static_cast<double>(std::max<std::uint64_t>(1, rev.p50()));
    const double ratio = std::max(pf, pr) / std::min(pf, pr);
    if (ratio < config_.asym_ratio) continue;
    AnomalyFlag f;
    f.kind = AnomalyFlag::Kind::kAsymLink;
    f.a = key.first;
    f.b = key.second;
    f.severity = ratio;
    f.detail = "hop p50 " + std::to_string(fwd.p50()) + " ns forward vs " +
               std::to_string(rev.p50()) + " ns reverse";
    anomalies_.push_back(std::move(f));
  }
}

void HealthCollector::detect_drop_spikes() {
  if (!observed_any_) return;
  const TimeNs w = std::max<TimeNs>(1, config_.window);
  // Rate baseline over the whole observed run, so a single burst still
  // stands out against the quiet remainder.
  const auto num_windows = static_cast<std::uint64_t>((observed_max_ - observed_min_) / w) + 1;
  for (const auto& [node, times] : drop_times_) {
    if (times.empty()) continue;
    std::map<std::uint64_t, std::uint64_t> buckets;
    for (const TimeNs t : times) ++buckets[static_cast<std::uint64_t>((t - observed_min_) / w)];
    std::uint64_t peak = 0;
    for (const auto& [idx, n] : buckets) peak = std::max(peak, n);
    const double mean = static_cast<double>(times.size()) / static_cast<double>(num_windows);
    if (peak < config_.drop_spike_min ||
        static_cast<double>(peak) < config_.drop_spike_factor * mean) {
      continue;
    }
    AnomalyFlag f;
    f.kind = AnomalyFlag::Kind::kDropSpike;
    f.a = node;
    f.severity = static_cast<double>(peak) / std::max(mean, 1e-9);
    f.detail = std::to_string(peak) + " drops in one " + std::to_string(w) +
               " ns window (mean " + format_double(mean, 1) + "/window)";
    anomalies_.push_back(std::move(f));
  }
}

void HealthCollector::publish(MetricsRegistry& reg) const {
  if (!finalized_) throw std::logic_error("HealthCollector::publish before finalize");
  reg.counter("health.int.reports") += int_reports_;
  reg.counter("health.int.truncated") += int_truncated_;
  reg.counter("health.int.hops") += int_hops_;
  reg.counter("health.drop.total") += drops_total_;
  reg.counter("health.drop.attributed") += drops_attributed();

  DropTally fleet{};
  for (const auto& [node, arr] : drop_counts_) {
    for (std::size_t r = 0; r < kNumDropReasons; ++r) fleet[r] += arr[r];
  }
  for (std::size_t r = 0; r < kNumDropReasons; ++r) {
    if (fleet[r] == 0) continue;  // keep the subtree sparse
    reg.counter(std::string("health.drop.reason.") + to_string(static_cast<DropReason>(r))) +=
        fleet[r];
  }

  for (const LinkHealth& l : links_) {
    reg.histogram("health.link." + std::to_string(l.from) + "_" + std::to_string(l.to) + ".hop_ns")
        .merge(l.hop_ns);
  }
  for (const SwitchHealth& s : switches_) {
    const std::string p = "health.switch." + std::to_string(s.node);
    reg.gauge(p + ".queue_depth_mean") = s.queue_depth.mean();
    reg.gauge(p + ".queue_depth_max") = s.queue_depth.max();
    reg.counter(p + ".drops") += s.drops;
  }
  for (const SloBurn& b : burns_) {
    const std::string p = "health.slo." + b.cls;
    reg.gauge(p + ".burn") = b.burn;
    reg.gauge(p + ".target_ns") = static_cast<double>(b.target_ns);
    reg.gauge(p + ".p99_ns") = static_cast<double>(b.p99_ns);
  }

  std::array<std::uint64_t, 3> per_kind{};
  for (const AnomalyFlag& f : anomalies_) ++per_kind[static_cast<std::size_t>(f.kind)];
  reg.counter("health.anomaly.total") += anomalies_.size();
  reg.counter("health.anomaly.queue_growth") += per_kind[0];
  reg.counter("health.anomaly.asym_link") += per_kind[1];
  reg.counter("health.anomaly.drop_spike") += per_kind[2];
}

std::string HealthCollector::to_json() const {
  if (!finalized_) throw std::logic_error("HealthCollector::to_json before finalize");
  std::ostringstream os;
  os << "{\"health_version\":1,\n";
  os << "\"totals\":{\"int_reports\":" << int_reports_ << ",\"int_truncated\":" << int_truncated_
     << ",\"int_hops\":" << int_hops_ << ",\"drops\":" << drops_total_
     << ",\"drops_attributed\":" << drops_attributed() << ",\"links\":" << links_.size()
     << ",\"switches\":" << switches_.size() << "},\n";

  bool first = true;
  const auto open = [&](const char* key) {
    os << "\"" << key << "\":[";
    first = true;
  };
  const auto sep = [&] {
    os << (first ? "\n" : ",\n");
    first = false;
  };
  const auto close = [&](bool last) { os << (first ? "]" : "\n]") << (last ? "}\n" : ",\n"); };

  open("links");
  for (const LinkHealth& l : links_) {
    sep();
    os << "{\"from\":" << l.from << ",\"to\":" << l.to << ",\"samples\":" << l.hop_ns.count()
       << ",\"p50_ns\":" << l.hop_ns.p50() << ",\"p99_ns\":" << l.hop_ns.p99()
       << ",\"max_ns\":" << l.hop_ns.max()
       << ",\"mean_ns\":" << format_metric_number(l.hop_ns.mean()) << "}";
  }
  close(false);

  open("switches");
  for (const SwitchHealth& s : switches_) {
    sep();
    os << "{\"node\":" << s.node << ",\"queue_samples\":" << s.queue_depth.count()
       << ",\"queue_mean\":" << format_metric_number(s.queue_depth.mean())
       << ",\"queue_max\":" << format_metric_number(s.queue_depth.max())
       << ",\"drops\":" << s.drops << "}";
  }
  close(false);

  open("drop_reasons");
  for (const auto& [node, arr] : drop_counts_) {
    for (std::size_t r = 0; r < kNumDropReasons; ++r) {
      if (arr[r] == 0) continue;
      sep();
      os << "{\"node\":" << node << ",\"reason\":\"" << to_string(static_cast<DropReason>(r))
         << "\",\"count\":" << arr[r] << "}";
    }
  }
  close(false);

  open("slo");
  for (const SloBurn& b : burns_) {
    sep();
    os << "{\"class\":\"" << b.cls << "\",\"target_ns\":" << b.target_ns
       << ",\"samples\":" << b.samples << ",\"burn\":" << format_metric_number(b.burn)
       << ",\"p50_ns\":" << b.p50_ns << ",\"p99_ns\":" << b.p99_ns << "}";
  }
  close(false);

  open("anomalies");
  for (const AnomalyFlag& f : anomalies_) {
    sep();
    os << "{\"kind\":\"" << to_string(f.kind) << "\",\"a\":" << f.a << ",\"b\":" << f.b
       << ",\"severity\":" << format_metric_number(f.severity) << ",\"detail\":\"" << f.detail
       << "\"}";
  }
  close(true);
  return os.str();
}

std::vector<CounterSample> HealthCollector::counter_samples() const {
  if (!finalized_) throw std::logic_error("HealthCollector::counter_samples before finalize");
  std::vector<CounterSample> out;
  for (const auto& [node, series] : queue_series_) {
    for (const auto& [t, depth] : series) {
      CounterSample c;
      c.time = t;
      c.node = node;
      c.track = "queue_depth";
      c.value = static_cast<double>(depth);
      out.push_back(std::move(c));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared scorecard rendering: print_report() feeds it from live state,
// print_health_report() from a re-parsed JSON document — one formatting path
// so the two views can never drift.

namespace {

struct HealthRows {
  std::uint64_t int_reports = 0;
  std::uint64_t int_truncated = 0;
  std::uint64_t int_hops = 0;
  std::uint64_t drops = 0;
  std::uint64_t drops_attributed = 0;

  struct Link {
    NodeId from = 0, to = 0;
    std::uint64_t samples = 0, p50 = 0, p99 = 0, max = 0;
    double mean = 0.0;
  };
  struct Switch {
    NodeId node = 0;
    std::uint64_t queue_samples = 0;
    double queue_mean = 0.0;
    double queue_max = 0.0;
    std::uint64_t drops = 0;
  };
  struct Reason {
    NodeId node = 0;
    std::string reason;
    std::uint64_t count = 0;
  };
  struct Slo {
    std::string cls;
    std::int64_t target = 0;
    std::uint64_t samples = 0;
    double burn = 0.0;
    std::uint64_t p50 = 0, p99 = 0;
  };
  struct Anom {
    std::string kind;
    NodeId a = 0, b = 0;
    double severity = 0.0;
    std::string detail;
  };

  std::vector<Link> links;
  std::vector<Switch> switches;
  std::vector<Reason> reasons;
  std::vector<Slo> slo;
  std::vector<Anom> anomalies;
};

void print_rows(std::ostream& os, HealthRows rows) {
  char buf[256];
  os << "== fleet health ==\n";
  std::snprintf(buf, sizeof buf,
                "INT: %" PRIu64 " sink reports (%" PRIu64 " truncated), %" PRIu64
                " hop records, %zu links observed\n",
                rows.int_reports, rows.int_truncated, rows.int_hops, rows.links.size());
  os << buf;
  const double pct = rows.drops == 0 ? 100.0
                                     : 100.0 * static_cast<double>(rows.drops_attributed) /
                                           static_cast<double>(rows.drops);
  std::snprintf(buf, sizeof buf, "Drops: %" PRIu64 " mirrored, %" PRIu64 " attributed (%s%%)\n",
                rows.drops, rows.drops_attributed, format_double(pct, 1).c_str());
  os << buf;

  std::sort(rows.links.begin(), rows.links.end(),
            [](const HealthRows::Link& x, const HealthRows::Link& y) {
              if (x.p99 != y.p99) return x.p99 > y.p99;
              if (x.from != y.from) return x.from < y.from;
              return x.to < y.to;
            });
  os << "\n-- per-link hop latency (top " << std::min<std::size_t>(rows.links.size(), 20)
     << " of " << rows.links.size() << " by p99) --\n";
  std::snprintf(buf, sizeof buf, "%6s %6s %9s %10s %10s %10s\n", "from", "to", "samples", "p50_ns",
                "p99_ns", "max_ns");
  os << buf;
  for (std::size_t i = 0; i < rows.links.size() && i < 20; ++i) {
    const HealthRows::Link& l = rows.links[i];
    std::snprintf(buf, sizeof buf,
                  "%6u %6u %9" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64 "\n", l.from, l.to,
                  l.samples, l.p50, l.p99, l.max);
    os << buf;
  }

  std::sort(rows.switches.begin(), rows.switches.end(),
            [](const HealthRows::Switch& x, const HealthRows::Switch& y) {
              if (x.queue_max != y.queue_max) return x.queue_max > y.queue_max;
              return x.node < y.node;
            });
  os << "\n-- per-switch queue depth (top " << std::min<std::size_t>(rows.switches.size(), 10)
     << " of " << rows.switches.size() << " by max) --\n";
  std::snprintf(buf, sizeof buf, "%6s %9s %10s %10s %8s\n", "node", "samples", "mean", "max",
                "drops");
  os << buf;
  for (std::size_t i = 0; i < rows.switches.size() && i < 10; ++i) {
    const HealthRows::Switch& s = rows.switches[i];
    std::snprintf(buf, sizeof buf, "%6u %9" PRIu64 " %10s %10s %8" PRIu64 "\n", s.node,
                  s.queue_samples, format_double(s.queue_mean, 1).c_str(),
                  format_double(s.queue_max, 0).c_str(), s.drops);
    os << buf;
  }

  std::map<std::string, std::uint64_t> by_reason;
  for (const HealthRows::Reason& r : rows.reasons) by_reason[r.reason] += r.count;
  os << "\n-- drops by reason (fleet) --\n";
  std::snprintf(buf, sizeof buf, "%-26s %10s\n", "reason", "count");
  os << buf;
  for (const auto& [reason, count] : by_reason) {
    std::snprintf(buf, sizeof buf, "%-26s %10" PRIu64 "\n", reason.c_str(), count);
    os << buf;
  }

  os << "\n-- consistency SLO burn --\n";
  std::snprintf(buf, sizeof buf, "%-6s %12s %9s %8s %10s %10s\n", "class", "target_ns", "samples",
                "burn", "p50_ns", "p99_ns");
  os << buf;
  for (const HealthRows::Slo& s : rows.slo) {
    std::snprintf(buf, sizeof buf,
                  "%-6s %12" PRId64 " %9" PRIu64 " %8s %10" PRIu64 " %10" PRIu64 "\n",
                  s.cls.c_str(), s.target, s.samples, format_double(s.burn, 4).c_str(), s.p50,
                  s.p99);
    os << buf;
  }

  os << "\n-- anomalies (" << rows.anomalies.size() << ") --\n";
  for (const HealthRows::Anom& a : rows.anomalies) {
    os << "  " << a.kind << " sw " << a.a;
    if (a.b != 0) os << " <-> " << a.b;
    os << ": severity " << format_double(a.severity, 1) << " -- " << a.detail << "\n";
  }
}

/// Health-document readers on top of raw_field (export.hpp).
double dbl_field(std::string_view line, std::string_view key) {
  const std::string_view raw = raw_field(line, key);
  if (raw.empty()) return 0.0;
  return std::strtod(std::string(raw).c_str(), nullptr);
}

std::string str_field(std::string_view line, std::string_view key) {
  return std::string(raw_field(line, key));
}

}  // namespace

void HealthCollector::print_report(std::ostream& os) const {
  if (!finalized_) throw std::logic_error("HealthCollector::print_report before finalize");
  HealthRows rows;
  rows.int_reports = int_reports_;
  rows.int_truncated = int_truncated_;
  rows.int_hops = int_hops_;
  rows.drops = drops_total_;
  rows.drops_attributed = drops_attributed();
  for (const LinkHealth& l : links_) {
    rows.links.push_back({l.from, l.to, l.hop_ns.count(), l.hop_ns.p50(), l.hop_ns.p99(),
                          l.hop_ns.max(), l.hop_ns.mean()});
  }
  for (const SwitchHealth& s : switches_) {
    rows.switches.push_back(
        {s.node, s.queue_depth.count(), s.queue_depth.mean(), s.queue_depth.max(), s.drops});
  }
  for (const auto& [node, arr] : drop_counts_) {
    for (std::size_t r = 0; r < kNumDropReasons; ++r) {
      if (arr[r] != 0) rows.reasons.push_back({node, to_string(static_cast<DropReason>(r)), arr[r]});
    }
  }
  for (const SloBurn& b : burns_) {
    rows.slo.push_back({b.cls, b.target_ns, b.samples, b.burn, static_cast<std::uint64_t>(b.p50_ns),
                        static_cast<std::uint64_t>(b.p99_ns)});
  }
  for (const AnomalyFlag& f : anomalies_) {
    rows.anomalies.push_back({to_string(f.kind), f.a, f.b, f.severity, f.detail});
  }
  print_rows(os, std::move(rows));
}

void print_health_report(std::ostream& os, std::istream& is) {
  HealthRows rows;
  std::string line;
  std::string section;
  bool saw_header = false;
  while (std::getline(is, line)) {
    if (line.find("\"health_version\"") != std::string::npos) saw_header = true;
    if (line.find("\"totals\":{") != std::string::npos) {
      rows.int_reports = u64_field(line, "int_reports");
      rows.int_truncated = u64_field(line, "int_truncated");
      rows.int_hops = u64_field(line, "int_hops");
      rows.drops = u64_field(line, "drops");
      rows.drops_attributed = u64_field(line, "drops_attributed");
      continue;
    }
    for (const char* key : {"links", "switches", "drop_reasons", "slo", "anomalies"}) {
      if (line.find("\"" + std::string(key) + "\":[") != std::string::npos) section = key;
    }
    if (line.empty() || line[0] != '{') continue;
    if (section == "links") {
      rows.links.push_back({static_cast<NodeId>(u64_field(line, "from")),
                            static_cast<NodeId>(u64_field(line, "to")), u64_field(line, "samples"),
                            u64_field(line, "p50_ns"), u64_field(line, "p99_ns"),
                            u64_field(line, "max_ns"), dbl_field(line, "mean_ns")});
    } else if (section == "switches") {
      rows.switches.push_back({static_cast<NodeId>(u64_field(line, "node")),
                               u64_field(line, "queue_samples"), dbl_field(line, "queue_mean"),
                               dbl_field(line, "queue_max"), u64_field(line, "drops")});
    } else if (section == "drop_reasons") {
      rows.reasons.push_back({static_cast<NodeId>(u64_field(line, "node")),
                              str_field(line, "reason"), u64_field(line, "count")});
    } else if (section == "slo") {
      rows.slo.push_back({str_field(line, "class"),
                          static_cast<std::int64_t>(u64_field(line, "target_ns")),
                          u64_field(line, "samples"), dbl_field(line, "burn"),
                          u64_field(line, "p50_ns"), u64_field(line, "p99_ns")});
    } else if (section == "anomalies") {
      rows.anomalies.push_back({str_field(line, "kind"), static_cast<NodeId>(u64_field(line, "a")),
                                static_cast<NodeId>(u64_field(line, "b")),
                                dbl_field(line, "severity"), str_field(line, "detail")});
    }
  }
  if (!saw_header) throw std::runtime_error("not a swish health report (no health_version)");
  print_rows(os, std::move(rows));
}

void write_drop_forensics(std::ostream& os, const std::vector<DropRecord>& records) {
  os << "{\"drop_forensics_version\":1,\n\"records\":[";
  bool first = true;
  for (const DropRecord& rec : records) {
    os << (first ? "\n" : ",\n") << "{\"time_ns\":" << rec.time << ",\"node\":" << rec.node
       << ",\"reason\":\"" << to_string(rec.reason) << "\",\"packet_bytes\":" << rec.packet_bytes
       << ",\"detail\":" << rec.detail << ",\"seq\":" << rec.seq << ",\"hops\":[";
    for (std::size_t i = 0; i < rec.hops.size(); ++i) {
      const IntHop& h = rec.hops[i];
      os << (i == 0 ? "" : ",") << "{\"switch\":" << h.switch_id << ",\"ingress_ns\":" << h.ingress_ts
         << ",\"egress_ns\":" << h.egress_ts << ",\"queue_depth\":" << h.queue_depth
         << ",\"rule_hit\":" << h.rule_hit << "}";
    }
    os << "]}";
    first = false;
  }
  os << "\n]}\n";
}

}  // namespace swish::telemetry
