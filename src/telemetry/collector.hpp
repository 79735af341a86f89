// Streaming fleet-health collector: turns the raw INT telemetry streams
// (INT sink reports and mirror-on-drop records from the record log,
// consistency-lag histograms from the observatory) into a health scorecard:
//
//  - per-directed-link hop latency distributions (p50/p99), derived from
//    consecutive hop-record pairs in each sink report;
//  - per-switch queue-depth series and summary stats;
//  - fleet-wide and per-switch drop tallies with 100% typed-reason
//    attribution;
//  - per-consistency-class SLO burn rates (fraction of propagation samples
//    past a class-specific latency target);
//  - anomaly flags: sustained queue growth, asymmetric link latency, and
//    drop-rate spikes.
//
// The collector is shard-merge-aware by construction: its inputs are the
// canonically sorted fabric-wide gathers (Fabric::all_records() and the
// merged metrics snapshot), which are identical at every shard count for
// shard-local traffic, and every derived computation iterates sorted
// containers — so publish(), to_json(), and the report are byte-deterministic
// and shard-count-invariant.
//
// Results publish into a `health.*` metrics subtree, export as line-
// structured JSON (`swish_sim --health-json`, re-readable by
// `swish_sim analyze --health`), and as Perfetto counter tracks
// (queue-depth per switch) that ride in the same trace file as spans.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/records.hpp"

namespace swish::telemetry {

/// Tuning for the anomaly detectors. Defaults are deliberately conservative:
/// a flag should mean "look at this switch/link", not "the p99 moved".
struct CollectorConfig {
  /// Bucket width for the drop-spike detector's event-rate windows.
  TimeNs window = 10 * kMs;

  /// Queue growth: flag a switch when the mean queue depth over the late
  /// half of the run exceeds `factor` x the early-half mean AND the late
  /// mean is at least `min_depth` packets (filters noise around zero).
  double queue_growth_factor = 4.0;
  double queue_growth_min_depth = 16.0;
  std::size_t queue_growth_min_samples = 8;

  /// Asymmetric link: flag a switch pair when both directions have at least
  /// `min_samples` hop-latency samples and the p50s differ by more than
  /// `ratio` x.
  double asym_ratio = 4.0;
  std::uint64_t asym_min_samples = 16;

  /// Drop spike: flag a switch when its busiest drop window holds more than
  /// `factor` x the mean per-window drop count AND at least `min` drops.
  double drop_spike_factor = 8.0;
  std::uint64_t drop_spike_min = 32;
};

/// Hop latency over one directed link, from consecutive INT hop records:
/// next.ingress_ts - prev.egress_ts (serialization + queueing + propagation).
struct LinkHealth {
  NodeId from = 0;
  NodeId to = 0;
  Histogram hop_ns;
};

/// Per-switch rollup: queue-depth stats over all INT hop observations at this
/// switch, plus its total mirrored drops.
struct SwitchHealth {
  NodeId node = 0;
  RunningStats queue_depth;
  std::uint64_t drops = 0;
};

/// Per-consistency-class SLO burn: what fraction of propagation-lag samples
/// exceeded the class target.
struct SloBurn {
  std::string cls;
  TimeNs target_ns = 0;
  std::uint64_t samples = 0;
  double burn = 0.0;  ///< fraction in [0, 1] past target
  TimeNs p50_ns = 0;
  TimeNs p99_ns = 0;
};

/// One raised anomaly. `a` is the primary switch; `b` is the peer for link
/// anomalies (0 otherwise). Severity is detector-specific but always "bigger
/// is worse" (a ratio against the detector's threshold baseline).
struct AnomalyFlag {
  enum class Kind : std::uint8_t { kQueueGrowth = 0, kAsymLink, kDropSpike };
  Kind kind = Kind::kQueueGrowth;
  NodeId a = 0;
  NodeId b = 0;
  double severity = 0.0;
  std::string detail;
};

const char* to_string(AnomalyFlag::Kind kind) noexcept;

/// Fraction of `hist`'s samples strictly above `target` (bisection on the
/// percentile query — the histogram exposes no bucket iteration). Exact up to
/// the histogram's own bucket resolution; 0 for an empty histogram.
[[nodiscard]] double slo_burn_fraction(const Histogram& hist, std::uint64_t target) noexcept;

/// The collector. Feed it the fabric-wide gathers (already canonically
/// sorted), then finalize() once; afterwards the accessors, publish(),
/// to_json(), counter_samples(), and print_report() are all valid and
/// deterministic.
class HealthCollector {
 public:
  explicit HealthCollector(CollectorConfig config = {});

  /// INT sink reports (canonical order). Builds link latency histograms and
  /// per-switch queue-depth series.
  void ingest_reports(const std::vector<IntSinkReport>& reports);

  /// Mirror-on-drop forensics: retained records (canonical order) for the
  /// spike detector, exact per-(node, reason) tallies for attribution.
  void ingest_drops(const std::vector<DropRecord>& records,
                    const std::map<NodeId, DropTally>& counts);

  /// Scans a merged metrics snapshot for `lag.class.<CLS>.propagation_ns`
  /// histograms (the consistency observatory's per-class aggregate) to feed
  /// the SLO burn computation.
  void ingest_lag(const MetricsSnapshot& snapshot);

  /// Runs the anomaly detectors and SLO burn computation. Call exactly once,
  /// after all ingestion.
  void finalize();

  // -- Results (valid after finalize()) -----------------------------------------

  [[nodiscard]] const std::vector<LinkHealth>& links() const noexcept { return links_; }
  [[nodiscard]] const std::vector<SwitchHealth>& switches() const noexcept { return switches_; }
  [[nodiscard]] const std::vector<SloBurn>& slo_burns() const noexcept { return burns_; }
  [[nodiscard]] const std::vector<AnomalyFlag>& anomalies() const noexcept { return anomalies_; }
  [[nodiscard]] const std::map<NodeId, DropTally>& drop_counts() const noexcept {
    return drop_counts_;
  }

  [[nodiscard]] std::uint64_t int_reports() const noexcept { return int_reports_; }
  [[nodiscard]] std::uint64_t int_truncated() const noexcept { return int_truncated_; }
  [[nodiscard]] std::uint64_t int_hops() const noexcept { return int_hops_; }
  [[nodiscard]] std::uint64_t drops_total() const noexcept { return drops_total_; }
  /// Drops whose record carries a typed reason — always == drops_total(): the
  /// DropReason enum is mandatory at every site. Exposed so the scorecard can
  /// state the attribution rate explicitly.
  [[nodiscard]] std::uint64_t drops_attributed() const noexcept { return drops_total_; }

  /// Publishes the scorecard into a `health.*` subtree of `reg` so it rides
  /// the standard snapshot/JSON/table exports.
  void publish(MetricsRegistry& reg) const;

  /// Line-structured JSON (one array element per line), byte-deterministic.
  /// Re-readable by print_health_report() / `swish_sim analyze --health`.
  [[nodiscard]] std::string to_json() const;

  /// Per-switch queue-depth counter tracks for write_perfetto (sorted by
  /// node, then time).
  [[nodiscard]] std::vector<CounterSample> counter_samples() const;

  /// Human-readable scorecard on `os`.
  void print_report(std::ostream& os) const;

 private:
  void detect_queue_growth();
  void detect_asym_links();
  void detect_drop_spikes();

  CollectorConfig config_;
  bool finalized_ = false;

  // Raw accumulation.
  std::map<std::pair<NodeId, NodeId>, Histogram> link_ns_;
  std::map<NodeId, std::vector<std::pair<TimeNs, std::uint32_t>>> queue_series_;
  std::map<NodeId, std::vector<TimeNs>> drop_times_;
  std::map<NodeId, DropTally> drop_counts_;
  std::map<std::string, Histogram> lag_;
  std::map<std::string, TimeNs> slo_;
  std::uint64_t int_reports_ = 0;
  std::uint64_t int_truncated_ = 0;
  std::uint64_t int_hops_ = 0;
  std::uint64_t drops_total_ = 0;
  /// Observation range over everything ingested — the drop-spike detector's
  /// rate baseline spans the whole run, not just the drop burst itself.
  TimeNs observed_min_ = 0;
  TimeNs observed_max_ = 0;
  bool observed_any_ = false;

  // Finalized results.
  std::vector<LinkHealth> links_;
  std::vector<SwitchHealth> switches_;
  std::vector<SloBurn> burns_;
  std::vector<AnomalyFlag> anomalies_;
};

/// Reads a health JSON document (as written by HealthCollector::to_json) from
/// `is` and prints the scorecard tables on `os`. Throws std::runtime_error on
/// input that is not a health report.
void print_health_report(std::ostream& os, std::istream& is);

/// Writes the retained mirror-on-drop records (canonical order) as
/// line-structured JSON — one record per line with its typed reason, drop
/// location, and the packet's INT hop stack at the drop point. This is the
/// drop-forensics artifact CI uploads next to the health report.
void write_drop_forensics(std::ostream& os, const std::vector<DropRecord>& records);

}  // namespace swish::telemetry
