// Central metrics registry: the one observability substrate every layer
// reports through (ISSUE 3). Components register hierarchically named
// (dot-separated) counters, gauges, and histograms once, keep the returned
// typed handle, and bump it on the hot path — an increment is a single
// pointer-indirect add, so registry-backed counters cost the same as the
// ad-hoc struct members they replaced. The registry owns the cells; the
// legacy per-layer Stats structs are thin views over these handles.
//
// Iteration, snapshot, JSON, and table export all walk the name-sorted map,
// so two identical simulation runs produce byte-identical output
// (regression-tested in test_telemetry.cpp and the swish_sim CLI test).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace swish::telemetry {

class MetricsRegistry;

/// Monotone event count. Copyable handle to a registry-owned cell; supports
/// the increment idioms of the legacy stats structs (++c, c += n) plus
/// implicit read conversion, so existing call sites compile unchanged.
class Counter {
 public:
  Counter() = default;

  Counter& operator++() noexcept {
    ++*cell_;
    return *this;
  }
  void operator++(int) noexcept { ++*cell_; }
  Counter& operator+=(std::uint64_t delta) noexcept {
    *cell_ += delta;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return cell_ ? *cell_ : 0; }
  operator std::uint64_t() const noexcept { return value(); }  // NOLINT(google-explicit-constructor)

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint64_t* cell) noexcept : cell_(cell) {}
  std::uint64_t* cell_ = nullptr;
};

std::ostream& operator<<(std::ostream& os, const Counter& c);

/// Point-in-time numeric value (possibly fractional, e.g. a rate or a
/// wall-clock duration in a bench report).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) noexcept { *cell_ = v; }
  Gauge& operator=(double v) noexcept {
    *cell_ = v;
    return *this;
  }
  [[nodiscard]] double value() const noexcept { return cell_ ? *cell_ : 0.0; }
  operator double() const noexcept { return value(); }  // NOLINT(google-explicit-constructor)

 private:
  friend class MetricsRegistry;
  explicit Gauge(double* cell) noexcept : cell_(cell) {}
  double* cell_ = nullptr;
};

/// Handle to a registry-owned Histogram (log-bucketed, percentile queries).
/// Forwards the swish::Histogram interface used by the protocol engines.
class Histo {
 public:
  Histo() = default;

  void add(std::uint64_t v) noexcept { hist_->add(v); }
  void merge(const Histogram& other) noexcept { hist_->merge(other); }
  [[nodiscard]] std::uint64_t count() const noexcept { return hist_ ? hist_->count() : 0; }
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept {
    return hist_ ? hist_->percentile(q) : 0;
  }
  [[nodiscard]] std::uint64_t p50() const noexcept { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return percentile(0.99); }
  [[nodiscard]] const Histogram& get() const noexcept { return *hist_; }
  operator const Histogram&() const noexcept { return *hist_; }  // NOLINT(google-explicit-constructor)

 private:
  friend class MetricsRegistry;
  explicit Histo(Histogram* hist) noexcept : hist_(hist) {}
  Histogram* hist_ = nullptr;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram, kProbe };

/// Plain-value copy of one metric at snapshot time.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  ///< counters and probes
  double number = 0.0;      ///< gauges
  Histogram hist;           ///< histograms (empty for other kinds)

  [[nodiscard]] bool is_integral() const noexcept {
    return kind == MetricKind::kCounter || kind == MetricKind::kProbe;
  }
};

/// Deterministic point-in-time copy of a registry (or a derived value set):
/// a name-sorted map of plain values supporting diff, merge, and export.
class MetricsSnapshot {
 public:
  std::map<std::string, MetricValue> values;

  /// after - before: counters/probes and gauges subtract (names missing from
  /// `before` count as zero); histograms keep `after`'s state (histograms
  /// accumulate and cannot be unmerged).
  [[nodiscard]] static MetricsSnapshot diff(const MetricsSnapshot& after,
                                            const MetricsSnapshot& before);

  /// Accumulates `other` into this snapshot: counters/probes and gauges add,
  /// histograms merge, unknown names are inserted.
  void merge(const MetricsSnapshot& other);

  /// Hierarchical JSON: dotted names become nested objects, keys sorted.
  /// Byte-deterministic for identical values.
  [[nodiscard]] std::string to_json() const;

  /// Two-column name/value table via TextTable.
  void print_table(std::ostream& os, const std::string& caption) const;
};

/// The registry. One instance per simulation (owned by sim::Simulator), so
/// concurrent experiments in one process never share counters. All handles
/// returned stay valid for the registry's lifetime (cells live in node-stable
/// maps). Registering the same name twice returns the same cell; registering
/// a name that is a dotted prefix or extension of an existing metric throws
/// (it would make the hierarchical JSON ambiguous).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histo histogram(std::string_view name);

  /// Registers a pull-style integer metric read at snapshot/export time —
  /// used to surface counters that live outside the registry (the global
  /// packet-layer parse-cache stats). Re-registering replaces the callback.
  void probe(std::string_view name, std::function<std::uint64_t()> fn);

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::string to_json() const { return snapshot().to_json(); }
  void print_table(std::ostream& os, const std::string& caption) const {
    snapshot().print_table(os, caption);
  }

 private:
  struct Cell {
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t count = 0;
    double number = 0.0;
    Histogram hist;  ///< used only by kHistogram; owns no buckets until sampled
    std::function<std::uint64_t()> probe_fn;
  };

  Cell& get_or_create(std::string_view name, MetricKind kind);
  void check_hierarchy(std::string_view name) const;

  /// Node-based map: Cell addresses are stable across inserts, and iteration
  /// order is the deterministic export order.
  std::map<std::string, Cell, std::less<>> cells_;
};

/// Formats a double for JSON/table output: integral values print without a
/// decimal point, others with up to 12 significant digits. Deterministic for
/// identical inputs.
std::string format_metric_number(double v);

}  // namespace swish::telemetry
