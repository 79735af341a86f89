// Consistency-lag observatory: measures, in virtual time, how long committed
// writes take to reach every replica, per space and per consistency class.
//
// The observatory is protocol-identity based rather than trace based: each
// engine reports "commit at origin" with a monotone per-(space, key, origin)
// identity (chain write_id, EWO packed LWW version or CRDT own-slot value,
// OWN per-key version) and each replica reports "apply" with the identity it
// installed. Matching an apply to the newest commit with ident <= applied
// ident tolerates coalescing (a mirror flush or periodic sync that carries
// the *latest* value subsumes earlier unacked writes) and retries (the same
// identity applied twice counts once per replica). This makes the lag data
// exact even for unsampled traffic where no wire trace context exists.
//
// Exported metrics (all through the simulation's MetricsRegistry, so export
// stays byte-deterministic):
//   lag.<space>.propagation_ns       histo, commit → each replica apply
//   lag.<space>.full_propagation_ns  histo, commit → last expected replica
//   lag.<space>.stale_reads          counter, reads that saw pre-apply state
//   lag.<space>.superseded           counter, commits replaced before full apply
//   lag.<space>.expired              counter, in-flight records evicted at cap
//   lag.<space>.inflight             probe, live in-flight commit records
//   lag.<space>.divergence_window_ns probe, now − oldest in-flight commit
//   lag.class.<class>.propagation_ns histo, aggregate across spaces of a class
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"

namespace swish::telemetry {

/// One logged observatory call, for deferred cross-shard replay (see
/// ConsistencyObservatory::set_event_log). `origin` doubles as the reader for
/// kRead events; `name`/`cls_name` are only populated for kRegister.
struct ObsEvent {
  enum class Kind : std::uint8_t { kRegister, kCommit, kApply, kRead };
  Kind kind = Kind::kCommit;
  TimeNs time = 0;
  std::uint32_t space = 0;
  std::uint64_t key = 0;
  std::uint64_t ident = 0;
  NodeId origin = 0;
  NodeId replica = 0;
  std::uint32_t expected = 0;
  std::string name;
  std::string cls_name;
};

class ConsistencyObservatory {
 public:
  /// Max in-flight commit records across all spaces; beyond this the oldest
  /// record is evicted and counted as expired (bounds memory under loss).
  static constexpr std::size_t kMaxInflight = 8192;

  /// Declares a space before or after enable(); `cls_name` is the
  /// consistency-class label used for the per-class aggregate histogram.
  void register_space(std::uint32_t space, std::string name, std::string cls_name);

  /// Turns measurement on and binds the metric cells. Idempotent.
  void enable(MetricsRegistry& registry);
  [[nodiscard]] bool enabled() const noexcept {
    return registry_ != nullptr || log_ != nullptr;
  }

  /// Log mode, for sharded simulations: lag correlation is fabric-wide (a
  /// commit on one shard matches applies on others), so per-shard instances
  /// cannot measure locally. Instead every on_* / register_space call is
  /// appended to `log` with its virtual timestamp, and the ShardSet replays
  /// the merged logs — ordered by (time, shard, log index) — into a single
  /// master observatory at synchronization barriers. Pass nullptr to leave
  /// log mode. While a log is set, enabled() is true and no metric cells are
  /// touched locally.
  void set_event_log(std::vector<ObsEvent>* log) noexcept { log_ = log; }

  /// Master-side dispatch of one logged event. The caller owns the replay
  /// clock: point set_clock() at a time variable and store ev.time into it
  /// before each call, so lag math sees the event's original timestamp.
  void replay(const ObsEvent& ev);

  void set_clock(const TimeNs* now) noexcept { now_ = now; }

  /// A write committed at `origin`; `expected_applies` is how many distinct
  /// replicas are expected to apply it (0 = origin-only, nothing to track).
  void on_commit(std::uint32_t space, std::uint64_t key, std::uint64_t ident, NodeId origin,
                 std::uint32_t expected_applies);

  /// Replica `replica` installed state for (space, key) originated at
  /// `origin` carrying identity `ident`.
  void on_apply(std::uint32_t space, std::uint64_t key, NodeId origin, std::uint64_t ident,
                NodeId replica);

  /// A read of (space, key) served at `reader`; counted stale if any
  /// committed write to the key has not yet been applied there.
  void on_read(std::uint32_t space, std::uint64_t key, NodeId reader);

 private:
  struct SpaceMetrics {
    std::string name;
    std::string cls_name;
    bool bound = false;
    Histo propagation;
    Histo full_propagation;
    Counter stale_reads;
    Counter superseded;
    Counter expired;
    Histo class_propagation;  ///< shared per-class aggregate cell
  };

  struct InflightKey {
    std::uint32_t space = 0;
    std::uint64_t key = 0;
    NodeId origin = 0;
    friend auto operator<=>(const InflightKey&, const InflightKey&) = default;
  };

  struct Inflight {
    std::uint64_t ident = 0;
    TimeNs commit_time = 0;
    std::uint32_t expected = 0;
    std::vector<NodeId> applied;  ///< replicas counted so far (small, linear scan)
  };

  [[nodiscard]] TimeNs now() const noexcept { return now_ ? *now_ : 0; }
  SpaceMetrics* metrics_for(std::uint32_t space);
  void bind_metrics(std::uint32_t space, SpaceMetrics& m);
  void evict_oldest();

  MetricsRegistry* registry_ = nullptr;
  std::vector<ObsEvent>* log_ = nullptr;
  const TimeNs* now_ = nullptr;
  std::map<std::uint32_t, SpaceMetrics> spaces_;
  /// Deterministic ordered map: eviction and divergence scans walk it in
  /// key order, so identical runs expire identical records.
  std::map<InflightKey, Inflight> inflight_;
};

}  // namespace swish::telemetry
