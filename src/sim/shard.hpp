// Sharded simulation core: conservative parallel discrete-event simulation.
//
// A ShardSet partitions the fabric's nodes into K logical processes, each
// backed by its own Simulator (event queue, virtual clock, and telemetry
// instances). Shards execute windows of virtual time in parallel and meet at
// barriers; synchronization is conservative (no rollback), with the lookahead
// supplied by the topology: no cross-shard interaction can take effect sooner
// than the minimum propagation delay over inter-shard links.
//
// Window rule (bounded-lag variant of classic null-message PDES): at each
// barrier the last arriver takes every shard's next event time n_k (pending
// handoffs included) and lets every shard run events with
//
//     t  <  horizon = min_k n_k + lookahead
//
// Safety: every event executed this window has time >= min_k n_k, so a
// cross-shard event it produces carries a timestamp >= min_k n_k + lookahead
// = horizon — at or past every shard's clock at the window's end. It can
// therefore never land in a receiver's past, even transitively: an echo of
// an echo only moves further forward. (A per-shard horizon of
// min_{j != i} n_j + lookahead — letting the earliest shard run further —
// is NOT safe: the front-runner's own sends can drag a quiet shard's clock
// back below the front-runner's, and the reply then lands in its past.)
// Handoffs buffer in per-(dst, src) inbox lanes and are drained only between
// windows. The global minimum advances by at least the lookahead per window,
// so progress is guaranteed.
//
// Determinism: execution order within a shard is the Simulator's total order
// (time, then sequence id). Inbound cross-shard events are merged after each
// barrier in (timestamp, source shard, per-lane sequence) order, after all
// events the destination already queued: they are posted lane by lane in
// source order, so equal-time events adopt destination sequence ids in
// (source, lane) order and the queue's time order does the rest — no sort
// is needed. Same seed + same shard count
// reproduces byte-identical results; window boundaries only batch execution
// and never reorder it. A one-shard set bypasses windowing entirely and is
// byte-identical to the legacy single-threaded Simulator run.
//
// Execution model: owned shards, one barrier per window. P = min(shards,
// hardware threads) participants — the calling thread (participant 0) plus
// P - 1 workers — and participant p owns shards {p, p + P, ...} for the
// set's whole life, so a shard's event queue and switch state never move
// between cores. Each window, every owner:
//   1. drains its shards' inbound lanes (filled by the window that just
//      closed) into their queues;
//   2. runs its shards up to the horizon;
//   3. publishes, in its own cache-line slot, the earliest of its shards'
//      next events and of the cross-shard events it posted this window (the
//      latter sit undrained in lanes, so they count toward min_k n_k);
//   4. meets the others at the barrier, whose last arriver takes the minimum
//      of the slots, fixes the next horizon (or ends the run), and flushes the
//      observatory logs.
// On a single-core host P = 1: no workers, and the window loop is a serial
// sweep. SWISH_SHARD_FORCE_THREADS=1 forces one participant per shard
// regardless of core count (the TSan suite does, so the barrier and lane
// protocol are exercised under contention even on a one-core CI box).
//
// Memory model of the handoff queues: lanes come in two sets, used by
// alternating windows. During window w, lane (dst, src) of set w % 2 has
// exactly one writer — src's owner — and no reader; after the barrier that
// closes window w it has exactly one reader — dst's owner, which drains it
// while the next window's posts go to the other set. The barrier (an
// acq_rel arrival count, then a release bump of a generation the others
// acquire) orders every post before its drain, so lanes are plain vectors.
// Barrier atomics, lanes and per-shard state each sit on their own cache
// line: no two cores write one line except through the barrier itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace swish::sim {

class ShardSet {
 public:
  /// Creates `shards` simulators. Shard k's SpanRecorder allocates trace/span
  /// ids above k << 48 so ids stay globally unique without coordination
  /// (shard 0 keeps base 0: a one-shard set allocates the legacy ids).
  explicit ShardSet(std::size_t shards);
  ~ShardSet();
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  [[nodiscard]] std::size_t count() const noexcept { return sims_.size(); }
  [[nodiscard]] Simulator& sim(std::size_t shard) noexcept { return *sims_[shard]; }
  [[nodiscard]] const Simulator& sim(std::size_t shard) const noexcept { return *sims_[shard]; }

  /// Pins node `id` to `shard`. Call while building the topology, before any
  /// run; unassigned nodes live on shard 0. The table is indexed by id, so
  /// it grows to the largest id assigned (a Fabric numbers switches from 1,
  /// the controller 1000 and spines from 2000).
  void assign(NodeId id, std::size_t shard);
  /// A flat per-node table lookup: Network::send asks on every packet.
  [[nodiscard]] std::size_t shard_of(NodeId id) const noexcept {
    return id < shard_of_.size() ? shard_of_[id] : 0;
  }
  [[nodiscard]] Simulator& sim_for(NodeId id) noexcept { return sim(shard_of(id)); }

  /// Registers a cross-shard link's propagation delay; the minimum over all
  /// registered links is the conservative lookahead. Zero (or negative) delay
  /// would collapse the window to nothing, so it is rejected.
  void note_cross_link(TimeNs propagation_delay);
  [[nodiscard]] TimeNs lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] bool has_cross_links() const noexcept { return lookahead_ != kNoLookahead; }

  /// Posts `fn` at absolute virtual time `t` onto the shard owning `dst`.
  /// Outside a run this posts directly (setup path). During a run, same-shard
  /// posts go straight into the executing shard's queue; cross-shard posts
  /// enter the (dst, src) inbox lane and are merged at the next barrier.
  /// Cross-shard timestamps must respect the lookahead (t >= caller's now +
  /// lookahead) — violations throw, because they would break conservatism.
  void post_at_node(NodeId dst, TimeNs t, EventFn fn);
  void post_at_shard(std::size_t dst, TimeNs t, EventFn fn);

  /// Posts `fn` onto `dst`'s shard `delay` ns after the calling shard's
  /// clock, widening the delay to the lookahead when the post crosses shards
  /// — the sharded analogue of Simulator::post_after for management-plane
  /// actions whose latency (e.g. Controller mgmt_latency) already dominates
  /// the lookahead.
  void post_after_node(NodeId dst, TimeNs delay, EventFn fn);

  /// Reference clock: shard 0's virtual time. Between runs all shards agree
  /// (run_until settles every clock on the deadline).
  [[nodiscard]] TimeNs now() const noexcept { return sims_[0]->now(); }

  /// Runs every shard to `deadline`. With one shard this delegates to
  /// Simulator::run_until (no threads, no windowing — the legacy path);
  /// otherwise it executes conservative windows, each shard on its owning
  /// participant (see the execution-model note at the top of this header).
  /// An exception thrown by any shard's events is rethrown here, on the
  /// calling thread.
  void run_until(TimeNs deadline);

  // -- Synchronization statistics -----------------------------------------------

  /// Conservative windows executed (multi-shard runs only).
  [[nodiscard]] std::uint64_t windows() const noexcept { return decision_.windows; }
  /// Events that crossed a shard boundary via the inbox lanes.
  [[nodiscard]] std::uint64_t cross_events() const noexcept;
  /// Total events executed across all shards.
  [[nodiscard]] std::uint64_t executed_events() const noexcept;

  // -- Merged telemetry ---------------------------------------------------------

  /// Deterministic fabric-wide metrics view: shard 0's snapshot merged with
  /// every other shard's (counters add, histograms merge; names are disjoint
  /// or mergeable by construction). With one shard this is exactly the legacy
  /// snapshot.
  [[nodiscard]] telemetry::MetricsSnapshot merged_metrics_snapshot() const;

  /// All recorded spans, concatenated in shard order (deterministic).
  [[nodiscard]] std::vector<telemetry::Span> all_spans() const;

  /// Enables consistency-lag measurement. One shard: enables the simulator's
  /// own observatory (legacy path). Multi-shard: lag correlation is
  /// fabric-wide, so per-shard observatories switch to log mode and a single
  /// master observatory — bound to shard 0's registry — replays the merged
  /// logs at every barrier in (time, shard, log index) order.
  void enable_observatory();

  /// The observatory that accumulates lag measurements (master when
  /// multi-shard, shard 0's otherwise).
  [[nodiscard]] telemetry::ConsistencyObservatory& observatory() noexcept {
    return obs_master_enabled_ ? master_obs_ : sims_[0]->observatory();
  }

 private:
  static constexpr TimeNs kNoLookahead = std::numeric_limits<TimeNs>::max();
  static constexpr std::size_t kCacheLine = 64;

  /// A value alone on its cache line(s).
  template <typename T>
  struct alignas(kCacheLine) Padded {
    T value{};
  };

  struct Inbound {
    TimeNs time;
    EventFn fn;  ///< lane position is the per-lane sequence number
  };
  /// One handoff lane (dst, src) of one lane set: src's owner appends during
  /// that set's windows, dst's owner drains it after the closing barrier.
  struct alignas(kCacheLine) Lane {
    std::vector<Inbound> entries;
  };
  /// What only a shard's owner touches during a run.
  struct alignas(kCacheLine) ShardState {
    std::size_t lane_set = 0;               ///< where this window's cross-shard posts go
    TimeNs sent_min = Simulator::kNoEvent;  ///< earliest cross-shard post this window
    std::uint64_t cross_events = 0;         ///< inbound events merged, all runs
  };
  /// Written by the barrier's last arriver before it bumps `generation`;
  /// read by every participant after acquiring the bump.
  struct alignas(kCacheLine) Decision {
    std::atomic<std::uint64_t> generation{0};
    TimeNs horizon = 0;
    bool stop = false;
    std::uint64_t windows = 0;  ///< conservative windows issued, all runs
  };

  [[nodiscard]] Lane& lane(std::size_t set, std::size_t dst, std::size_t src) noexcept {
    return lanes_[(set * sims_.size() + dst) * sims_.size() + src];
  }
  void post_impl(std::size_t dst, TimeNs t, EventFn fn);
  void ensure_workers();
  void shutdown_workers();
  void worker_main(std::size_t participant);
  void participate(std::size_t participant);
  void barrier(std::uint64_t& generation, bool decide);
  void decide_window();
  void drain(std::size_t dst, std::size_t set);
  void flush_observatory_logs();

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::uint32_t> shard_of_;  ///< indexed by NodeId; absent ids are shard 0
  TimeNs lookahead_ = kNoLookahead;

  std::vector<Lane> lanes_;              ///< 2 sets x dst x src; only dst != src is used
  std::vector<ShardState> state_;        ///< per shard
  std::vector<Padded<TimeNs>> slots_;    ///< per participant: its published window floor
  std::size_t participants_ = 1;
  TimeNs deadline_ = 0;                  ///< of the current run

  Padded<std::atomic<bool>> running_;    ///< read on every post
  Padded<std::atomic<std::size_t>> arrived_;
  Decision decision_;

  // Between runs workers block here; run_until bumps run_gen_ to start one.
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  std::uint64_t run_gen_ = 0;
  bool quit_ = false;

  // First exception thrown by any shard's events, rethrown from run_until on
  // the calling thread once every participant has left the run (an
  // exception must never escape a worker — that would terminate the process).
  std::mutex err_mu_;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};

  // Sharded observatory (multi-shard only; see enable_observatory()).
  bool obs_master_enabled_ = false;
  telemetry::ConsistencyObservatory master_obs_;
  TimeNs master_now_ = 0;
  std::vector<std::vector<telemetry::ObsEvent>> obs_logs_;

  std::vector<std::thread> workers_;  ///< last: they use every member above
};

}  // namespace swish::sim
