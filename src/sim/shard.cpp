#include "sim/shard.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace swish::sim {
namespace {

// Identifies the shard the current thread is executing a window for, so
// post_at_node can tell same-shard posts (direct) from cross-shard handoffs
// (inbox lane) without a lookup the caller would have to thread through.
thread_local const ShardSet* tls_owner = nullptr;
thread_local std::size_t tls_shard = 0;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

inline TimeNs sat_add(TimeNs a, TimeNs b) noexcept {
  return a > std::numeric_limits<TimeNs>::max() - b ? std::numeric_limits<TimeNs>::max() : a + b;
}

}  // namespace

ShardSet::ShardSet(std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("ShardSet: shard count must be >= 1");
  sims_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    sims_.push_back(std::make_unique<Simulator>());
    sims_.back()->spans().set_id_base(static_cast<std::uint64_t>(k) << 48);
  }
  lanes_.resize(2 * shards * shards);
  state_.resize(shards);
}

ShardSet::~ShardSet() { shutdown_workers(); }

void ShardSet::assign(NodeId id, std::size_t shard) {
  if (shard >= sims_.size()) throw std::out_of_range("ShardSet::assign: no such shard");
  if (id >= shard_of_.size()) shard_of_.resize(static_cast<std::size_t>(id) + 1, 0);
  shard_of_[id] = static_cast<std::uint32_t>(shard);
}

void ShardSet::note_cross_link(TimeNs propagation_delay) {
  if (propagation_delay <= 0) {
    throw std::invalid_argument(
        "ShardSet: a cross-shard link needs positive propagation delay (the conservative "
        "lookahead is the minimum such delay; zero would stall the window engine)");
  }
  lookahead_ = std::min(lookahead_, propagation_delay);
}

void ShardSet::post_at_node(NodeId dst, TimeNs t, EventFn fn) {
  post_impl(shard_of(dst), t, std::move(fn));
}

void ShardSet::post_at_shard(std::size_t dst, TimeNs t, EventFn fn) {
  if (dst >= sims_.size()) throw std::out_of_range("ShardSet::post_at_shard: no such shard");
  post_impl(dst, t, std::move(fn));
}

void ShardSet::post_after_node(NodeId dst, TimeNs delay, EventFn fn) {
  const std::size_t dst_shard = shard_of(dst);
  const std::size_t src =
      running_.value.load(std::memory_order_relaxed) && tls_owner == this ? tls_shard : 0;
  TimeNs d = delay;
  if (dst_shard != src && sims_.size() > 1 && lookahead_ != kNoLookahead) {
    d = std::max(d, lookahead_);
  }
  post_impl(dst_shard, sat_add(sims_[src]->now(), d), std::move(fn));
}

void ShardSet::post_impl(std::size_t dst, TimeNs t, EventFn fn) {
  if (!running_.value.load(std::memory_order_relaxed)) {
    // Setup / between-runs path: single-threaded, post straight through.
    sims_[dst]->post_at(t, std::move(fn));
    return;
  }
  const std::size_t src = tls_owner == this ? tls_shard : 0;
  if (src == dst) {
    sims_[dst]->post_at(t, std::move(fn));
    return;
  }
  if (lookahead_ == kNoLookahead) {
    throw std::logic_error("ShardSet: cross-shard event but no cross-shard link registered");
  }
  if (t < sat_add(sims_[src]->now(), lookahead_)) {
    throw std::logic_error(
        "ShardSet: cross-shard event scheduled inside the lookahead window (conservative "
        "synchronization violated)");
  }
  ShardState& st = state_[src];
  st.sent_min = std::min(st.sent_min, t);
  lane(st.lane_set, dst, src).entries.push_back(Inbound{t, std::move(fn)});
}

std::uint64_t ShardSet::executed_events() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->executed_events();
  return total;
}

std::uint64_t ShardSet::cross_events() const noexcept {
  std::uint64_t total = 0;
  for (const ShardState& st : state_) total += st.cross_events;
  return total;
}

void ShardSet::run_until(TimeNs deadline) {
  if (sims_.size() == 1) {
    // Exactly the legacy single-threaded run: no windows, no barriers.
    sims_[0]->run_until(deadline);
    return;
  }
  ensure_workers();
  deadline_ = deadline;
  running_.value.store(true, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(run_mu_);
    ++run_gen_;
  }
  run_cv_.notify_all();
  participate(0);
  running_.value.store(false, std::memory_order_relaxed);
  if (failed_.load(std::memory_order_relaxed)) {
    // The run is unrecoverable (the failed shard stopped mid-window).
    failed_.store(false, std::memory_order_relaxed);
    std::exception_ptr e;
    {
      const std::lock_guard<std::mutex> lock(err_mu_);
      std::swap(e, error_);
    }
    std::rethrow_exception(e);
  }
  for (auto& s : sims_) s->advance_to(deadline);
  if (obs_master_enabled_) master_now_ = deadline;
}

void ShardSet::participate(std::size_t p) {
  const std::size_t k = sims_.size();
  const std::size_t stride = participants_;
  std::uint64_t generation = decision_.generation.load(std::memory_order_acquire);
  // Records the first failure instead of letting it escape a worker.
  const auto guarded = [this](auto&& step) {
    try {
      step();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(err_mu_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  };
  tls_owner = this;
  std::size_t set = 0;  // lane set the next window posts into
  while (true) {
    // Publish this owner's floor: its shards' next events plus the earliest
    // post it left undrained in a lane during the window that just ran.
    TimeNs floor = Simulator::kNoEvent;
    for (std::size_t s = p; s < k; s += stride) {
      ShardState& st = state_[s];
      floor = std::min({floor, sims_[s]->next_event_time(), st.sent_min});
      st.sent_min = Simulator::kNoEvent;
    }
    slots_[p].value = floor;
    barrier(generation, /*decide=*/true);

    // Merge what the closed window posted to this owner's shards — also on
    // the last barrier, so a run never returns with events left in a lane.
    for (std::size_t s = p; s < k; s += stride) guarded([&] { drain(s, set ^ 1); });
    if (decision_.stop) break;
    const TimeNs horizon = decision_.horizon;
    for (std::size_t s = p; s < k; s += stride) {
      tls_shard = s;
      state_[s].lane_set = set;
      guarded([&] { sims_[s]->run_before(horizon); });
    }
    set ^= 1;
  }
  tls_owner = nullptr;
  // Leave together: the caller must not return while an owner still drains.
  barrier(generation, /*decide=*/false);
}

void ShardSet::barrier(std::uint64_t& generation, bool decide) {
  ++generation;
  // acq_rel: the last arriver acquires every participant's window (sim
  // state, lane posts, slot) through the chain of arrivals.
  if (arrived_.value.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    arrived_.value.store(0, std::memory_order_relaxed);
    if (decide) decide_window();
    decision_.generation.store(generation, std::memory_order_release);
    return;
  }
  std::uint32_t spins = 0;
  while (decision_.generation.load(std::memory_order_acquire) != generation) {
    if (++spins < 4096) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

void ShardSet::decide_window() {
  flush_observatory_logs();
  // Global minimum next-event time: the window floor.
  TimeNs floor = Simulator::kNoEvent;
  for (std::size_t p = 0; p < participants_; ++p) floor = std::min(floor, slots_[p].value);
  Decision& d = decision_;
  d.stop = floor > deadline_ || failed_.load(std::memory_order_relaxed);
  if (d.stop) return;
  // Bounded-lag window: every shard may run events strictly below the
  // GLOBAL min next + lookahead (see header for the safety argument — a
  // looser per-shard bound lets replies land in a front-runner's past).
  // The deadline cap is exclusive too, hence deadline + 1.
  const TimeNs cap = sat_add(deadline_, 1);
  d.horizon = lookahead_ == kNoLookahead ? cap : std::min(cap, sat_add(floor, lookahead_));
  ++d.windows;
}

void ShardSet::worker_main(std::size_t p) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(run_mu_);
      run_cv_.wait(lock, [&] { return quit_ || run_gen_ != seen; });
      if (quit_) return;
      seen = run_gen_;
    }
    participate(p);
  }
}

void ShardSet::ensure_workers() {
  if (!slots_.empty()) return;
  // One participant per shard, capped by the machine: a one-core host gets
  // zero workers and the window loop degenerates to a serial sweep. The env
  // override keeps the threaded path testable (TSan) on small machines.
  std::size_t target = std::thread::hardware_concurrency();
  if (target == 0) target = 1;
  if (std::getenv("SWISH_SHARD_FORCE_THREADS") != nullptr) target = sims_.size();
  participants_ = std::min(target, sims_.size());
  slots_.resize(participants_);
  workers_.reserve(participants_ - 1);
  for (std::size_t p = 1; p < participants_; ++p) {
    workers_.emplace_back([this, p] { worker_main(p); });
  }
}

void ShardSet::shutdown_workers() {
  if (workers_.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(run_mu_);
    quit_ = true;
  }
  run_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ShardSet::drain(std::size_t dst, std::size_t set) {
  // (time, src shard, lane seq) is the documented merge order. The queue
  // orders events by (time, post order), so posting lane after lane in source
  // order, each in lane order, yields exactly that order: a sort would only
  // rearrange events the queue's time order separates anyway.
  Simulator& sim = *sims_[dst];
  for (std::size_t src = 0; src < sims_.size(); ++src) {
    std::vector<Inbound>& entries = lane(set, dst, src).entries;
    for (Inbound& e : entries) sim.post_at(e.time, std::move(e.fn));
    state_[dst].cross_events += entries.size();
    entries.clear();
  }
}

void ShardSet::enable_observatory() {
  if (sims_.size() == 1) {
    sims_[0]->observatory().enable(sims_[0]->metrics());
    return;
  }
  if (obs_master_enabled_) return;
  obs_master_enabled_ = true;
  master_obs_.set_clock(&master_now_);
  master_obs_.enable(sims_[0]->metrics());  // lag.* cells live in shard 0's registry
  obs_logs_.resize(sims_.size());
  for (std::size_t s = 0; s < sims_.size(); ++s) {
    sims_[s]->observatory().set_event_log(&obs_logs_[s]);
  }
}

void ShardSet::flush_observatory_logs() {
  if (!obs_master_enabled_) return;
  struct Ref {
    TimeNs time;
    std::size_t shard;
    std::size_t idx;
  };
  std::vector<Ref> order;
  for (std::size_t s = 0; s < obs_logs_.size(); ++s) {
    for (std::size_t i = 0; i < obs_logs_[s].size(); ++i) {
      order.push_back(Ref{obs_logs_[s][i].time, s, i});
    }
  }
  if (order.empty()) return;
  // Per-shard logs are already time-ordered (virtual time is monotone within
  // a shard), so (time, shard, idx) is a total order consistent with each
  // shard's own event order.
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.idx < b.idx;
  });
  for (const Ref& r : order) {
    const telemetry::ObsEvent& ev = obs_logs_[r.shard][r.idx];
    master_now_ = ev.time;
    master_obs_.replay(ev);
  }
  for (auto& log : obs_logs_) log.clear();
}

telemetry::MetricsSnapshot ShardSet::merged_metrics_snapshot() const {
  telemetry::MetricsSnapshot snap = sims_[0]->metrics().snapshot();
  for (std::size_t s = 1; s < sims_.size(); ++s) {
    snap.merge(sims_[s]->metrics().snapshot());
  }
  return snap;
}

std::vector<telemetry::Span> ShardSet::all_spans() const {
  std::vector<telemetry::Span> out;
  std::size_t total = 0;
  for (const auto& s : sims_) total += s->spans().spans().size();
  out.reserve(total);
  for (const auto& s : sims_) {
    const auto& v = s->spans().spans();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

}  // namespace swish::sim
