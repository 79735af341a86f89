// One iteration of one benchmark workload, driven through the public
// shm::Fabric API. Prints a single JSON line: the output checks, the
// wall-clock and virtual-time measurements, the per-layer counters read from
// Fabric::metrics_snapshot() and the ShardSet, and (with --trace) spans this
// file records around its own calls into the NF, the injector and the sink.
//
//   swishbench --workload ewo_flood|nat_churn|lb_txn_sharded --seed N
//              [--trace] [--shards N]
//
// run.py calls this repeatedly and reports medians; README.md in this
// directory says what each workload stresses and why.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "metric_math.hpp"
#include "nf/heavyhitter.hpp"
#include "nf/lb.hpp"
#include "nf/nat.hpp"
#include "packet/packet.hpp"
#include "swishmem/fabric.hpp"
#include "workload/traffic.hpp"

using namespace swish;
using perfbench::Ratio;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// Virtual time between probe reads of the replicated state.
constexpr TimeNs kProbePeriod = 100 * kUs;

struct Workload {
  std::string name;
  std::size_t leaves = 4;
  std::size_t spines = 2;
  std::size_t shards = 1;
  TimeNs traffic = 0;  ///< virtual time during which inputs arrive
  TimeNs drain = 0;    ///< virtual time after that for in-flight work
};

const std::vector<Workload> kWorkloads{
    {"ewo_flood", 4, 2, 1, 100 * kMs, 2 * kMs},
    {"nat_churn", 16, 4, 1, 200 * kMs, 50 * kMs},
    {"lb_txn_sharded", 16, 4, 4, 200 * kMs, 50 * kMs},
};

/// Measurement state of one switch. Only events on that switch's shard
/// write it, so sharded runs need no synchronization; cells are merged after
/// the run.
struct Cell {
  std::uint64_t delivered = 0;
  std::vector<std::uint32_t> latency_ns;    ///< every delivered edge packet
  std::vector<std::uint32_t> first_pkt_ns;  ///< each flow's first packet
  std::vector<std::pair<std::uint64_t, std::uint32_t>> flow_tags;  ///< (flow, port or DIP)
  std::vector<std::uint32_t> pool_seen;     ///< ewo_flood: deliveries per pool entry
  std::vector<std::uint64_t> probe;         ///< [tick][key] replica readings
  // Spans (traced runs only), wall ns. The pump's injections run the NF
  // synchronously, so NF time inside an injection is kept apart to make the
  // inject span exclusive.
  std::uint64_t nf_ns = 0;
  std::uint64_t sink_ns = 0;
  std::uint64_t inject_ns = 0;
  std::uint64_t nf_in_inject_ns = 0;
  bool injecting = false;
};

/// Benchmark-owned NF wrapper: times each call into the real NF.
class TimedNf final : public shm::NfApp {
 public:
  TimedNf(std::unique_ptr<shm::NfApp> inner, Cell& cell) : inner_(std::move(inner)), cell_(cell) {}
  void setup(pisa::Switch& sw, shm::ShmRuntime& rt) override { inner_->setup(sw, rt); }
  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override {
    const auto t0 = Clock::now();
    inner_->process(ctx, rt);
    const std::uint64_t ns = ns_since(t0);
    cell_.nf_ns += ns;
    if (cell_.injecting) cell_.nf_in_inject_ns += ns;
  }

 private:
  std::unique_ptr<shm::NfApp> inner_;
  Cell& cell_;
};

/// ewo_flood injector: one per leaf, injecting `batch` packets copied from
/// the leaf's pool once per `gap` (bench_throughput's pump). Firing k is due
/// at start + k * gap plus a seeded jitter in [0, gap), kept so the schedule
/// can be replayed after the run.
class InjectionPump {
 public:
  InjectionPump(shm::Fabric& fabric, std::size_t leaf, std::vector<pkt::Packet> pool,
                TimeNs gap, std::size_t batch, std::uint64_t seed, Cell& cell, bool traced)
      : fabric_(fabric), sim_(fabric.simulator_for(leaf)), leaf_(leaf), pool_(std::move(pool)),
        gap_(gap), batch_(batch), rng_(seed), cell_(cell), traced_(traced) {}

  void start(TimeNs deadline) {
    start_ = sim_.now();
    jitter_.reserve(static_cast<std::size_t>((deadline - start_) / gap_));
    arm(deadline);
  }
  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }
  /// Virtual time of this pump's n-th injection (n = 0, 1, ...).
  [[nodiscard]] TimeNs send_time(std::uint64_t n) const {
    const std::uint64_t firing = n / batch_;
    return start_ + static_cast<TimeNs>(firing + 1) * gap_ + jitter_[firing];
  }

 private:
  void arm(TimeNs deadline) {
    const auto k = static_cast<TimeNs>(jitter_.size() + 1);
    const auto jitter = static_cast<TimeNs>(rng_.next_below(static_cast<std::uint64_t>(gap_)));
    if (start_ + k * gap_ + jitter >= deadline) return;
    jitter_.push_back(jitter);
    sim_.post_at(start_ + k * gap_ + jitter, [this, deadline]() {
      const auto t0 = traced_ ? Clock::now() : Clock::time_point{};
      cell_.injecting = traced_;
      for (std::size_t i = 0; i < batch_; ++i) {
        fabric_.sw(leaf_).inject(pool_[cursor_]);
        cursor_ = (cursor_ + 1) % pool_.size();
      }
      injected_ += batch_;
      if (traced_) {
        cell_.inject_ns += ns_since(t0);
        cell_.injecting = false;
      }
      arm(deadline);
    });
  }

  shm::Fabric& fabric_;
  sim::Simulator& sim_;
  std::size_t leaf_;
  std::vector<pkt::Packet> pool_;
  TimeNs gap_;
  std::size_t batch_;
  Rng rng_;
  Cell& cell_;
  bool traced_;
  TimeNs start_ = 0;
  std::vector<TimeNs> jitter_;  ///< per firing
  std::size_t cursor_ = 0;
  std::uint64_t injected_ = 0;
};

/// Summary of one set of virtual-time samples (ns).
struct Latency {
  std::size_t n = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
  double tail_q = 0;  ///< highest percentile with >= 10 samples beyond it
  double tail = 0;

  static Latency of(std::vector<std::uint32_t> samples) {
    Latency l;
    l.n = samples.size();
    if (l.n == 0) return l;
    l.mean = std::accumulate(samples.begin(), samples.end(), 0.0) / static_cast<double>(l.n);
    l.p50 = perfbench::quantile(samples, 0.5);
    l.p99 = perfbench::quantile(samples, 0.99);
    l.tail_q = perfbench::tail_quantile(l.n);
    l.tail = perfbench::quantile(samples, l.tail_q);
    return l;
  }
};

/// Everything one iteration reports.
struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;  ///< edge packets injected
  std::uint64_t delivered = 0;
  // Wall clock.
  double setup_s = 0;
  double run_s = 0;
  double peak_rss_mb = 0;
  std::map<std::string, double> setup_spans_ms;
  // Virtual time.
  Latency pkt_latency;
  Latency conn_setup;
  Latency wait;  ///< what the user waits for: see README.md
  double divergence_mean = 0;
  std::uint64_t divergence_ticks = 0;
  Ratio proto_bytes_per_pkt;
  double lookahead_ns = 0;
  // Per layer.
  std::map<std::string, Ratio> layers;
  std::map<std::string, double> spans;

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
};

std::uint64_t sum_metric(const telemetry::MetricsSnapshot& snap, const std::string& prefix,
                         const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : snap.values) {
    if (name.size() >= prefix.size() + suffix.size() && name.rfind(prefix, 0) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value.count;
    }
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Per-switch probe: every kProbePeriod from `at` until `deadline`, reads
/// `keys` of `space` through the runtime into the switch's cell.
void arm_probe(shm::Fabric& fabric, std::size_t i, std::uint32_t space,
               const std::vector<std::uint64_t>& keys, TimeNs at, TimeNs deadline, Cell& cell) {
  if (at >= deadline) return;
  fabric.simulator_for(i).post_at(at, [&fabric, i, space, &keys, at, deadline, &cell]() {
    for (const std::uint64_t key : keys) {
      std::uint64_t value = 0;
      fabric.runtime(i).read(nullptr, space, key, value);
      cell.probe.push_back(value);
    }
    arm_probe(fabric, i, space, keys, at + kProbePeriod, deadline, cell);
  });
}

/// Σ over probed keys of (max − min) across replicas, averaged over ticks.
void divergence(const std::vector<Cell>& cells, std::size_t keys, Result& r) {
  std::size_t ticks = SIZE_MAX;
  for (const Cell& c : cells) ticks = std::min(ticks, c.probe.size() / keys);
  if (ticks == 0 || ticks == SIZE_MAX) return;
  double total = 0;
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t k = 0; k < keys; ++k) {
      std::uint64_t lo = UINT64_MAX;
      std::uint64_t hi = 0;
      for (const Cell& c : cells) {
        lo = std::min(lo, c.probe[t * keys + k]);
        hi = std::max(hi, c.probe[t * keys + k]);
      }
      total += static_cast<double>(hi - lo);
    }
  }
  r.divergence_mean = total / static_cast<double>(ticks);
  r.divergence_ticks = ticks;
}

struct Setup {
  std::unique_ptr<shm::Fabric> fabric;
  std::vector<Cell> cells;
};

/// Builds the fabric and installs the NF (wrapped in TimedNf when traced),
/// recording the setup spans. `factory` creates the real NF for switch i.
Setup build_fabric(const Workload& w, std::size_t shards,
                   const std::vector<shm::SpaceConfig>& spaces,
                   const std::function<std::unique_ptr<shm::NfApp>(std::size_t)>& factory,
                   bool traced, Result& r) {
  Setup s;
  shm::FabricConfig cfg;
  cfg.num_switches = w.leaves;
  cfg.topology = shm::FabricConfig::Topology::kLeafSpine;
  cfg.spine_count = w.spines;
  cfg.shards = shards;
  cfg.seed = 7;

  auto span = [&r](const char* name, Clock::time_point t0) {
    r.setup_spans_ms[name] = static_cast<double>(ns_since(t0)) / 1e6;
  };
  auto t0 = Clock::now();
  s.fabric = std::make_unique<shm::Fabric>(cfg);
  span("fabric", t0);
  s.cells.resize(w.leaves);

  t0 = Clock::now();
  for (const auto& space : spaces) s.fabric->add_space(space);
  span("spaces", t0);

  t0 = Clock::now();
  std::size_t next = 0;
  s.fabric->install([&]() -> std::unique_ptr<shm::NfApp> {
    const std::size_t i = next++;  // install() visits switches in index order
    auto nf = factory(i);
    if (!traced) return nf;
    return std::make_unique<TimedNf>(std::move(nf), s.cells[i]);
  });
  span("install", t0);

  t0 = Clock::now();
  s.fabric->start();
  span("start", t0);
  return s;
}

/// Runs the workload's traffic plus drain, timing run_for.
void run(shm::Fabric& fabric, const Workload& w, Result& r) {
  pkt::PacketStats::global().reset();
  const auto t0 = Clock::now();
  fabric.run_for(w.traffic + w.drain);
  r.run_s = static_cast<double>(ns_since(t0)) / 1e9;
}

/// Per-layer counters common to all workloads, read after the run.
void collect_layers(shm::Fabric& fabric, const Workload& w, const std::vector<Cell>& cells,
                    Result& r) {
  const telemetry::MetricsSnapshot snap = fabric.metrics_snapshot();
  const sim::ShardSet& shards = fabric.shard_set();
  auto& L = r.layers;
  const auto edge = static_cast<double>(r.attempted);
  const double virtual_ms = static_cast<double>(w.traffic + w.drain) / kMs;
  const auto c = [&](const std::string& prefix, const std::string& suffix) {
    return static_cast<double>(sum_metric(snap, prefix, suffix));
  };

  const auto events = static_cast<double>(shards.executed_events());
  L["sim.events_per_pkt"] = {events, edge};

  const auto windows = static_cast<double>(shards.windows());
  double max_events = 0;
  for (std::size_t k = 0; k < shards.count(); ++k) {
    max_events = std::max(max_events, static_cast<double>(shards.sim(k).executed_events()));
  }
  L["shard.events_per_window"] = {windows > 0 ? events : 0, windows};
  L["shard.windows_per_ms"] = {windows, virtual_ms};
  L["shard.cross_event_frac"] = {static_cast<double>(shards.cross_events()), events};
  L["shard.imbalance"] = {max_events * static_cast<double>(shards.count()), events};
  r.lookahead_ns = shards.has_cross_links() ? static_cast<double>(shards.lookahead()) : 0;

  const auto& ps = pkt::PacketStats::global();
  const double processed = c("pisa.sw", ".processed");
  const auto parses = static_cast<double>(ps.parse_executions);
  const auto hits = static_cast<double>(ps.parse_cache_hits);
  L["packet.parses_per_pass"] = {parses, processed};
  L["packet.parse_hit_rate"] = {hits, parses + hits};
  L["packet.copies_per_pkt"] = {static_cast<double>(ps.rewrite_copies), edge};
  L["packet.buffers_per_pkt"] = {static_cast<double>(ps.buffers_created), edge};

  const net::LinkStats links = fabric.network().total_stats();
  L["net.link_pkts_per_pkt"] = {static_cast<double>(links.packets_sent), edge};
  L["net.link_bytes_per_pkt"] = {static_cast<double>(links.bytes_sent), edge};
  L["net.drops"] = {static_cast<double>(links.packets_dropped_loss + links.packets_dropped_queue +
                                        links.packets_dropped_dead),
                    1};

  L["pisa.passes_per_pkt"] = {processed, edge};
  L["pisa.cp_execs_per_pkt"] = {c("pisa.sw", ".cp.executed"), edge};
  L["pisa.recirc_per_pkt"] = {c("pisa.sw", ".recirculated"), edge};
  L["pisa.drops"] = {c("pisa.sw", ".dropped_capacity") + c("pisa.sw", ".dropped_recirc") +
                         c("pisa.sw", ".dropped_noroute") + c("pisa.sw", ".cp.dropped"),
                     1};

  const double sro_commits = c("shm.sw", ".sro.writes_committed");
  const double sro_local = c("shm.sw", ".sro.reads_local");
  const double sro_redirected = c("shm.sw", ".sro.reads_redirected");
  L["sro.hops_per_commit"] = {c("shm.sw", ".sro.chain_requests_seen"), sro_commits};
  L["sro.retries_per_commit"] = {c("shm.sw", ".sro.write_retries"), sro_commits};
  L["sro.redirect_frac"] = {sro_redirected, sro_local + sro_redirected};
  L["sro.failed"] = {c("shm.sw", ".sro.writes_failed") + c("shm.sw", ".sro.writes_rejected"), 1};

  L["own.acq_per_alloc"] = {c("shm.sw", ".own.acquisitions_completed"),
                            c("shm.sw", ".own.local_writes")};
  L["own.acq_retries"] = {c("shm.sw", ".own.acquisition_retries"), 1};
  L["own.queue_rejected"] = {c("shm.sw", ".own.queue_rejected"), 1};

  const double ewo_writes = c("shm.sw", ".ewo.local_writes");
  L["ewo.updates_per_write"] = {c("shm.sw", ".ewo.updates_sent"), ewo_writes};
  L["ewo.merged_per_update"] = {c("shm.sw", ".ewo.entries_merged"),
                                c("shm.sw", ".ewo.updates_received")};
  L["ewo.bytes_per_write"] = {c("shm.sw", ".ewo.bytes"), ewo_writes};

  L["con.forward_frac"] = {c("shm.sw", ".con.forwards_sent"), c("shm.sw", ".con.writes_submitted")};
  L["con.retries"] = {c("shm.sw", ".con.forward_retries") + c("shm.sw", ".con.repair_resends"), 1};
  L["con.elections"] = {c("shm.sw", ".con.elections_completed"), 1};
  L["con.accepts_per_commit"] = {c("shm.sw", ".con.accepts_seen"),
                                 c("shm.sw", ".con.writes_committed")};

  L["membership.control_bytes_per_ms"] = {c("shm.sw", ".bytes_control"), virtual_ms};

  r.proto_bytes_per_pkt = {c("shm.sw", ".bytes_total"), edge};

  // Spans: per-packet wall cost of the benchmark's calls into each layer.
  // A multi-shard run_for spends wall time on several threads, so its
  // thread-time (barrier idle included) is wall time x participating threads.
  double nf = 0, sink = 0, inject = 0;
  for (const Cell& cell : cells) {
    nf += static_cast<double>(cell.nf_ns);
    sink += static_cast<double>(cell.sink_ns);
    inject += static_cast<double>(cell.inject_ns - cell.nf_in_inject_ns);
  }
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const double threads = static_cast<double>(std::min(shards.count(), hw));
  r.spans["nf"] = nf / edge;
  r.spans["inject"] = inject / edge;
  r.spans["sink"] = sink / edge;
  r.spans["self"] = (r.run_s * 1e9 * threads - nf - sink - inject) / edge;
}

// ---------------------------------------------------------------------------
// ewo_flood: HeavyHitterApp (EWO G-counter) on 4x2, 4 packets per leaf per
// microsecond from a 512-flow pool.

Result run_ewo_flood(const Workload& w, std::uint64_t seed, std::size_t shards, bool traced) {
  constexpr std::uint32_t kFlows = 512;
  constexpr std::size_t kBatch = 4;
  constexpr TimeNs kGap = 1 * kUs;
  constexpr std::size_t kProbedKeys = 16;

  Result r;
  const auto setup_start = Clock::now();
  nf::HeavyHitterApp::Config hh;
  hh.threshold = 1'000'000'000;  // keep the detector counting
  Setup s = build_fabric(
      w, shards, {nf::HeavyHitterApp::space(hh.key_slots)},
      [&](std::size_t) { return std::make_unique<nf::HeavyHitterApp>(hh); }, traced, r);
  shm::Fabric& fabric = *s.fabric;
  const std::size_t leaves = fabric.size();

  // Pool entry i: source 50.(i%64).(1+i/64), 64 distinct /24 counter keys
  // with 8 flows each. The seed gives every leaf its own order through the
  // pool and its own firing jitter, so replicas see different write streams.
  auto source_of = [](std::uint32_t i) { return (50u << 24) | ((i % 64) << 8) | (1 + i / 64); };
  std::vector<pkt::Packet> packets;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    pkt::PacketSpec spec;
    spec.eth_src = pkt::MacAddr::for_node(0xfeed);
    spec.ip_src = pkt::Ipv4Addr(source_of(i));
    spec.ip_dst = pkt::Ipv4Addr(10, 200, 0, 1);
    spec.protocol = pkt::kProtoUdp;
    spec.src_port = static_cast<std::uint16_t>(20000 + i);
    spec.dst_port = 80;
    spec.payload.assign(64, 0xAB);
    packets.push_back(pkt::build_packet(spec));
  }
  Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> position(leaves, std::vector<std::uint32_t>(kFlows));
  std::vector<std::vector<pkt::Packet>> pools(leaves);
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    std::vector<std::uint32_t> order(kFlows);
    std::iota(order.begin(), order.end(), 0u);
    for (std::uint32_t i = kFlows - 1; i > 0; --i) std::swap(order[i], order[rng.next_below(i + 1)]);
    for (std::uint32_t pos = 0; pos < kFlows; ++pos) {
      position[leaf][order[pos]] = pos;
      pools[leaf].push_back(packets[order[pos]]);
    }
  }
  auto slot_of = [&](std::uint32_t i) { return (source_of(i) & ~0xffu) % hh.key_slots; };

  const TimeNs start = fabric.simulator().now();
  const TimeNs deadline = start + w.traffic;
  std::vector<std::unique_ptr<InjectionPump>> pumps;
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    pumps.push_back(std::make_unique<InjectionPump>(fabric, leaf, std::move(pools[leaf]), kGap,
                                                    kBatch, rng.next(), s.cells[leaf], traced));
  }

  // A leaf's n-th injection (n = 0, 1, ...) is its pool position n mod pool
  // size, so the k-th delivery of a flow at that leaf was injection
  // k * pool + position.
  for (std::size_t i = 0; i < leaves; ++i) {
    Cell* cell = &s.cells[i];
    cell->pool_seen.assign(kFlows, 0);
    sim::Simulator* sim = &fabric.simulator_for(i);
    const InjectionPump* pump = pumps[i].get();
    fabric.sw(i).set_delivery_sink([cell, sim, pump, i, &position, traced](
                                       const pkt::Packet& p) {
      const auto t0 = traced ? Clock::now() : Clock::time_point{};
      ++cell->delivered;
      const pkt::ParsedPacket* parsed = p.parsed();
      if (parsed != nullptr && parsed->udp) {
        const std::uint32_t flow = parsed->udp->src_port - 20000u;
        if (flow < kFlows) {
          const std::uint64_t nth = cell->pool_seen[flow]++;
          const TimeNs sent = pump->send_time(nth * kFlows + position[i][flow]);
          cell->latency_ns.push_back(static_cast<std::uint32_t>(sim->now() - sent));
        }
      }
      if (traced) cell->sink_ns += ns_since(t0);
    });
  }

  std::vector<std::uint64_t> probed;
  for (std::uint32_t i = 0; i < kProbedKeys; ++i) probed.push_back(slot_of(i));
  for (std::size_t i = 0; i < leaves; ++i) {
    s.cells[i].probe.reserve(static_cast<std::size_t>(w.traffic / kProbePeriod + 1) * kProbedKeys);
    arm_probe(fabric, i, nf::kHeavyHitterSpace, probed, start + kProbePeriod / 2, deadline,
              s.cells[i]);
  }

  for (const auto& pump : pumps) pump->start(deadline);
  r.setup_s = static_cast<double>(ns_since(setup_start)) / 1e9;

  run(fabric, w, r);
  for (const auto& pump : pumps) r.attempted += pump->injected();
  std::vector<std::uint32_t> latency;
  for (const Cell& cell : s.cells) {
    r.delivered += cell.delivered;
    latency.insert(latency.end(), cell.latency_ns.begin(), cell.latency_ns.end());
  }
  r.pkt_latency = Latency::of(std::move(latency));
  collect_layers(fabric, w, s.cells, r);
  divergence(s.cells, kProbedKeys, r);

  // The wait an EWO user sees is remote: at each probe, how far a replica's
  // count of a hot key trails the true count, as the time since the true
  // count last equalled what the replica reads (0 when current). The true
  // count's history is replayed from the pump schedules.
  std::vector<std::vector<TimeNs>> writes(kProbedKeys);
  for (std::size_t k = 0; k < kProbedKeys; ++k) {
    for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
      const std::uint64_t injected = pumps[leaf]->injected();
      for (std::uint32_t i = 0; i < kFlows; ++i) {
        if (slot_of(i) != probed[k]) continue;
        for (std::uint64_t n = position[leaf][i]; n < injected; n += kFlows) {
          writes[k].push_back(pumps[leaf]->send_time(n));
        }
      }
    }
    std::sort(writes[k].begin(), writes[k].end());
  }
  std::vector<std::uint32_t> lag;
  for (const Cell& cell : s.cells) {
    for (std::size_t t = 0; t * kProbedKeys < cell.probe.size(); ++t) {
      const TimeNs at = start + kProbePeriod / 2 + static_cast<TimeNs>(t) * kProbePeriod;
      for (std::size_t k = 0; k < kProbedKeys; ++k) {
        const std::uint64_t seen = cell.probe[t * kProbedKeys + k];
        const auto& wk = writes[k];
        const auto truth = static_cast<std::uint64_t>(
            std::upper_bound(wk.begin(), wk.end(), at) - wk.begin());
        lag.push_back(seen >= truth ? 0 : static_cast<std::uint32_t>(at - wk[seen]));
      }
    }
  }
  r.wait = Latency::of(std::move(lag));

  // Output check: after the drain every replica holds identical counts, and
  // they sum to the packets injected.
  std::vector<std::uint64_t> reference(hh.key_slots);
  for (std::size_t i = 0; i < leaves; ++i) {
    std::uint64_t sum = 0;
    for (std::uint64_t slot = 0; slot < hh.key_slots; ++slot) {
      std::uint64_t v = 0;
      fabric.runtime(i).read(nullptr, nf::kHeavyHitterSpace, slot, v);
      if (i == 0) reference[slot] = v;
      if (v != reference[slot]) {
        r.fail("replica " + std::to_string(i) + " slot " + std::to_string(slot) + " reads " +
               std::to_string(v) + ", replica 0 reads " + std::to_string(reference[slot]));
      }
      sum += v;
    }
    if (sum != r.attempted) {
      r.fail("replica " + std::to_string(i) + " counts sum to " + std::to_string(sum) +
             ", injected " + std::to_string(r.attempted));
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// nat_churn and lb_txn_sharded: TrafficGenerator TCP flows whose data packets
// are held until the flow's SYN leaves the fabric.

struct FlowWorkload {
  std::vector<shm::SpaceConfig> spaces;
  std::function<std::unique_ptr<shm::NfApp>(std::size_t)> factory;
  double flows_per_sec = 0;
  /// Replicated counters probed for the divergence metric (none when empty).
  std::uint32_t probe_space = 0;
  std::vector<std::uint64_t> probe_keys;
  /// Tag recorded per delivered packet for the output check: every packet of
  /// a flow carries one tag, and with `unique_tags` no two flows share one.
  std::function<std::uint32_t(const pkt::ParsedPacket&)> tag;
  bool unique_tags = false;
  /// NF-specific output check, run while the fabric (and its NFs) is alive.
  std::function<void(Result&)> check_nf;
};

Result run_flows(const Workload& w, const FlowWorkload& fw, std::uint64_t seed, std::size_t shards,
                 bool traced) {
  Result r;
  const auto setup_start = Clock::now();
  Setup s = build_fabric(w, shards, fw.spaces, fw.factory, traced, r);
  shm::Fabric& fabric = *s.fabric;
  sim::ShardSet& shard_set = fabric.shard_set();

  workload::TrafficConfig traffic;
  traffic.flows_per_sec = fw.flows_per_sec;
  traffic.mean_packets_per_flow = 8;
  // One client: FlowKey::hash folds the source port's high byte onto the
  // client address's low byte, so flows from different clients collide and
  // the NAT hands two flows one mapping (the output check fails on every
  // seed with many clients). A single client keeps the flow keys distinct;
  // neither NF keeps per-client state.
  traffic.num_clients = 1;
  traffic.reroute_probability = 0.05;
  traffic.gate_data_on_syn = true;
  // Longer than any run: a retransmitted SYN would be a second connection
  // attempt, so none is ever sent.
  traffic.syn_retransmit_timeout = 10 * kSec;
  traffic.seed = seed;
  workload::TrafficGenerator gen(fabric, traffic);
  // The generator runs on shard 0 and must not read other shards' switches;
  // no switch fails in these workloads.
  if (shard_set.count() > 1) gen.set_liveness_oracle([](std::size_t) { return true; });

  for (std::size_t i = 0; i < fabric.size(); ++i) {
    const std::size_t sh = fabric.shard_of_switch(i);
    Cell* cell = &s.cells[i];
    sim::Simulator* sim = &fabric.simulator_for(i);
    fabric.sw(i).set_delivery_sink([cell, sh, sim, &shard_set, &gen, &fw, traced](
                                       const pkt::Packet& p) {
      const auto t0 = traced ? Clock::now() : Clock::time_point{};
      ++cell->delivered;
      const pkt::ParsedPacket* parsed = p.parsed();
      if (parsed != nullptr) {
        if (auto stamp = workload::Stamp::decode(p.l4_payload(*parsed))) {
          const auto lat = static_cast<std::uint32_t>(static_cast<std::uint64_t>(sim->now()) -
                                                      stamp->send_time);
          cell->latency_ns.push_back(lat);
          if (stamp->seq == 0) cell->first_pkt_ns.push_back(lat);
          cell->flow_tags.emplace_back(stamp->flow_id, fw.tag(*parsed));
          // The generator lives on shard 0: SYN-gate notifications from other
          // shards hop home through the inbox lanes.
          if (sh == 0) {
            gen.notify_delivered(*stamp);
          } else {
            shard_set.post_at_shard(0, sim->now() + shard_set.lookahead(),
                                    [&gen, st = *stamp]() { gen.notify_delivered(st); });
          }
        }
      }
      if (traced) cell->sink_ns += ns_since(t0);
    });
  }

  const TimeNs start = fabric.simulator().now();
  if (!fw.probe_keys.empty()) {
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      arm_probe(fabric, i, fw.probe_space, fw.probe_keys, start + kProbePeriod / 2,
                start + w.traffic, s.cells[i]);
    }
  }
  gen.start(w.traffic);
  r.setup_s = static_cast<double>(ns_since(setup_start)) / 1e9;

  run(fabric, w, r);
  r.attempted = gen.stats().packets_sent;
  std::vector<std::uint32_t> latency;
  std::vector<std::uint32_t> first;
  for (const Cell& cell : s.cells) {
    r.delivered += cell.delivered;
    latency.insert(latency.end(), cell.latency_ns.begin(), cell.latency_ns.end());
    first.insert(first.end(), cell.first_pkt_ns.begin(), cell.first_pkt_ns.end());
  }
  r.pkt_latency = Latency::of(std::move(latency));
  r.wait = r.pkt_latency;  // a flow's packets wait on its connection write
  r.conn_setup = Latency::of(std::move(first));
  collect_layers(fabric, w, s.cells, r);
  if (!fw.probe_keys.empty()) divergence(s.cells, fw.probe_keys.size(), r);

  const auto& gs = gen.stats();
  if (gs.flows_finished != gs.flows_started) {
    r.fail(std::to_string(gs.flows_started - gs.flows_finished) + " of " +
           std::to_string(gs.flows_started) + " flows unfinished after the drain");
  }
  if (r.conn_setup.n != gs.flows_started) {
    r.fail(std::to_string(r.conn_setup.n) + " first packets delivered for " +
           std::to_string(gs.flows_started) + " flows");
  }

  // Output check: one tag per flow and, for the NAT's public ports, no tag
  // shared by two flows.
  std::unordered_map<std::uint64_t, std::uint32_t> tag_of_flow;
  for (const Cell& cell : s.cells) {
    for (const auto& [flow, tag] : cell.flow_tags) {
      const auto [it, fresh] = tag_of_flow.emplace(flow, tag);
      if (!fresh && it->second != tag) {
        r.fail("flow " + std::to_string(flow) + " seen with " + std::to_string(it->second) +
               " and " + std::to_string(tag));
      }
    }
  }
  if (fw.unique_tags) {
    std::unordered_map<std::uint32_t, std::uint64_t> flow_of_tag;
    for (const auto& [flow, tag] : tag_of_flow) {
      const auto [it, fresh] = flow_of_tag.emplace(tag, flow);
      if (!fresh) {
        r.fail("flows " + std::to_string(it->second) + " and " + std::to_string(flow) +
               " share " + std::to_string(tag));
      }
    }
  }
  if (fw.check_nf) fw.check_nf(r);
  return r;
}

/// NatApp with the SRO table-backed translation table and per-switch port
/// ranges (the shared kOWN pool is left out; see README.md). The check tag is
/// each delivered packet's public (rewritten source) port.
Result run_nat_churn(const Workload& w, std::uint64_t seed, std::size_t shards, bool traced) {
  FlowWorkload fw;
  fw.spaces = {nf::NatApp::space()};
  fw.factory = [](std::size_t) { return std::make_unique<nf::NatApp>(nf::NatApp::Config{}); };
  fw.flows_per_sec = 40'000;
  fw.tag = [](const pkt::ParsedPacket& p) { return std::uint32_t{p.src_port()}; };
  fw.unique_tags = true;
  return run_flows(w, fw, seed, shards, traced);
}

/// LoadBalancerApp with both spaces on kCON, so each SYN install is one
/// write_txn consensus slot. The check tag is each packet's DIP.
Result run_lb_txn_sharded(const Workload& w, std::uint64_t seed, std::size_t shards,
                          bool traced) {
  constexpr std::uint8_t kBackends = 8;
  std::vector<nf::LoadBalancerApp*> apps(w.leaves, nullptr);
  FlowWorkload fw;
  shm::SpaceConfig conn = nf::LoadBalancerApp::space();
  shm::SpaceConfig refs = nf::LoadBalancerApp::refcount_space(kBackends);
  conn.cls = shm::ConsistencyClass::kCON;
  refs.cls = shm::ConsistencyClass::kCON;
  fw.spaces = {conn, refs};
  fw.factory = [&apps](std::size_t i) {
    nf::LoadBalancerApp::Config cfg;
    cfg.vip = pkt::Ipv4Addr(10, 200, 0, 1);
    for (std::uint8_t b = 1; b <= kBackends; ++b) cfg.backends.emplace_back(10, 1, 0, b);
    auto app = std::make_unique<nf::LoadBalancerApp>(cfg);
    apps[i] = app.get();
    return std::unique_ptr<shm::NfApp>(std::move(app));
  };
  fw.flows_per_sec = 50'000;
  fw.probe_space = nf::kLbRefcountSpace;
  for (std::uint64_t b = 0; b < kBackends; ++b) fw.probe_keys.push_back(b);
  fw.tag = [](const pkt::ParsedPacket& p) { return p.ipv4 ? p.ipv4->dst.value() : 0u; };
  fw.check_nf = [&apps](Result& r) {
    std::uint64_t violations = 0;
    std::uint64_t txn_installs = 0;
    for (const nf::LoadBalancerApp* app : apps) {
      violations += app->stats().pcc_violations;
      txn_installs += app->stats().txn_installs;
    }
    if (violations != 0) r.fail(std::to_string(violations) + " PCC violations");
    if (txn_installs == 0) r.fail("no SYN install ran as a write_txn");
  };
  return run_flows(w, fw, seed, shards, traced);
}

// ---------------------------------------------------------------------------
// Output: one JSON line.

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

void print_json(const Result& r, const std::string& workload, std::size_t shards, bool traced) {
  std::ostringstream os;
  os.precision(17);
  auto latency = [&os](const char* name, const Latency& l) {
    os << '"' << name << "\": {\"n\": " << l.n << ", \"mean\": " << l.mean
       << ", \"p50\": " << l.p50 << ", \"p99\": " << l.p99
       << ", \"p99_ok\": " << (perfbench::has_tail(l.n, 0.99) ? "true" : "false")
       << ", \"tail_q\": " << l.tail_q << ", \"tail\": " << l.tail << "}";
  };
  auto numbers = [&os](const char* name, const std::map<std::string, double>& m) {
    os << ", \"" << name << "\": {";
    const char* sep = "";
    for (const auto& [k, v] : m) {
      os << sep << '"' << k << "\": " << v;
      sep = ", ";
    }
    os << "}";
  };
  os << "{\"workload\": \"" << workload << "\", \"shards\": " << shards
     << ", \"traced\": " << (traced ? "true" : "false")
     << ", \"correct\": " << (r.correct ? "true" : "false") << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(r.errors[i]) << '"';
  }
  os << "], \"attempted\": " << r.attempted << ", \"delivered\": " << r.delivered
     << ", \"setup_s\": " << r.setup_s << ", \"run_s\": " << r.run_s
     << ", \"peak_rss_mb\": " << r.peak_rss_mb;
  numbers("setup_spans_ms", r.setup_spans_ms);
  os << ", ";
  latency("pkt_latency_ns", r.pkt_latency);
  os << ", ";
  latency("conn_setup_ns", r.conn_setup);
  os << ", ";
  latency("wait_ns", r.wait);
  os << ", \"divergence_mean\": " << r.divergence_mean
     << ", \"divergence_ticks\": " << r.divergence_ticks << ", \"proto_bytes\": ["
     << r.proto_bytes_per_pkt.num << ", " << r.proto_bytes_per_pkt.base
     << "], \"lookahead_ns\": " << r.lookahead_ns << ", \"layers\": {";
  const char* sep = "";
  for (const auto& [name, ratio] : r.layers) {
    os << sep << '"' << name << "\": [" << ratio.num << ", " << ratio.base << "]";
    sep = ", ";
  }
  os << "}";
  numbers("spans_ns_per_pkt", r.spans);
  os << "}";
  std::cout << os.str() << std::endl;
}

[[noreturn]] void usage() {
  std::cerr << "usage: swishbench --workload ewo_flood|nat_churn|lb_txn_sharded --seed N"
               " [--trace] [--shards N]\n";
  std::exit(2);
}

std::uint64_t parse_count(const char* s) {
  try {
    std::size_t used = 0;
    const std::string v(s);
    const std::uint64_t n = std::stoull(v, &used);
    if (used != v.size() || v[0] == '-' || v[0] == '+') usage();
    return n;
  } catch (const std::exception&) {
    usage();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::optional<std::uint64_t> seed;
  std::size_t shards = 0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) name = argv[++i];
    else if (a == "--seed" && has_value) seed = parse_count(argv[++i]);
    else if (a == "--shards" && has_value) shards = static_cast<std::size_t>(parse_count(argv[++i]));
    else if (a == "--trace") traced = true;
    else usage();
  }
  const auto w = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                              [&](const Workload& x) { return x.name == name; });
  if (w == kWorkloads.end() || !seed) usage();
  if (shards == 0) shards = w->shards;
  if (shards > w->leaves) usage();

  Result r;
  if (w->name == "ewo_flood") r = run_ewo_flood(*w, *seed, shards, traced);
  else if (w->name == "nat_churn") r = run_nat_churn(*w, *seed, shards, traced);
  else r = run_lb_txn_sharded(*w, *seed, shards, traced);
  r.peak_rss_mb = peak_rss_mb();
  if (r.attempted == 0) r.fail("no edge packets injected");
  print_json(r, w->name, shards, traced);
  return 0;
}
