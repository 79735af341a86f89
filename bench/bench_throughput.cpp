// Wall-clock throughput benchmark of the simulated data path (perf
// trajectory anchor — see DESIGN.md "Data-path performance model" for the
// JSON schema).
//
// Drives a leaf-spine fabric running the heavy-hitter NF at saturating load:
// every leaf injects back-to-back batches of prebuilt packets, the NF bumps a
// shared EWO counter per packet (which multicasts mirror updates across the
// fabric), and delivered packets exit through the delivery sink. The bench
// reports how fast the *simulator* chews through that work in wall-clock
// terms: events/sec, simulated packets/sec, and (when the packet layer is
// instrumented) bytes deep-copied per delivered packet plus the parse-cache
// hit rate.
//
//   bench_throughput --out BENCH_throughput.json --baseline bench/baseline_throughput.json
//
// With --baseline, the named file's contents (a previous run object) are
// embedded verbatim so the artifact carries its own before/after comparison.
//
// Schema 2 (ISSUE 3): every numeric result is registered in a
// telemetry::MetricsRegistry and the run object's "metrics" payload is the
// registry's hierarchical JSON export — generated, not hand-rolled. When the
// --out file already holds a schema-2 artifact, its "runs" history is carried
// forward and the new run (tagged with --commit) is appended.
#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "nf/heavyhitter.hpp"
#include "packet/packet.hpp"
#include "swishmem/fabric.hpp"
#include "telemetry/metrics.hpp"

using namespace swish;

namespace {

struct Options {
  std::size_t leaves = 4;
  std::size_t spines = 2;
  std::size_t flows = 512;       ///< distinct prebuilt packets (src addresses)
  std::size_t batch = 4;         ///< packets injected per pump firing per leaf
  TimeNs gap = 1 * kUs;          ///< pump period
  TimeNs sim_duration = 20 * kMs;
  std::uint64_t threshold = 1'000'000'000;  ///< keep the HH detector counting
  std::size_t shards = 1;
  std::vector<std::size_t> sweep_shards;  ///< non-empty: one run per count
  std::string out;
  std::string baseline;
  std::string write_baseline;
  std::string label = "current";
  std::string commit = "unknown";
  double overhead_gate = 0.0;  ///< >0: compare tracer-off vs spans-enabled
  bool quiet = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [options]\n"
            << "  --leaves N        leaf switches (default 4)\n"
            << "  --spines N        spine switches (default 2)\n"
            << "  --flows N         distinct packets in the injection pool (default 512)\n"
            << "  --batch N         packets per pump firing per leaf (default 4)\n"
            << "  --gap-ns N        pump period in ns (default 1000)\n"
            << "  --sim-ms N        simulated duration (default 20)\n"
            << "  --shards N        parallel simulation shards (default 1)\n"
            << "  --sweep-shards L  comma list of shard counts (e.g. 1,2,4,8); runs the\n"
            << "                    scenario once per count, emits one JSON run entry\n"
            << "                    each, and reports scaling_efficiency vs the 1-shard\n"
            << "                    run (pps@N / (N x pps@1))\n"
            << "  --label S         run label recorded in the JSON (default current)\n"
            << "  --commit S        commit hash recorded in the JSON (default unknown)\n"
            << "  --out FILE        write the JSON result document (appends to its\n"
            << "                    run history when FILE is a schema-2 artifact)\n"
            << "  --baseline FILE   embed FILE's run object as the baseline\n"
            << "  --write-baseline FILE  also write this run's params/results in the\n"
            << "                    baseline-block shape (only measured metrics — no\n"
            << "                    null placeholders)\n"
            << "  --overhead-gate P run the telemetry A/B comparison — baseline vs\n"
            << "                    causal tracing enabled-but-unsampled vs INT-MD\n"
            << "                    1-in-64 sampled — and fail (exit 1) when either\n"
            << "                    telemetry run is more than P%% slower\n"
            << "  --quiet           suppress the human-readable summary\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  auto need = [&](int& i) -> std::string {
    if (++i >= argc) usage(argv[0]);
    return argv[i];
  };
  auto num = [&](int& i) -> long long {
    const std::string v = need(i);
    try {
      std::size_t used = 0;
      const long long n = std::stoll(v, &used);
      if (used != v.size() || n < 0) usage(argv[0]);
      return n;
    } catch (const std::exception&) {
      std::cerr << argv[0] << ": bad numeric value '" << v << "' for " << argv[i - 1] << "\n";
      std::exit(2);
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--leaves") opt.leaves = static_cast<std::size_t>(num(i));
    else if (a == "--spines") opt.spines = static_cast<std::size_t>(num(i));
    else if (a == "--flows") opt.flows = static_cast<std::size_t>(num(i));
    else if (a == "--batch") opt.batch = static_cast<std::size_t>(num(i));
    else if (a == "--gap-ns") opt.gap = num(i);
    else if (a == "--sim-ms") opt.sim_duration = num(i) * kMs;
    else if (a == "--shards") opt.shards = static_cast<std::size_t>(num(i));
    else if (a == "--sweep-shards") {
      std::stringstream list(need(i));
      std::string item;
      while (std::getline(list, item, ',')) {
        try {
          std::size_t used = 0;
          const unsigned long long n = std::stoull(item, &used);
          if (used != item.size() || n == 0) throw std::invalid_argument(item);
          opt.sweep_shards.push_back(static_cast<std::size_t>(n));
        } catch (const std::exception&) {
          std::cerr << argv[0] << ": bad shard count '" << item << "' in --sweep-shards\n";
          std::exit(2);
        }
      }
      if (opt.sweep_shards.empty()) usage(argv[0]);
    }
    else if (a == "--label") opt.label = need(i);
    else if (a == "--commit") opt.commit = need(i);
    else if (a == "--out") opt.out = need(i);
    else if (a == "--baseline") opt.baseline = need(i);
    else if (a == "--write-baseline") opt.write_baseline = need(i);
    else if (a == "--overhead-gate") opt.overhead_gate = static_cast<double>(num(i));
    else if (a == "--quiet") opt.quiet = true;
    else usage(argv[0]);
  }
  return opt;
}

/// Self-rescheduling injector: one per leaf, firing every `gap` ns. Lives on
/// the leaf's own shard (it posts to and injects into that shard's event
/// queue), so a sharded run drives every leaf from its local clock.
class InjectionPump {
 public:
  InjectionPump(shm::Fabric& fabric, std::size_t leaf, const std::vector<pkt::Packet>& pool,
                TimeNs gap, std::size_t batch)
      : fabric_(fabric), sim_(fabric.simulator_for(leaf)), leaf_(leaf), pool_(pool), gap_(gap),
        batch_(batch) {}

  void start(TimeNs deadline) { arm(deadline); }

 private:
  void arm(TimeNs deadline) {
    sim_.post_after(gap_, [this, deadline]() {
      if (sim_.now() >= deadline) return;
      for (std::size_t i = 0; i < batch_; ++i) {
        fabric_.sw(leaf_).inject(pool_[cursor_]);  // by-value: exercises the copy path
        cursor_ = (cursor_ + 1) % pool_.size();
      }
      arm(deadline);
    });
  }

  shm::Fabric& fabric_;
  sim::Simulator& sim_;
  std::size_t leaf_;
  const std::vector<pkt::Packet>& pool_;
  TimeNs gap_;
  std::size_t batch_;
  std::size_t cursor_ = 0;
};

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return {};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Verbatim inner text of the top-level `"runs": [ ... ]` array of a previous
/// schema-2 artifact ("" when absent) — carries the run history forward so
/// repeated bench invocations accumulate instead of overwriting.
std::string extract_runs(const std::string& doc) {
  const auto key = doc.find("\"runs\": [");
  if (key == std::string::npos) return {};
  const std::size_t open = doc.find('[', key);
  int depth = 0;
  bool in_string = false;
  for (std::size_t j = open; j < doc.size(); ++j) {
    const char c = doc[j];
    if (in_string) {
      if (c == '\\') ++j;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (--depth == 0) {
        std::string inner = doc.substr(open + 1, j - open - 1);
        const auto b = inner.find_first_not_of(" \t\n");
        if (b == std::string::npos) return {};
        const auto e = inner.find_last_not_of(" \t\n");
        return inner.substr(b, e - b + 1);
      }
    }
  }
  return {};
}

std::string trim_trailing(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

/// One full fabric run at saturating load. `span_sample` > 0 enables the
/// causal-trace recorder at that sampling rate (the --overhead-gate mode
/// compares 0 against a rate so large effectively nothing is sampled).
struct RunStats {
  double wall_seconds = 0;
  /// Process CPU time of the run — what the overhead gate compares. The
  /// bench is single-threaded, so CPU time is immune to preemption by other
  /// processes (this runs on shared, sometimes single-core CI machines where
  /// wall-clock A/B deltas at 2% precision are pure scheduling noise).
  double cpu_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t injected = 0;
  std::uint64_t processed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t sw_delivered = 0;
  net::LinkStats link;
  // Sharded-core counters (windows and cross-shard events are zero on one
  // shard): what a --sweep-shards row needs to explain its own scaling.
  std::size_t shards = 1;
  std::uint64_t windows = 0;
  std::uint64_t cross_events = 0;
  std::uint64_t max_shard_events = 0;  ///< events executed by the busiest shard
};

RunStats run_scenario(const Options& opt, std::size_t shards, std::uint64_t span_sample,
                      bool observatory = false, std::uint64_t int_sample = 0) {
  shm::FabricConfig cfg;
  cfg.num_switches = opt.leaves;
  cfg.topology = shm::FabricConfig::Topology::kLeafSpine;
  cfg.spine_count = opt.spines;
  cfg.seed = 7;
  cfg.shards = shards;
  cfg.switch_config.int_sample_every = int_sample;

  shm::Fabric fabric(cfg);
  if (span_sample > 0) fabric.enable_spans(span_sample);
  if (observatory) fabric.enable_observatory();
  fabric.add_space(nf::HeavyHitterApp::space(4096));
  nf::HeavyHitterApp::Config hh;
  hh.threshold = opt.threshold;
  fabric.install([&]() { return std::make_unique<nf::HeavyHitterApp>(hh); });
  fabric.start();

  RunStats rs;
  // Per-switch cells, summed post-run: each switch's delivery events execute
  // on exactly one shard, so the cells are single-writer under sharding.
  std::vector<std::uint64_t> delivered_per_switch(fabric.size(), 0);
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    std::uint64_t* cell = &delivered_per_switch[i];
    fabric.sw(i).set_delivery_sink([cell](const pkt::Packet&) { ++*cell; });
  }

  // Prebuilt pool: distinct sources spread over /24 prefixes so the NF's
  // counter slots disperse; injection copies from the pool every time.
  std::vector<pkt::Packet> pool;
  pool.reserve(opt.flows);
  for (std::size_t i = 0; i < opt.flows; ++i) {
    pkt::PacketSpec spec;
    spec.eth_src = pkt::MacAddr::for_node(0xfeed);
    spec.ip_src = pkt::Ipv4Addr(static_cast<std::uint32_t>(
        (50u << 24) | ((i % 64) << 8) | (1 + i / 64)));
    spec.ip_dst = pkt::Ipv4Addr(10, 200, 0, 1);
    spec.protocol = pkt::kProtoUdp;
    spec.src_port = static_cast<std::uint16_t>(20000 + i);
    spec.dst_port = 80;
    spec.payload.assign(64, 0xAB);
    pool.push_back(pkt::build_packet(spec));
  }

  std::vector<std::unique_ptr<InjectionPump>> pumps;
  const TimeNs deadline = fabric.simulator().now() + opt.sim_duration;
  for (std::size_t leaf = 0; leaf < opt.leaves; ++leaf) {
    pumps.push_back(
        std::make_unique<InjectionPump>(fabric, leaf, pool, opt.gap, opt.batch));
    pumps.back()->start(deadline);
  }

#ifdef SWISH_PACKET_STATS
  pkt::PacketStats::global().reset();
#endif

  const sim::ShardSet& set = fabric.shard_set();
  std::vector<std::uint64_t> shard_events_before(set.count());
  for (std::size_t k = 0; k < set.count(); ++k) {
    shard_events_before[k] = set.sim(k).executed_events();
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const std::clock_t cpu_start = std::clock();
  const std::uint64_t events_before = set.executed_events();
  fabric.run_for(opt.sim_duration + 2 * kMs);  // drain in-flight traffic
  const std::clock_t cpu_end = std::clock();
  const auto wall_end = std::chrono::steady_clock::now();

  rs.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  rs.cpu_seconds = static_cast<double>(cpu_end - cpu_start) / CLOCKS_PER_SEC;
  rs.events = set.executed_events() - events_before;
  rs.shards = set.count();
  rs.windows = set.windows();
  rs.cross_events = set.cross_events();
  for (std::size_t k = 0; k < set.count(); ++k) {
    rs.max_shard_events =
        std::max(rs.max_shard_events, set.sim(k).executed_events() - shard_events_before[k]);
  }
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    rs.injected += fabric.sw(i).stats().injected;
    rs.processed += fabric.sw(i).stats().processed;
    rs.sw_delivered += fabric.sw(i).stats().delivered;
    rs.delivered += delivered_per_switch[i];
  }
  rs.link = fabric.network().total_stats();
  return rs;
}

/// Why a run scales as it does: events per conservative window (0 on one
/// shard), the share of events that crossed shards, and the busiest shard's
/// events over the mean shard's (1 = perfectly balanced).
struct ShardShape {
  double events_per_window = 0;
  double cross_frac = 0;
  double imbalance = 0;
};

ShardShape shard_shape(const RunStats& rs) {
  ShardShape s;
  if (rs.events == 0) return s;
  const auto events = static_cast<double>(rs.events);
  if (rs.windows > 0) s.events_per_window = events / static_cast<double>(rs.windows);
  s.cross_frac = static_cast<double>(rs.cross_events) / events;
  s.imbalance =
      static_cast<double>(rs.max_shard_events) * static_cast<double>(rs.shards) / events;
  return s;
}

/// Best wall-clock of three runs — the gate compares medians of the fastest
/// observations, which is far less noisy than single shots.
int run_overhead_gate(const Options& opt) {
  // Interleaved rounds on process CPU time, gated on the MINIMUM per-round
  // paired delta — the cleanest round. Each round measures all three
  // configurations back-to-back, so the off/on pair of one round shares a
  // noise regime (cache pollution, frequency state) and its delta is a
  // paired estimate of the code cost. Noise on shared, sometimes single-core
  // CI machines inflates one side of a pair by several percent and can
  // persist across most of the rounds, so neither unpaired best-of-N nor the
  // median is flake-free there; a true code regression, by contrast, is
  // present in EVERY round including the cleanest, so the minimum catches it
  // while shrugging off interference. CPU time (not wall) already excludes
  // outright preemption.
  //
  // Configurations:
  //  - tracer off: the baseline.
  //  - spans on, unsampled: every send pays the recorder-enabled branch and
  //    the retry-cache lookup, but (bar the very first root) nothing
  //    records. This is the GATED configuration — span sampling must be
  //    (near) free when it samples nothing.
  //  - + lag observatory: adds the consistency-lag observatory, which by
  //    design accounts EVERY write exactly (it is not sampled) — reported
  //    for transparency, not gated: this workload writes on every packet,
  //    the worst case for per-write accounting.
  //  - INT 1-in-64 sampled: in-band telemetry at its documented default-ish
  //    rate — sampled packets carry the trailer and every traversed switch
  //    appends a hop record. GATED like the span configuration: telemetry at
  //    a production sampling rate must stay within the budget.
  constexpr int kRounds = 7;
  RunStats off, on, full, intr;
  std::vector<double> on_deltas, full_deltas, int_deltas;
  for (int r = 0; r < kRounds; ++r) {
    RunStats o = run_scenario(opt, 1, 0);
    if (r == 0 || o.cpu_seconds < off.cpu_seconds) off = o;
    RunStats s = run_scenario(opt, 1, std::uint64_t{1} << 62);
    if (r == 0 || s.cpu_seconds < on.cpu_seconds) on = s;
    RunStats f = run_scenario(opt, 1, std::uint64_t{1} << 62, true);
    if (r == 0 || f.cpu_seconds < full.cpu_seconds) full = f;
    RunStats t = run_scenario(opt, 1, 0, false, 64);
    if (r == 0 || t.cpu_seconds < intr.cpu_seconds) intr = t;
    const double o_pps = static_cast<double>(o.processed) / o.cpu_seconds;
    const double s_pps = static_cast<double>(s.processed) / s.cpu_seconds;
    const double f_pps = static_cast<double>(f.processed) / f.cpu_seconds;
    const double t_pps = static_cast<double>(t.processed) / t.cpu_seconds;
    on_deltas.push_back(100.0 * (o_pps - s_pps) / o_pps);
    full_deltas.push_back(100.0 * (o_pps - f_pps) / o_pps);
    int_deltas.push_back(100.0 * (o_pps - t_pps) / o_pps);
  }
  const double off_pps = static_cast<double>(off.processed) / off.cpu_seconds;
  const double on_pps = static_cast<double>(on.processed) / on.cpu_seconds;
  const double full_pps = static_cast<double>(full.processed) / full.cpu_seconds;
  const double int_pps = static_cast<double>(intr.processed) / intr.cpu_seconds;
  const double delta_pct = *std::min_element(on_deltas.begin(), on_deltas.end());
  const double full_pct = *std::min_element(full_deltas.begin(), full_deltas.end());
  const double int_pct = *std::min_element(int_deltas.begin(), int_deltas.end());
  std::cout << "overhead gate (threshold " << json_num(opt.overhead_gate)
            << "%, cleanest paired delta over " << kRounds << " rounds)\n"
            << "  tracer off           " << json_num(off_pps) << " pps ("
            << json_num(off.cpu_seconds) << " s cpu best)\n"
            << "  spans on, unsampled  " << json_num(on_pps) << " pps ("
            << json_num(on.cpu_seconds) << " s cpu best)  delta "
            << json_num(delta_pct) << "% [gated]\n"
            << "  + lag observatory    " << json_num(full_pps) << " pps ("
            << json_num(full.cpu_seconds) << " s cpu best)  delta "
            << json_num(full_pct) << "% [informational]\n"
            << "  INT 1-in-64 sampled  " << json_num(int_pps) << " pps ("
            << json_num(intr.cpu_seconds) << " s cpu best)  delta "
            << json_num(int_pct) << "% [gated]\n";
  if (delta_pct > opt.overhead_gate) {
    std::cerr << "bench_throughput: FAIL — enabled-but-unsampled tracing costs "
              << json_num(delta_pct) << "% > " << json_num(opt.overhead_gate)
              << "% gate\n";
    return 1;
  }
  if (int_pct > opt.overhead_gate) {
    std::cerr << "bench_throughput: FAIL — INT 1-in-64 sampling costs "
              << json_num(int_pct) << "% > " << json_num(opt.overhead_gate)
              << "% gate\n";
    return 1;
  }
  std::cout << "  PASS\n";
  return 0;
}

}  // namespace

/// Registry export of one measured run. Only metrics the run actually
/// measured are registered — absent metrics are simply absent from the JSON,
/// never null placeholders (the seed artifact's hand-written baseline block
/// carried `"parse_executions": null` etc.; schema 2 forbids that).
void build_report(telemetry::MetricsRegistry& report, const Options& opt, std::size_t shards,
                  const RunStats& rs, double pps_at_1) {
  report.counter("params.leaves") += opt.leaves;
  report.counter("params.spines") += opt.spines;
  report.counter("params.flows") += opt.flows;
  report.counter("params.batch") += opt.batch;
  report.counter("params.gap_ns") += static_cast<std::uint64_t>(opt.gap);
  report.counter("params.sim_ms") += static_cast<std::uint64_t>(opt.sim_duration / kMs);
  report.counter("params.shards") += shards;
  const double pps = static_cast<double>(rs.processed) / rs.wall_seconds;
  report.gauge("results.wall_seconds") = rs.wall_seconds;
  report.gauge("results.sim_seconds") = static_cast<double>(opt.sim_duration) / kSec;
  report.counter("results.executed_events") += rs.events;
  report.gauge("results.events_per_wall_sec") =
      static_cast<double>(rs.events) / rs.wall_seconds;
  report.counter("results.packets_injected") += rs.injected;
  report.counter("results.packets_processed") += rs.processed;
  report.counter("results.packets_delivered") += rs.delivered;
  report.gauge("results.packets_per_wall_sec") = pps;
  report.gauge("results.delivered_per_wall_sec") =
      static_cast<double>(rs.delivered) / rs.wall_seconds;
  report.counter("results.link_packets_sent") += rs.link.packets_sent;
  report.counter("results.link_bytes_sent") += rs.link.bytes_sent;
  report.counter("results.switch_delivered") += rs.sw_delivered;
  const ShardShape shape = shard_shape(rs);
  report.counter("results.windows") += rs.windows;
  report.gauge("results.events_per_window") = shape.events_per_window;
  report.gauge("results.cross_event_frac") = shape.cross_frac;
  report.gauge("results.shard_imbalance") = shape.imbalance;
  if (pps_at_1 > 0.0) {
    report.gauge("results.speedup_vs_1shard") = pps / pps_at_1;
    report.gauge("results.scaling_efficiency") =
        pps / (static_cast<double>(shards) * pps_at_1);
  }
#ifdef SWISH_PACKET_STATS
  const auto& ps = pkt::PacketStats::global();
  const std::uint64_t parse_execs = ps.parse_executions;
  const std::uint64_t parse_hits = ps.parse_cache_hits;
  const double hit_rate =
      parse_execs + parse_hits == 0
          ? 0.0
          : static_cast<double>(parse_hits) / static_cast<double>(parse_execs + parse_hits);
  report.counter("results.parse_executions") += parse_execs;
  report.counter("results.parse_cache_hits") += parse_hits;
  report.gauge("results.parse_cache_hit_rate") = hit_rate;
  report.counter("results.buffer_deep_copies") += ps.rewrite_copies;
  report.gauge("results.bytes_copied_per_delivered") =
      rs.delivered == 0
          ? 0.0
          : static_cast<double>(ps.rewrite_bytes) / static_cast<double>(rs.delivered);
#endif
}

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.overhead_gate > 0.0) return run_overhead_gate(opt);

  std::vector<std::size_t> counts = opt.sweep_shards;
  if (counts.empty()) counts.push_back(opt.shards);

  std::vector<std::string> run_objects;
  double pps_at_1 = 0.0;
  std::string baseline_block;
  for (const std::size_t shards : counts) {
    const RunStats rs = run_scenario(opt, shards, 0);
    const double pps = static_cast<double>(rs.processed) / rs.wall_seconds;
    // Scaling is relative to a 1-shard run measured in the same invocation;
    // a sweep that skips 1 gets plain numbers and no efficiency field.
    if (shards == 1 && pps_at_1 == 0.0) pps_at_1 = pps;
    telemetry::MetricsRegistry report;
    build_report(report, opt, shards, rs, pps_at_1);

    std::ostringstream run;
    run << "{\n"
        << "  \"label\": \"" << opt.label << "\",\n"
        << "  \"commit\": \"" << opt.commit << "\",\n"
        << "  \"metrics\": " << trim_trailing(report.to_json()) << "\n"
        << "}";
    run_objects.push_back(run.str());

    if (baseline_block.empty()) {
      // Baseline-block shape: label/commit, then the registry's params and
      // results maps spliced in at top level.
      const std::string body = trim_trailing(report.to_json());
      std::ostringstream bl;
      bl << "{\n  \"label\": \"" << opt.label << "\",\n  \"commit\": \"" << opt.commit
         << "\",\n"
         << body.substr(body.find('{') + 1);
      baseline_block = bl.str();
    }

    if (!opt.quiet) {
      std::cout << "bench_throughput [" << opt.label << " @ " << opt.commit << ", shards "
                << shards << "]\n"
                << "  wall time          " << json_num(rs.wall_seconds) << " s for "
                << json_num(static_cast<double>(opt.sim_duration) / kSec)
                << " simulated s\n"
                << "  events             " << rs.events << " ("
                << json_num(static_cast<double>(rs.events) / rs.wall_seconds) << "/s wall)\n"
                << "  packets processed  " << rs.processed << " (" << json_num(pps)
                << "/s wall)\n"
                << "  packets delivered  " << rs.delivered << "\n"
                << "  link traffic       " << rs.link.packets_sent << " pkts, "
                << rs.link.bytes_sent << " bytes\n";
      const ShardShape shape = shard_shape(rs);
      std::cout << "  windows            " << rs.windows << " ("
                << json_num(shape.events_per_window) << " events/window, "
                << json_num(100.0 * shape.cross_frac) << "% cross-shard, max/mean shard events "
                << json_num(shape.imbalance) << ")\n";
      if (pps_at_1 > 0.0 && shards != 1) {
        std::cout << "  speedup vs 1 shard " << json_num(pps / pps_at_1) << "x (efficiency "
                  << json_num(pps / (static_cast<double>(shards) * pps_at_1)) << ")\n";
      }
#ifdef SWISH_PACKET_STATS
      const auto& stats = pkt::PacketStats::global();
      std::cout << "  parse executions   " << std::uint64_t{stats.parse_executions}
                << " (cache hits " << std::uint64_t{stats.parse_cache_hits} << ")\n"
                << "  deep copies        " << std::uint64_t{stats.rewrite_copies} << " ("
                << std::uint64_t{stats.rewrite_bytes} << " bytes)\n";
#endif
    }
  }

  if (!opt.write_baseline.empty()) {
    std::ofstream bl(opt.write_baseline);
    bl << baseline_block << "\n";
  }

  if (!opt.out.empty()) {
    std::string baseline_text = "null";
    if (!opt.baseline.empty()) {
      baseline_text = trim_trailing(read_file(opt.baseline));
      if (baseline_text.empty()) {
        std::cerr << "bench_throughput: cannot read baseline " << opt.baseline << "\n";
        return 1;
      }
    }
    const std::string previous = extract_runs(read_file(opt.out));
    std::ofstream out(opt.out);
    out << "{\n\"bench\": \"throughput\",\n\"schema\": 2,\n\"baseline\": " << baseline_text
        << ",\n\"runs\": [\n";
    if (!previous.empty()) out << previous << ",\n";
    for (std::size_t i = 0; i < run_objects.size(); ++i) {
      out << run_objects[i] << (i + 1 < run_objects.size() ? ",\n" : "\n");
    }
    out << "]\n}\n";
  }
  return 0;
}
