// swish_sim: command-line scenario runner for SwiShmem deployments.
//
// Runs one of the bundled NFs on a simulated multi-switch fabric with
// configurable topology, link model, workload, failures, and attack traffic,
// then prints a summary. Protocol traffic can be captured to a pcap file.
//
// Examples:
//   swish_sim --nf nat --switches 4 --reroute 0.3 --duration-ms 500
//   swish_sim --nf lb --kill 1:200 --flows-per-sec 1000
//   swish_sim --nf ddos --attack 60000:100:200 --sync-period-us 1000
//   swish_sim --nf firewall --loss 0.05 --pcap fabric.pcap
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "common/table.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/records.hpp"
#include "nf/ddos.hpp"
#include "nf/firewall.hpp"
#include "nf/ips.hpp"
#include "nf/lb.hpp"
#include "nf/nat.hpp"
#include "nf/ratelimiter.hpp"
#include "packet/pcap.hpp"
#include "swishmem/fabric.hpp"
#include "workload/attack.hpp"
#include "workload/traffic.hpp"

using namespace swish;

namespace {

struct Options {
  std::string nf = "nat";
  std::size_t switches = 4;
  std::string shards = "1";  ///< "auto" or a count; resolved after parsing
  std::string membership = "heartbeat";
  TimeNs hb_timeout = 30 * kMs;
  TimeNs check_period = 5 * kMs;
  std::string topology = "mesh";
  std::size_t spines = 2;
  double loss = 0.0;
  TimeNs link_delay = 1 * kUs;
  double dataplane_pps = 0.0;  ///< 0 = keep the switch-config default
  double flows_per_sec = 2000;
  double packets_per_flow = 8;
  double reroute = 0.0;
  TimeNs duration = 500 * kMs;
  TimeNs sync_period = 1 * kMs;
  std::uint64_t seed = 1;
  std::vector<std::pair<std::size_t, TimeNs>> kills;
  std::vector<std::pair<std::size_t, TimeNs>> revives;
  std::optional<std::array<std::uint64_t, 3>> attack;  // pps, start_ms, dur_ms
  struct SpaceOverride {
    std::string name;
    shm::ConsistencyClass cls;
    std::optional<shm::SpaceKind> kind;  ///< unset = keep the NF's default
  };
  std::vector<SpaceOverride> space_overrides;
  std::uint64_t int_sample = 0;  ///< INT-MD sampling: 0 = off, N = 1-in-N
  unsigned int_hop_cap = 8;
  std::string health_json;
  std::string drops_json;
  std::string pcap;
  std::string metrics_json;
  std::string trace;
  std::uint32_t trace_mask = telemetry::kTraceAll;
  std::uint64_t span_sample = 0;  ///< 0 = causal tracing off
  std::string perfetto;
  std::string timeseries;
  TimeNs timeseries_period = 10 * kMs;
  std::size_t top_slowest = 10;
  bool quiet = false;
  bool json_to_stdout = false;  ///< an output is "-": the report goes to stderr
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --nf nat|firewall|lb|ips|ddos|ratelimiter|none   NF to deploy (default nat)\n"
      << "  --switches N            fabric size (default 4)\n"
      << "  --shards N|auto         parallel simulation shards (default 1; auto =\n"
      << "                          min(switches, hardware threads); 1 reproduces\n"
      << "                          the single-threaded core byte-for-byte)\n"
      << "  --membership heartbeat|swim  failure-detection protocol (default\n"
      << "                          heartbeat: controller timeout scan; swim:\n"
      << "                          decentralized gossip, needs >= 2 switches)\n"
      << "  --hb-timeout-ms N       heartbeat silence before a switch is declared\n"
      << "                          failed (default 30; must exceed check period)\n"
      << "  --check-period-ms N     controller liveness scan period (default 5)\n"
      << "  --topology mesh|chain|leafspine\n"
      << "  --spines N              spine count for leafspine (default 2)\n"
      << "  --loss P                per-link loss probability, 0..1 (default 0)\n"
      << "  --link-delay-us N       one-way link latency (default 1)\n"
      << "  --dataplane-pps N       per-switch pipeline capacity in packets/s\n"
      << "                          (default 100000000; lower it to study queue\n"
      << "                          buildup and capacity drops under floods)\n"
      << "  --flows-per-sec N       workload connection rate (default 2000)\n"
      << "  --packets-per-flow N    mean flow length (default 8)\n"
      << "  --reroute P             per-packet ingress re-route probability, 0..1\n"
      << "  --duration-ms N         traffic duration (default 500)\n"
      << "  --sync-period-us N      EWO periodic sync period (default 1000)\n"
      << "  --kill IDX:MS           fail switch IDX at MS (repeatable)\n"
      << "  --revive IDX:MS         revive switch IDX at MS (repeatable)\n"
      << "  --attack PPS:START:DUR  UDP flood (times in ms)\n"
      << "  --space NAME=CLS[:KIND] override a space's consistency class and\n"
      << "                          optionally its storage kind (CLS: sro|ero|\n"
      << "                          ewo|own|con; KIND: dense|sparse; repeatable)\n"
      << "  --int-sample N          in-band telemetry: tag 1 in N packets with an\n"
      << "                          INT-MD trailer (per-hop switch id, timestamps,\n"
      << "                          queue depth, rule hit) and run the fleet-health\n"
      << "                          collector (0 = off, the default)\n"
      << "  --int-hop-cap N         max on-wire INT hop records per packet, 1..255\n"
      << "                          (default 8; overflow sets the truncation bit)\n"
      << "  --health-json FILE      write the fleet-health scorecard as JSON\n"
      << "                          (re-readable by `analyze --health`; implies\n"
      << "                          drop forensics even without --int-sample)\n"
      << "  --drops-json FILE       write the mirror-on-drop forensic records\n"
      << "                          (typed reason, drop location, INT hop stack)\n"
      << "                          as JSON (FILE of - writes to stdout)\n"
      << "  --pcap FILE             capture all fabric traffic\n"
      << "  --metrics-json FILE     write the full metrics registry as JSON\n"
      << "                          (FILE of - writes to stdout)\n"
      << "  --trace FILE            record a flight-recorder trace and dump it\n"
      << "  --trace-mask CATS       comma list of categories (needs --trace):\n"
      << "                          " << telemetry::trace_category_list() << "\n"
      << "                          (default all)\n"
      << "  --span-sample N         causal tracing: sample 1 in N trace roots\n"
      << "                          and enable the consistency-lag observatory\n"
      << "  --perfetto FILE         write sampled spans as Chrome/Perfetto\n"
      << "                          trace-event JSON (implies --span-sample 64\n"
      << "                          unless one is given)\n"
      << "  --timeseries FILE       periodic metrics time-series CSV\n"
      << "  --timeseries-period-us N  time-series sampling period (default 10000)\n"
      << "  --top-slowest K         slowest sampled propagations in the exit\n"
      << "                          report (default 10)\n"
      << "  --seed N                RNG seed (default 1)\n"
      << "  --quiet                 summary only\n"
      << "\n"
      << "subcommand:\n"
      << "  " << argv0 << " analyze TRACE.json [--top K]\n"
      << "                          stitch a --perfetto trace back into causal\n"
      << "                          chains and print the K slowest propagations\n"
      << "  " << argv0 << " analyze --health HEALTH.json\n"
      << "                          render a --health-json fleet-health scorecard\n";
  std::exit(2);
}

// Strict numeric parsers: the whole token must be a number of the right sign,
// otherwise we exit through usage() instead of letting std::sto* throw.
std::uint64_t parse_u64(const std::string& s, const char* argv0) {
  try {
    if (s.empty() || s[0] == '-' || s[0] == '+') usage(argv0);
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) usage(argv0);
    return v;
  } catch (const std::logic_error&) {  // invalid_argument or out_of_range
    usage(argv0);
  }
}

TimeNs parse_time(const std::string& s, const char* argv0, TimeNs unit) {
  const auto v = static_cast<TimeNs>(parse_u64(s, argv0));
  if (v > std::numeric_limits<TimeNs>::max() / unit) usage(argv0);
  return v * unit;
}

double parse_rate(const std::string& s, const char* argv0) {
  try {
    if (s.empty() || s[0] == '-') usage(argv0);
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size() || !(v >= 0.0) || !std::isfinite(v)) usage(argv0);
    return v;
  } catch (const std::logic_error&) {
    usage(argv0);
  }
}

double parse_prob(const std::string& s, const char* argv0) {
  const double p = parse_rate(s, argv0);
  if (p > 1.0) usage(argv0);
  return p;
}

/// A period drives a periodic timer, so it must be positive.
TimeNs parse_period(const std::string& s, const char* argv0, TimeNs unit) {
  const TimeNs t = parse_time(s, argv0, unit);
  if (t == 0) usage(argv0);
  return t;
}

std::pair<std::size_t, TimeNs> parse_idx_ms(const std::string& s, const char* argv0) {
  const auto colon = s.find(':');
  if (colon == std::string::npos) usage(argv0);
  return {parse_u64(s.substr(0, colon), argv0), parse_time(s.substr(colon + 1), argv0, kMs)};
}

Options parse(int argc, char** argv) {
  Options opt;
  auto need = [&](int& i) -> std::string {
    if (++i >= argc) usage(argv[0]);
    return argv[i];
  };
  bool trace_mask_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--nf") opt.nf = need(i);
    else if (a == "--switches") opt.switches = parse_u64(need(i), argv[0]);
    else if (a == "--shards") opt.shards = need(i);
    else if (a == "--membership") opt.membership = need(i);
    else if (a == "--hb-timeout-ms") opt.hb_timeout = parse_time(need(i), argv[0], kMs);
    else if (a == "--check-period-ms") opt.check_period = parse_time(need(i), argv[0], kMs);
    else if (a == "--topology") opt.topology = need(i);
    else if (a == "--spines") opt.spines = parse_u64(need(i), argv[0]);
    else if (a == "--loss") opt.loss = parse_prob(need(i), argv[0]);
    else if (a == "--link-delay-us") opt.link_delay = parse_time(need(i), argv[0], kUs);
    else if (a == "--dataplane-pps") {
      opt.dataplane_pps = static_cast<double>(parse_u64(need(i), argv[0]));
      if (opt.dataplane_pps <= 0) usage(argv[0]);
    }
    else if (a == "--flows-per-sec") opt.flows_per_sec = parse_rate(need(i), argv[0]);
    else if (a == "--packets-per-flow") opt.packets_per_flow = parse_rate(need(i), argv[0]);
    else if (a == "--reroute") opt.reroute = parse_prob(need(i), argv[0]);
    else if (a == "--duration-ms") opt.duration = parse_time(need(i), argv[0], kMs);
    else if (a == "--sync-period-us") opt.sync_period = parse_period(need(i), argv[0], kUs);
    else if (a == "--kill") opt.kills.push_back(parse_idx_ms(need(i), argv[0]));
    else if (a == "--revive") opt.revives.push_back(parse_idx_ms(need(i), argv[0]));
    else if (a == "--attack") {
      const std::string s = need(i);
      const auto c1 = s.find(':');
      const auto c2 = c1 == std::string::npos ? std::string::npos : s.find(':', c1 + 1);
      if (c1 == std::string::npos || c2 == std::string::npos) usage(argv[0]);
      opt.attack = {{parse_u64(s.substr(0, c1), argv[0]),
                     parse_u64(s.substr(c1 + 1, c2 - c1 - 1), argv[0]),
                     parse_u64(s.substr(c2 + 1), argv[0])}};
    } else if (a == "--space") {
      const std::string s = need(i);
      const auto eq = s.find('=');
      if (eq == std::string::npos || eq == 0) usage(argv[0]);
      Options::SpaceOverride ov;
      ov.name = s.substr(0, eq);
      std::string cls = s.substr(eq + 1);
      try {
        if (const auto colon = cls.find(':'); colon != std::string::npos) {
          ov.kind = shm::parse_space_kind(cls.substr(colon + 1));
          cls.resize(colon);
        }
        ov.cls = shm::parse_consistency_class(cls);
      } catch (const std::invalid_argument&) {
        usage(argv[0]);
      }
      opt.space_overrides.push_back(std::move(ov));
    } else if (a == "--int-sample") opt.int_sample = parse_u64(need(i), argv[0]);
    else if (a == "--int-hop-cap") {
      const std::uint64_t cap = parse_u64(need(i), argv[0]);
      if (cap < 1 || cap > 255) usage(argv[0]);
      opt.int_hop_cap = static_cast<unsigned>(cap);
    } else if (a == "--health-json") opt.health_json = need(i);
    else if (a == "--drops-json") opt.drops_json = need(i);
    else if (a == "--pcap") opt.pcap = need(i);
    else if (a == "--metrics-json") opt.metrics_json = need(i);
    else if (a == "--trace") opt.trace = need(i);
    else if (a == "--trace-mask") {
      const std::string spec = need(i);
      const auto mask = telemetry::parse_trace_mask(spec);
      if (!mask) {
        std::cerr << "error: unknown category in --trace-mask '" << spec
                  << "'; valid names: " << telemetry::trace_category_list() << "\n";
        usage(argv[0]);
      }
      opt.trace_mask = *mask;
      trace_mask_given = true;
    } else if (a == "--span-sample") opt.span_sample = parse_u64(need(i), argv[0]);
    else if (a == "--perfetto") opt.perfetto = need(i);
    else if (a == "--timeseries") opt.timeseries = need(i);
    else if (a == "--timeseries-period-us")
      opt.timeseries_period = parse_period(need(i), argv[0], kUs);
    else if (a == "--top-slowest") opt.top_slowest = parse_u64(need(i), argv[0]);
    else if (a == "--seed") opt.seed = parse_u64(need(i), argv[0]);
    else if (a == "--quiet") opt.quiet = true;
    else usage(argv[0]);
  }
  // An output given as "-" owns stdout, so only one output may be "-".
  std::vector<std::string_view> to_stdout;
  for (const auto& [flag, file] : {std::pair{"--health-json", &opt.health_json},
                                   std::pair{"--drops-json", &opt.drops_json},
                                   std::pair{"--metrics-json", &opt.metrics_json}}) {
    if (*file == "-") to_stdout.push_back(flag);
  }
  if (to_stdout.size() > 1) {
    std::cerr << "error: only one output can be '-' (stdout), got";
    for (std::string_view flag : to_stdout) std::cerr << ' ' << flag << " -";
    std::cerr << "\n";
    std::exit(2);
  }
  opt.json_to_stdout = !to_stdout.empty();
  if (trace_mask_given && opt.trace.empty()) {
    std::cerr << "warning: --trace-mask has no effect without --trace FILE\n";
  }
  if (opt.int_sample == 0 && opt.int_hop_cap != 8) {
    std::cerr << "warning: --int-hop-cap has no effect without --int-sample\n";
  }
  if (!opt.perfetto.empty() && opt.span_sample == 0) opt.span_sample = 64;
  if (opt.span_sample == 0 && opt.top_slowest != 10) {
    std::cerr << "warning: --top-slowest has no effect without --span-sample/--perfetto\n";
  }
  return opt;
}

/// `swish_sim analyze TRACE.json [--top K]` or `analyze --health HEALTH.json`:
/// offline stitching of a --perfetto trace into causal chains, or rendering a
/// --health-json fleet-health scorecard.
int run_analyze(int argc, char** argv) {
  std::string file;
  std::string health_file;
  std::size_t top = 10;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--top") {
      if (++i >= argc) usage(argv[0]);
      top = parse_u64(argv[i], argv[0]);
    } else if (a == "--health") {
      if (++i >= argc) usage(argv[0]);
      health_file = argv[i];
    } else if (file.empty()) {
      file = a;
    } else {
      usage(argv[0]);
    }
  }
  if (!health_file.empty()) {
    if (!file.empty()) usage(argv[0]);  // --health takes the whole subcommand
    std::ifstream in(health_file);
    if (!in) {
      std::cerr << "error: cannot open " << health_file << "\n";
      return 1;
    }
    try {
      telemetry::print_health_report(std::cout, in);
    } catch (const std::exception& e) {
      std::cerr << "error: " << health_file << ": " << e.what() << "\n";
      return 1;
    }
    return 0;
  }
  if (file.empty()) usage(argv[0]);
  std::ifstream in(file);
  if (!in) {
    std::cerr << "error: cannot open " << file << "\n";
    return 1;
  }
  std::vector<telemetry::Span> spans;
  try {
    spans = telemetry::read_perfetto(in);
  } catch (const std::exception& e) {
    std::cerr << "error: " << file << ": " << e.what() << "\n";
    return 1;
  }
  const auto summaries = telemetry::stitch_traces(spans);
  std::size_t total_spans = 0;
  std::size_t cross_switch = 0;
  for (const auto& s : summaries) {
    total_spans += s.span_count;
    if (s.node_count > 1) ++cross_switch;
  }
  std::cout << "trace: " << file << "\n"
            << "traces: " << summaries.size() << " (" << cross_switch << " cross-switch), "
            << total_spans << " spans\n\n";
  telemetry::print_trace_summaries(std::cout, telemetry::top_slowest(summaries, top));
  return 0;
}

const std::vector<pkt::Ipv4Addr> kBackends{{10, 1, 0, 1}, {10, 1, 0, 2}, {10, 1, 0, 3}};

/// Resolves --shards against the fabric size. Impossible combinations get a
/// clear diagnostic and exit code 2 (the contract tests/cli_swish_sim_test.sh
/// pins down) instead of a throw from deep inside Fabric.
std::size_t resolve_shards(const Options& opt) {
  std::size_t shards = 1;
  if (opt.shards == "auto") {
    if (opt.switches <= 1) {
      std::cerr << "error: --shards auto needs a multi-switch fabric to partition (got "
                << opt.switches << " switch); use --shards 1\n";
      std::exit(2);
    }
    const auto hw = static_cast<std::size_t>(std::max(1u, std::thread::hardware_concurrency()));
    shards = std::min(opt.switches, hw);
  } else {
    try {
      std::size_t pos = 0;
      shards = std::stoull(opt.shards, &pos);
      if (pos != opt.shards.size() || opt.shards[0] == '-' || opt.shards[0] == '+') {
        throw std::invalid_argument("trailing characters");
      }
    } catch (const std::logic_error&) {
      std::cerr << "error: --shards expects a count or 'auto', got '" << opt.shards << "'\n";
      std::exit(2);
    }
    if (shards == 0) {
      std::cerr << "error: --shards 0 is impossible: the simulation needs at least one "
                   "event loop; use --shards 1 (or auto)\n";
      std::exit(2);
    }
    if (shards > opt.switches) {
      std::cerr << "error: --shards " << shards << " exceeds the fabric's " << opt.switches
                << " switch(es); shards partition switches, so use at most --shards "
                << opt.switches << "\n";
      std::exit(2);
    }
  }
  if (shards > 1 && (!opt.pcap.empty() || !opt.timeseries.empty())) {
    std::cerr << "error: --pcap and --timeseries observe a single global event loop and "
                 "require --shards 1\n";
    std::exit(2);
  }
  return shards;
}

/// kCON commits through majority quorums over the FULL deployment, so a kill
/// schedule that permanently drops the live replication factor below the
/// quorum size would stall every consensus write until the end of the run —
/// an impossible combination, rejected up front with exit code 2 (the same
/// contract as --shards; pinned by tests/cli_swish_sim_test.sh).
void check_con_quorum(const Options& opt) {
  const bool has_con = std::any_of(
      opt.space_overrides.begin(), opt.space_overrides.end(),
      [](const Options::SpaceOverride& ov) { return ov.cls == shm::ConsistencyClass::kCON; });
  if (!has_con) return;
  const std::size_t quorum = opt.switches / 2 + 1;
  std::size_t permanently_dead = 0;
  for (const auto& [idx, kill_at] : opt.kills) {
    bool revived_later = false;
    for (const auto& [ridx, revive_at] : opt.revives) {
      if (ridx == idx && revive_at > kill_at) revived_later = true;
    }
    if (!revived_later) ++permanently_dead;
  }
  const std::size_t survivors =
      opt.switches > permanently_dead ? opt.switches - permanently_dead : 0;
  if (survivors < quorum) {
    std::cerr << "error: --space ...=con needs a majority quorum of the deployment alive ("
              << quorum << " of " << opt.switches << " switches), but the --kill schedule "
              << "leaves only " << survivors
              << "; consensus writes would stall forever — revive switches or kill fewer\n";
    std::exit(2);
  }
}

/// --kill and --revive name switches by index into the fabric; an index past
/// the last switch is a usage error with exit code 2, not a throw.
void check_switch_indices(const Options& opt) {
  for (const auto& [flag, events] : {std::pair{"--kill", &opt.kills},
                                     std::pair{"--revive", &opt.revives}}) {
    for (const auto& [idx, at] : *events) {
      if (idx < opt.switches) continue;
      std::cerr << "error: " << flag << " " << idx << ":" << at / kMs << " names switch index "
                << idx << ", but the fabric has " << opt.switches << " switches (indices from 0)\n";
      std::exit(2);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "analyze") == 0) return run_analyze(argc, argv);
  const Options opt = parse(argc, argv);

  const std::size_t num_shards = resolve_shards(opt);
  check_switch_indices(opt);
  check_con_quorum(opt);

  shm::MembershipProtocol membership;
  try {
    membership = shm::parse_membership_protocol(opt.membership);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (membership == shm::MembershipProtocol::kSwim && opt.switches < 2) {
    std::cerr << "error: --membership swim needs at least 2 switches to gossip (got "
              << opt.switches << "); use --membership heartbeat for a single switch\n";
    return 2;
  }

  shm::FabricConfig cfg;
  cfg.num_switches = opt.switches;
  cfg.shards = num_shards;
  cfg.seed = opt.seed;
  cfg.link.loss_probability = opt.loss;
  cfg.link.propagation_delay = opt.link_delay;
  if (opt.dataplane_pps > 0) cfg.switch_config.dataplane_pps = opt.dataplane_pps;
  cfg.runtime.sync_period = opt.sync_period;
  cfg.runtime.heartbeat_period = 5 * kMs;
  cfg.controller.membership = membership;
  cfg.controller.heartbeat_timeout = opt.hb_timeout;
  cfg.controller.check_period = opt.check_period;
  if (opt.topology == "chain") cfg.topology = shm::FabricConfig::Topology::kChain;
  else if (opt.topology == "leafspine") cfg.topology = shm::FabricConfig::Topology::kLeafSpine;
  else if (opt.topology != "mesh") usage(argv[0]);
  cfg.spine_count = opt.spines;
  cfg.int_sample_every = opt.int_sample;
  cfg.int_hop_cap = opt.int_hop_cap;

  // Construction validates the controller timing (heartbeat_timeout must
  // exceed check_period, both positive); a bad combination is a usage error
  // with exit code 2, the same contract as every other impossible flag combo.
  std::optional<shm::Fabric> fabric_storage;
  try {
    fabric_storage.emplace(cfg);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  shm::Fabric& fabric = *fabric_storage;
  if (!opt.trace.empty()) fabric.enable_trace(opt.trace_mask);
  // Causal tracing + consistency-lag observatory. The observatory also runs
  // for --timeseries (the CSV picks up the lag.* series) and for --int-sample
  // (the health collector derives per-class SLO burn from the lag.class.*
  // histograms). Both helpers hit every shard (at one shard: exactly the
  // legacy direct enables).
  if (opt.span_sample > 0) fabric.enable_spans(opt.span_sample);
  if (opt.span_sample > 0 || !opt.timeseries.empty() || opt.int_sample > 0) {
    fabric.enable_observatory();
  }

  // Declare the NF's spaces (applying any --space class overrides) and factory.
  std::vector<std::string> declared_spaces;
  auto add_space = [&](shm::SpaceConfig space) {
    for (const auto& ov : opt.space_overrides) {
      if (space.name != ov.name) continue;
      space.cls = ov.cls;
      if (ov.kind) {
        space.kind = *ov.kind;
        // Sparse spaces are keyed directly by the ordered index; the dense
        // hashed-table layout flag no longer applies.
        if (*ov.kind == shm::SpaceKind::kSparse) space.table_backed = false;
      }
    }
    declared_spaces.push_back(space.name);
    fabric.add_space(space);
  };
  std::vector<shm::NfApp*> apps;
  std::function<std::unique_ptr<shm::NfApp>()> factory;
  pkt::Ipv4Addr server_ip{8, 8, 8, 8};
  if (opt.nf == "nat") {
    add_space(nf::NatApp::space());
    factory = [&] {
      auto a = std::make_unique<nf::NatApp>(nf::NatApp::Config{});
      apps.push_back(a.get());
      return std::unique_ptr<shm::NfApp>(std::move(a));
    };
  } else if (opt.nf == "firewall") {
    add_space(nf::FirewallApp::space());
    add_space(nf::FirewallApp::prefix_space());  // sparse LPM blocklist
    factory = [&] {
      auto a = std::make_unique<nf::FirewallApp>(nf::FirewallApp::Config{});
      apps.push_back(a.get());
      return std::unique_ptr<shm::NfApp>(std::move(a));
    };
  } else if (opt.nf == "lb") {
    add_space(nf::LoadBalancerApp::space());
    // Override both lb.* spaces to the same class to exercise the multi-key
    // transactional install (conn entry + DIP refcount in one write).
    add_space(nf::LoadBalancerApp::refcount_space(kBackends.size()));
    server_ip = pkt::Ipv4Addr(10, 200, 0, 1);
    factory = [&] {
      auto a = std::make_unique<nf::LoadBalancerApp>(
          nf::LoadBalancerApp::Config{pkt::Ipv4Addr(10, 200, 0, 1), kBackends, 65536});
      apps.push_back(a.get());
      return std::unique_ptr<shm::NfApp>(std::move(a));
    };
  } else if (opt.nf == "ips") {
    add_space(nf::IpsApp::space());
    factory = [&] {
      auto a = std::make_unique<nf::IpsApp>(nf::IpsApp::Config{});
      apps.push_back(a.get());
      return std::unique_ptr<shm::NfApp>(std::move(a));
    };
  } else if (opt.nf == "ddos") {
    add_space(nf::DdosDetectorApp::sketch_space());
    add_space(nf::DdosDetectorApp::total_space());
    factory = [&] {
      auto a = std::make_unique<nf::DdosDetectorApp>(nf::DdosDetectorApp::Config{});
      apps.push_back(a.get());
      return std::unique_ptr<shm::NfApp>(std::move(a));
    };
  } else if (opt.nf == "ratelimiter") {
    add_space(nf::RateLimiterApp::space());
    add_space(nf::RateLimiterApp::subnet_space());  // sparse LPM budgets
    factory = [&] {
      auto a = std::make_unique<nf::RateLimiterApp>(nf::RateLimiterApp::Config{});
      apps.push_back(a.get());
      return std::unique_ptr<shm::NfApp>(std::move(a));
    };
  } else if (opt.nf != "none") {
    usage(argv[0]);
  }
  for (const auto& ov : opt.space_overrides) {
    if (std::find(declared_spaces.begin(), declared_spaces.end(), ov.name) ==
        declared_spaces.end()) {
      std::cerr << "warning: --space " << ov.name << " matches no declared space\n";
    }
  }
  try {
    fabric.install(factory);
    fabric.start();
  } catch (const std::invalid_argument& e) {
    // An unsupported space configuration (e.g. a sparse G-counter space) is
    // a usage error, not a crash.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::unique_ptr<pkt::PcapWriter> pcap;
  if (!opt.pcap.empty()) {
    pcap = std::make_unique<pkt::PcapWriter>(opt.pcap);
    fabric.network().set_tap(
        [&pcap](NodeId, NodeId, const pkt::Packet& p, TimeNs t) { pcap->write(t, p); });
  }

  // One MeasuringSink per shard: delivery sinks run on the switch's shard, so
  // each shard accumulates into its own sink and the report merges them (at
  // one shard this is exactly the legacy single sink).
  sim::ShardSet& shard_set = fabric.shard_set();
  std::vector<std::unique_ptr<workload::MeasuringSink>> sinks;
  for (std::size_t k = 0; k < shard_set.count(); ++k) {
    sinks.push_back(std::make_unique<workload::MeasuringSink>(shard_set.sim(k)));
  }
  workload::TrafficConfig traffic;
  traffic.flows_per_sec = opt.flows_per_sec;
  traffic.mean_packets_per_flow = opt.packets_per_flow;
  traffic.reroute_probability = opt.reroute;
  traffic.server_ip = server_ip;
  traffic.seed = opt.seed + 1;
  workload::TrafficGenerator gen(fabric, traffic);
  // Liveness for ingress steering in sharded runs: a pure function of the
  // kill/revive schedule and shard 0's clock — the generators must not read
  // another shard's alive flags.
  std::function<bool(std::size_t)> oracle;
  if (shard_set.count() > 1) {
    oracle = [kills = opt.kills, revives = opt.revives, &fabric](std::size_t i) {
      const TimeNs now = fabric.simulator().now();
      TimeNs killed = -1;
      TimeNs revived = -1;
      for (const auto& [idx, at] : kills) {
        if (idx == i && at <= now) killed = std::max(killed, at);
      }
      for (const auto& [idx, at] : revives) {
        if (idx == i && at <= now) revived = std::max(revived, at);
      }
      return killed < 0 || revived >= killed;
    };
  }
  if (shard_set.count() == 1) {
    workload::MeasuringSink& sink = *sinks[0];
    fabric.set_delivery_sink([&sink, &gen](const pkt::Packet& p) {
      sink.observe(p);
      auto parsed = p.parse();
      if (!parsed) return;
      if (auto stamp = workload::Stamp::decode(p.l4_payload(*parsed))) {
        gen.notify_delivered(*stamp);
      }
    });
  } else {
    // Sharded: observe locally; the generator lives on shard 0, so SYN-gate
    // notifications from other shards hop home through the inbox lanes.
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      const std::size_t sh = fabric.shard_of_switch(i);
      workload::MeasuringSink* sink = sinks[sh].get();
      fabric.sw(i).set_delivery_sink([sink, sh, &shard_set, &gen](const pkt::Packet& p) {
        sink->observe(p);
        auto parsed = p.parse();
        if (!parsed) return;
        if (auto stamp = workload::Stamp::decode(p.l4_payload(*parsed))) {
          if (sh == 0) {
            gen.notify_delivered(*stamp);
          } else {
            shard_set.post_at_shard(0, shard_set.sim(sh).now() + shard_set.lookahead(),
                                    [&gen, st = *stamp]() { gen.notify_delivered(st); });
          }
        }
      });
    }
    gen.set_liveness_oracle(oracle);
  }
  gen.start(opt.duration);

  std::unique_ptr<workload::AttackGenerator> attacker;
  if (opt.attack) {
    workload::AttackConfig acfg;
    acfg.packets_per_sec = static_cast<double>((*opt.attack)[0]);
    acfg.start = static_cast<TimeNs>((*opt.attack)[1]) * kMs;
    acfg.duration = static_cast<TimeNs>((*opt.attack)[2]) * kMs;
    attacker = std::make_unique<workload::AttackGenerator>(fabric, acfg);
    if (oracle) attacker->set_liveness_oracle(oracle);
    attacker->start();
  }

  // Fail/revive on the owning shards (at one shard: the same schedule_at
  // calls, in the same order, on the same simulator as the legacy inline
  // lambdas — byte-identical event numbering).
  for (const auto& [idx, at] : opt.kills) fabric.schedule_kill(idx, at);
  for (const auto& [idx, at] : opt.revives) fabric.schedule_revive(idx, at);

  telemetry::TimeSeriesSampler sampler;
  sim::TimerHandle sampler_timer;
  if (!opt.timeseries.empty()) {
    sampler_timer = fabric.simulator().schedule_periodic(opt.timeseries_period, [&]() {
      sampler.sample(fabric.simulator().now(), fabric.simulator().metrics());
    });
  }

  fabric.run_for(opt.duration + 500 * kMs);  // traffic + settling

  // One gather of every shard's record log feeds the health collector,
  // --drops-json and --trace.
  const bool health_on = opt.int_sample > 0 || !opt.health_json.empty();
  const telemetry::Records records = health_on || !opt.drops_json.empty() || !opt.trace.empty()
                                         ? fabric.all_records()
                                         : telemetry::Records{};

  // Fleet-health collector: the canonical INT sink reports, drop forensics,
  // and the observatory's per-class lag histograms, published into shard 0's
  // registry BEFORE the single snapshot below so --metrics-json carries the
  // health.* subtree too.
  std::unique_ptr<telemetry::HealthCollector> health;
  if (health_on) {
    health = std::make_unique<telemetry::HealthCollector>();
    health->ingest_reports(records.int_reports);
    health->ingest_drops(records.drops, records.drop_counts);
    health->ingest_lag(fabric.metrics_snapshot());
    health->finalize();
    health->publish(fabric.simulator().metrics());
  }

  // One snapshot feeds the exit tables and --metrics-json, so the report and
  // the exported file can never disagree. Sharded runs merge per-shard
  // registries deterministically; one shard is exactly the legacy snapshot.
  const telemetry::MetricsSnapshot snap = fabric.metrics_snapshot();

  std::uint64_t delivered_total = 0;
  Histogram delivery_latency;
  for (const auto& s : sinks) {
    delivered_total += s->delivered();
    delivery_latency.merge(s->latency());
  }

  // An output given as "-" owns stdout: the human report moves to stderr so
  // piped consumers parse pure JSON.
  std::ostream& rep = opt.json_to_stdout ? std::cerr : std::cout;

  // ---- Report ---------------------------------------------------------------
  rep << "scenario: nf=" << opt.nf << " switches=" << opt.switches << " topology="
            << opt.topology << " loss=" << opt.loss << " duration=" << opt.duration / 1000000
            << "ms\n\n";
  rep << "workload: " << gen.stats().flows_started << " flows, "
            << gen.stats().packets_sent << " packets, " << gen.stats().reroutes
            << " reroutes\n";
  rep << "delivered: " << delivered_total << " packets, p50 latency "
            << delivery_latency.p50() / 1000.0 << " us, p99 " << delivery_latency.p99() / 1000.0
            << " us\n";
  if (attacker) rep << "attack packets: " << attacker->stats().packets_sent << "\n";
  if (shard_set.count() > 1) {
    rep << "shards: " << shard_set.count() << ", lookahead " << shard_set.lookahead()
        << " ns, " << shard_set.windows() << " sync windows, " << shard_set.cross_events()
        << " cross-shard events\n";
  }

  // Per-protocol membership summary: the controller's detection/repair
  // histograms plus the protocol's own traffic counters, all read from the
  // same snapshot the JSON export uses.
  {
    std::uint64_t failures = 0;
    Histogram detection;
    Histogram repair;
    std::map<std::string, std::uint64_t> swim;  // membership.sw<N>.<metric>, summed over N
    std::uint64_t control_bytes = 0;
    const std::string ctl_suffix = ".bytes_control";
    for (const auto& [name, value] : snap.values) {
      if (name == "membership.failures_detected") {
        failures = value.count;
      } else if (name == "failover.detection_ns") {
        detection = value.hist;
      } else if (name == "failover.repair_ns") {
        repair = value.hist;
      } else if (name.rfind("membership.sw", 0) == 0) {
        const auto dot = name.find('.', std::strlen("membership.sw"));
        if (dot != std::string::npos) swim[name.substr(dot + 1)] += value.count;
      } else if (name.rfind("shm.sw", 0) == 0 && name.size() > ctl_suffix.size() &&
                 name.compare(name.size() - ctl_suffix.size(), ctl_suffix.size(), ctl_suffix) ==
                     0) {
        control_bytes += value.count;
      }
    }
    rep << "membership: protocol=" << shm::to_string(membership) << ", failures detected "
        << failures;
    if (failures > 0) {
      rep << ", detection p50/p99 " << format_double(detection.p50() / 1e6, 2) << "/"
          << format_double(detection.p99() / 1e6, 2) << " ms, repair p50/p99 "
          << format_double(repair.p50() / 1e6, 2) << "/"
          << format_double(repair.p99() / 1e6, 2) << " ms";
    }
    rep << ", control bytes " << control_bytes << "\n";
    if (membership == shm::MembershipProtocol::kSwim) {
      rep << "swim: pings " << swim["pings_sent"] << ", acks " << swim["acks_sent"]
          << ", ping-reqs " << swim["ping_reqs_sent"] << ", suspicions " << swim["suspicions"]
          << ", refutations " << swim["refutations"] << ", faults declared "
          << swim["faults_declared"] << ", updates " << swim["updates_sent"] << "\n";
    }
  }
  if (health) {
    rep << "health: " << health->int_reports() << " INT reports ("
        << health->int_truncated() << " truncated), " << health->drops_total()
        << " drops mirrored (" << health->drops_attributed() << " attributed), "
        << health->anomalies().size() << " anomalies\n";
  }
  rep << "\n";

  if (!opt.quiet) {
    // Per-switch rows come from the same snapshot. The strong-class columns
    // sum whichever of the sro/ero/con engines the switch runs (a space's
    // class can be overridden with --space), so absent cells count as zero.
    auto cell = [&snap](const std::string& name) -> const telemetry::MetricValue* {
      auto it = snap.values.find(name);
      return it == snap.values.end() ? nullptr : &it->second;
    };
    auto count = [&cell](const std::string& name) -> std::uint64_t {
      const telemetry::MetricValue* v = cell(name);
      return v == nullptr ? 0 : v->count;
    };
    TextTable table("per-switch protocol activity");
    table.header({"switch", "alive", "processed", "writes committed", "write p99 (us)",
                  "reads local", "reads redirected", "EWO updates rx", "CP backlog drops"});
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      const std::string p = "shm.sw" + std::to_string(fabric.sw(i).id()) + ".";
      std::uint64_t committed = 0;
      std::uint64_t reads_local = 0;
      std::uint64_t reads_redirected = 0;
      for (const char* cls : {"sro.", "ero.", "con."}) {
        committed += count(p + cls + "writes_committed");
        reads_local += count(p + cls + "reads_local");
        reads_redirected += count(p + cls + "reads_redirected");
      }
      Histogram write_latency;
      for (const char* h :
           {"sro.write_latency_ns", "ero.write_latency_ns", "con.commit_latency_ns"}) {
        if (const telemetry::MetricValue* v = cell(p + h)) write_latency.merge(v->hist);
      }
      table.row({std::to_string(i), fabric.sw(i).alive() ? "yes" : "no",
                 std::to_string(fabric.sw(i).stats().processed), std::to_string(committed),
                 format_double(write_latency.p99() / 1000.0, 1), std::to_string(reads_local),
                 std::to_string(reads_redirected),
                 std::to_string(count(p + "ewo.updates_received")),
                 std::to_string(fabric.sw(i).control_plane().stats().dropped)});
    }
    table.print(rep);

    // Per-engine protocol counters, aggregated across the fabric straight
    // from the metrics registry (names shm.sw<N>.<engine>.<metric>). Counter
    // rows are sums; histogram rows report fabric-wide merged percentiles.
    struct EngineAgg {
      std::map<std::string, std::uint64_t> counters;
      std::map<std::string, Histogram> hists;
    };
    std::map<std::string, EngineAgg> engines;
    for (const auto& [name, value] : snap.values) {
      if (name.rfind("shm.sw", 0) != 0) continue;
      const auto d1 = name.find('.', 6);
      const auto d2 = d1 == std::string::npos ? std::string::npos : name.find('.', d1 + 1);
      if (d2 == std::string::npos) continue;  // runtime-level counter, no engine segment
      const std::string engine = name.substr(d1 + 1, d2 - d1 - 1);
      if (engine != "sro" && engine != "ero" && engine != "ewo" && engine != "own" &&
          engine != "con") {
        continue;
      }
      const std::string metric = name.substr(d2 + 1);
      EngineAgg& agg = engines[engine];
      if (value.kind == telemetry::MetricKind::kHistogram) {
        agg.hists[metric].merge(value.hist);
      } else {
        agg.counters[metric] += value.count;
      }
    }
    if (!engines.empty()) {
      rep << "\n";
      TextTable engine_table("per-engine protocol counters (fabric-wide)");
      engine_table.header({"engine", "counter", "value"});
      for (const auto& [name, agg] : engines) {
        for (const auto& [metric, total] : agg.counters) {
          engine_table.row({name, metric, std::to_string(total)});
        }
        for (const auto& [metric, hist] : agg.hists) {
          engine_table.row({name, metric + " (p50)", std::to_string(hist.p50())});
          engine_table.row({name, metric + " (p99)", std::to_string(hist.p99())});
        }
      }
      engine_table.print(rep);
    }

    const auto net_stats = fabric.network().total_stats();
    rep << "\nfabric links: " << net_stats.packets_sent << " packets, "
              << net_stats.bytes_sent << " bytes, " << net_stats.packets_dropped_loss
              << " lost, " << net_stats.packets_dropped_queue << " queue-dropped, "
              << net_stats.packets_dropped_dead << " dead-dropped\n";

    if (health) {
      rep << "\n";
      health->print_report(rep);
    }

    if (opt.span_sample > 0) {
      const std::vector<telemetry::Span> spans = fabric.all_spans();
      std::uint64_t roots = 0;
      std::uint64_t dropped = 0;
      for (std::size_t k = 0; k < shard_set.count(); ++k) {
        roots += shard_set.sim(k).spans().root_decisions();
        dropped += shard_set.sim(k).spans().dropped();
      }
      rep << "\ncausal tracing: " << spans.size() << " spans, 1-in-"
                << opt.span_sample << " sampling over " << roots
                << " roots, " << dropped << " dropped\n\n";
      telemetry::print_trace_summaries(
          rep, telemetry::top_slowest(telemetry::stitch_traces(spans), opt.top_slowest));
    }
  }
  if (pcap) {
    pcap->flush();
    rep << "pcap: wrote " << pcap->packets_written() << " packets to " << opt.pcap << "\n";
  }
  if (!opt.perfetto.empty()) {
    std::ofstream out(opt.perfetto);
    if (!out) {
      std::cerr << "error: cannot open " << opt.perfetto << " for writing\n";
      return 1;
    }
    std::map<NodeId, std::string> node_names;
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      node_names[fabric.sw(i).id()] = "sw" + std::to_string(i);
    }
    const std::vector<telemetry::Span> spans = fabric.all_spans();
    if (health) {
      // Queue-depth counter tracks from the INT hop records ride in the same
      // file; analyze's span parser skips them.
      telemetry::write_perfetto(out, spans, health->counter_samples(), node_names);
    } else {
      telemetry::write_perfetto(out, spans, node_names);
    }
    rep << "perfetto: wrote " << spans.size() << " spans to " << opt.perfetto << "\n";
  }
  if (!opt.timeseries.empty()) {
    std::ofstream out(opt.timeseries);
    if (!out) {
      std::cerr << "error: cannot open " << opt.timeseries << " for writing\n";
      return 1;
    }
    sampler.write_csv(out);
    rep << "timeseries: wrote " << sampler.size() << " samples to " << opt.timeseries
              << "\n";
  }
  if (!opt.health_json.empty()) {
    if (opt.health_json == "-") {
      std::cout << health->to_json();
    } else {
      std::ofstream out(opt.health_json);
      if (!out) {
        std::cerr << "error: cannot open " << opt.health_json << " for writing\n";
        return 1;
      }
      out << health->to_json();
      rep << "health: wrote scorecard (" << health->anomalies().size() << " anomalies) to "
          << opt.health_json << "\n";
    }
  }
  if (!opt.drops_json.empty()) {
    if (opt.drops_json == "-") {
      telemetry::write_drop_forensics(std::cout, records.drops);
    } else {
      std::ofstream out(opt.drops_json);
      if (!out) {
        std::cerr << "error: cannot open " << opt.drops_json << " for writing\n";
        return 1;
      }
      telemetry::write_drop_forensics(out, records.drops);
      rep << "drops: wrote " << records.drops.size() << " forensic records to " << opt.drops_json
          << "\n";
    }
  }
  if (!opt.metrics_json.empty()) {
    if (opt.metrics_json == "-") {
      std::cout << snap.to_json();
    } else {
      std::ofstream out(opt.metrics_json);
      if (!out) {
        std::cerr << "error: cannot open " << opt.metrics_json << " for writing\n";
        return 1;
      }
      out << snap.to_json();
      rep << "metrics: wrote " << snap.values.size() << " metrics to "
                << opt.metrics_json << "\n";
    }
  }
  if (!opt.trace.empty()) {
    std::ofstream out(opt.trace);
    if (!out) {
      std::cerr << "error: cannot open " << opt.trace << " for writing\n";
      return 1;
    }
    telemetry::write_trace(out, records.events);
    rep << "trace: wrote " << records.events.size() << " events (" << records.events_recorded
        << " recorded, mask " << telemetry::trace_mask_to_string(opt.trace_mask) << ") to "
        << opt.trace << "\n";
  }
  return 0;
}
