// In-band network telemetry (INT) tests: the INT-MD wire codec (trailer
// round-trip, hop-cap truncation), mirror-on-drop forensics (every network
// loss carries a typed reason attributed to an exact switch, including under
// a kill schedule), INT sink reports (per-hop path extraction), the record
// log's trace view (drop lines match the tallies; sharded dumps are
// deterministic), and the fleet-health collector (SLO burn math, anomaly
// detectors on synthetic series, JSON round-trip, and byte-identical output
// across --shards {1, 2, 4} under loss).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "packet/int_md.hpp"
#include "packet/packet.hpp"
#include "swishmem/fabric.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/records.hpp"

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

namespace swish::pkt {
namespace {

Packet udp_packet() {
  PacketSpec spec;
  spec.ip_src = Ipv4Addr(1, 2, 3, 4);
  spec.ip_dst = Ipv4Addr(9, 9, 9, 9);
  spec.protocol = kProtoUdp;
  spec.src_port = 5;
  spec.dst_port = 7;
  spec.payload = {1, 2, 3, 4, 5};
  return build_packet(spec);
}

telemetry::IntHop hop(std::uint32_t sw, TimeNs in, TimeNs out, std::uint32_t depth,
                      std::uint32_t rule) {
  telemetry::IntHop h;
  h.switch_id = sw;
  h.ingress_ts = in;
  h.egress_ts = out;
  h.queue_depth = depth;
  h.rule_hit = rule;
  return h;
}

TEST(IntWire, TrailerRoundTrip) {
  const Packet orig = udp_packet();
  EXPECT_FALSE(has_int_trailer(orig));
  EXPECT_EQ(int_trailer_size(orig), 0u);

  Packet p = with_int_trailer(orig, /*hop_cap=*/8);
  EXPECT_TRUE(has_int_trailer(p));
  EXPECT_EQ(p.size(), orig.size() + kIntTrailerBytes);
  // The trailer rides outside L3/L4 lengths: the packet still parses and the
  // headers are untouched.
  ASSERT_TRUE(p.parse().has_value());

  p = push_int_hop(p, hop(1, 100, 140, 3, 2));
  p = push_int_hop(p, hop(2, 1150, 1190, 0, 3));
  p = push_int_hop(p, hop(7, 2200, 2240, 12, 1));
  EXPECT_EQ(int_trailer_size(p), kIntTrailerBytes + 3 * kIntHopBytes);

  const auto stack = read_int_stack(p);
  ASSERT_TRUE(stack.has_value());
  EXPECT_EQ(stack->hop_cap, 8u);
  EXPECT_FALSE(stack->truncated);
  ASSERT_EQ(stack->hops.size(), 3u);
  EXPECT_EQ(stack->hops[0].switch_id, 1u);  // oldest hop first
  EXPECT_EQ(stack->hops[0].ingress_ts, 100);
  EXPECT_EQ(stack->hops[0].egress_ts, 140);
  EXPECT_EQ(stack->hops[0].queue_depth, 3u);
  EXPECT_EQ(stack->hops[0].rule_hit, 2u);
  EXPECT_EQ(stack->hops[2].switch_id, 7u);
  EXPECT_EQ(stack->hops[2].ingress_ts, 2200);

  const Packet stripped = strip_int_trailer(p);
  EXPECT_EQ(stripped.bytes(), orig.bytes());  // byte-exact restoration
}

TEST(IntWire, HopCapSetsTruncationBitInsteadOfGrowing) {
  Packet p = with_int_trailer(udp_packet(), /*hop_cap=*/2);
  bool truncated = false;
  p = push_int_hop(p, hop(1, 10, 20, 0, 1), &truncated);
  EXPECT_FALSE(truncated);
  p = push_int_hop(p, hop(2, 30, 40, 0, 1), &truncated);
  EXPECT_FALSE(truncated);
  const std::size_t full_size = p.size();

  p = push_int_hop(p, hop(3, 50, 60, 0, 1), &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(p.size(), full_size);  // no growth past the cap

  const auto stack = read_int_stack(p);
  ASSERT_TRUE(stack.has_value());
  EXPECT_TRUE(stack->truncated);
  ASSERT_EQ(stack->hops.size(), 2u);  // the first two hops survive
  EXPECT_EQ(stack->hops[0].switch_id, 1u);
  EXPECT_EQ(stack->hops[1].switch_id, 2u);
}

TEST(IntWire, PlainPacketsNeverMisdetect) {
  EXPECT_FALSE(has_int_trailer(udp_packet()));
  EXPECT_FALSE(read_int_stack(udp_packet()).has_value());
  // A runt buffer can't hold ethernet + trailer.
  EXPECT_FALSE(has_int_trailer(Packet(std::vector<std::uint8_t>(10, 0x54))));
}

}  // namespace
}  // namespace swish::pkt

// ---------------------------------------------------------------------------
// Mirror-on-drop + INT sink reports, full-fabric
// ---------------------------------------------------------------------------

namespace swish::shm {
namespace {

constexpr std::uint32_t kReg = 80;

SpaceConfig sro_space() {
  SpaceConfig sp;
  sp.id = kReg;
  sp.name = "t.reg";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 32;
  return sp;
}

struct IntRig {
  Fabric fabric;

  explicit IntRig(std::size_t shards = 1, double loss = 0.0, std::uint64_t sample = 2,
                  std::uint64_t seed = 11, bool observatory = false)
      : fabric(config(shards, loss, sample, seed)) {
    if (observatory) fabric.enable_observatory();
    fabric.add_space(sro_space());
    fabric.install([] { return std::unique_ptr<NfApp>(); });
    fabric.start();
  }

  static FabricConfig config(std::size_t shards, double loss, std::uint64_t sample,
                             std::uint64_t seed) {
    FabricConfig cfg;
    cfg.num_switches = 4;
    cfg.shards = shards;
    cfg.seed = seed;
    cfg.link.loss_probability = loss;
    cfg.switch_config.int_sample_every = sample;
    cfg.switch_config.int_hop_cap = 8;
    return cfg;
  }

  /// Shard-local write driving (same discipline as test_sharded_sim.cpp):
  /// timings are a pure function of each switch's own clock.
  void drive_writes(int rounds = 6) {
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      Fabric* f = &fabric;
      for (int w = 0; w < rounds; ++w) {
        const TimeNs at = 1 * kMs + w * 5 * kMs + static_cast<TimeNs>(i) * 250 * kUs;
        fabric.simulator_for(i).schedule_at(at, [f, i, w]() {
          pkt::PacketSpec spec;
          spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
          spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
          spec.src_port = 5;
          spec.dst_port = 1;
          spec.payload = {0};
          f->runtime(i).write({{kReg, i, 100 * i + static_cast<std::uint64_t>(w)}},
                              pkt::build_packet(spec), [](pkt::Packet&&) {});
        });
      }
    }
    fabric.run_for(300 * kMs);
  }

  std::map<telemetry::DropReason, std::uint64_t> fleet_drops() {
    std::map<telemetry::DropReason, std::uint64_t> out;
    for (const auto& [node, counts] : fabric.all_records().drop_counts) {
      for (std::size_t r = 0; r < telemetry::kNumDropReasons; ++r) {
        if (counts[r] != 0) out[static_cast<telemetry::DropReason>(r)] += counts[r];
      }
    }
    return out;
  }
};

TEST(MirrorOnDrop, EveryNetworkLossHasTypedReasonAndLocation) {
  IntRig rig(/*shards=*/1, /*loss=*/0.05);
  rig.drive_writes();

  const auto net = rig.fabric.network().total_stats();
  ASSERT_GT(net.packets_dropped_loss, 0u) << "scenario produced no loss to attribute";

  // 100% attribution: the per-reason tallies reconcile exactly with the link
  // counters, so no drop site is silent.
  auto drops = rig.fleet_drops();
  EXPECT_EQ(drops[telemetry::DropReason::kLinkLoss], net.packets_dropped_loss);
  EXPECT_EQ(drops[telemetry::DropReason::kLinkQueueOverflow], net.packets_dropped_queue);
  EXPECT_EQ(drops[telemetry::DropReason::kDeadNode], net.packets_dropped_dead);

  // Every retained record names a switch and a reason inside the enum, and
  // per-node seqs are dense recording order.
  std::map<NodeId, std::uint64_t> last_seq;
  for (const auto& rec : rig.fabric.all_records().drops) {
    EXPECT_NE(rec.node, kInvalidNode);
    EXPECT_LT(static_cast<std::size_t>(rec.reason), telemetry::kNumDropReasons);
    EXPECT_EQ(rec.seq, last_seq[rec.node] + 1) << "node " << rec.node;
    last_seq[rec.node] = rec.seq;
  }
}

TEST(MirrorOnDrop, KillScheduleAttributesDeadNodeBlackholes) {
  IntRig rig;
  rig.fabric.schedule_kill(1, 20 * kMs);  // switch id 2 goes dark mid-run
  rig.drive_writes();

  const auto net = rig.fabric.network().total_stats();
  ASSERT_GT(net.packets_dropped_dead, 0u);

  const auto counts = rig.fabric.all_records().drop_counts;
  const auto it = counts.find(rig.fabric.switch_ids().at(1));
  ASSERT_NE(it, counts.end());
  const std::uint64_t at_dead_switch =
      it->second[static_cast<std::size_t>(telemetry::DropReason::kDeadNode)];
  EXPECT_EQ(at_dead_switch, net.packets_dropped_dead)
      << "every blackholed packet is attributed to the dead switch";
}

TEST(IntSink, ReportsCarryTheFullPerHopPath) {
  IntRig rig;
  rig.drive_writes();

  const auto reports = rig.fabric.all_records().int_reports;
  ASSERT_FALSE(reports.empty());
  for (const auto& rep : reports) {
    ASSERT_FALSE(rep.hops.empty());
    // The sink switch appends itself as the final decoded hop.
    EXPECT_EQ(rep.hops.back().switch_id, rep.node);
    EXPECT_GT(rep.packet_bytes, 0u);
    if (!rep.truncated) {
      EXPECT_LE(rep.hops.size(), static_cast<std::size_t>(rep.hop_cap) + 1);
    }
    for (std::size_t i = 0; i + 1 < rep.hops.size(); ++i) {
      EXPECT_LE(rep.hops[i].ingress_ts, rep.hops[i].egress_ts);
      EXPECT_LE(rep.hops[i].egress_ts, rep.hops[i + 1].ingress_ts)
          << "hop timestamps must be causally ordered along the path";
    }
  }
}

TEST(IntSink, UnsampledRunRecordsNothing) {
  IntRig rig(/*shards=*/1, /*loss=*/0.0, /*sample=*/0);
  rig.drive_writes();
  EXPECT_TRUE(rig.fabric.all_records().int_reports.empty());
}

// ---------------------------------------------------------------------------
// The record log's trace view, full-fabric
// ---------------------------------------------------------------------------

TEST(RecordLog, DropTraceMatchesTallies) {
  // Every drop, protocol-level ones included, emits its own `drop` trace event
  // named by its reason, so the trace's per-(node, reason) counts equal the
  // exact tallies at every shard count.
  for (std::size_t shards : {1, 2}) {
    IntRig rig(shards, /*loss=*/0.3, /*sample=*/0);
    rig.fabric.enable_trace(telemetry::kTraceDrop);
    rig.drive_writes();
    const telemetry::Records records = rig.fabric.all_records();
    ASSERT_EQ(records.events_recorded, records.events.size()) << "nothing may be evicted";

    std::map<std::pair<NodeId, std::string>, std::uint64_t> traced;
    std::map<std::pair<NodeId, std::string>, std::uint64_t> tallied;
    for (const telemetry::TraceEvent& ev : records.events) {
      EXPECT_EQ(ev.category, telemetry::kTraceDrop);
      ++traced[{ev.node, ev.what}];
    }
    for (const auto& [node, tally] : records.drop_counts) {
      for (std::size_t r = 0; r < telemetry::kNumDropReasons; ++r) {
        const char* reason = telemetry::to_string(static_cast<telemetry::DropReason>(r));
        if (tally[r] != 0) tallied[{node, reason}] = tally[r];
      }
    }
    EXPECT_EQ(traced, tallied) << shards << " shard(s)";
    EXPECT_TRUE(std::ranges::any_of(tallied, [](const auto& cell) {
      return cell.first.second == "write_retries_exhausted";
    })) << "the run must drop at the protocol level, not only on links";
  }
}

TEST(RecordLog, ShardedTraceDumpIsDeterministic) {
  // Tracing a sharded run gathers every shard's per-node logs into one
  // canonical (time, node, seq) stream; two same-seed runs dump identical
  // text.
  const auto dump = [](std::size_t shards) {
    IntRig rig(shards, /*loss=*/0.05);
    rig.fabric.enable_trace(telemetry::kTraceAll);
    rig.fabric.schedule_kill(1, 20 * kMs);
    rig.drive_writes();
    const telemetry::Records records = rig.fabric.all_records();
    std::set<NodeId> nodes;
    for (const telemetry::TraceEvent& ev : records.events) nodes.insert(ev.node);
    for (SwitchId id : rig.fabric.switch_ids()) EXPECT_TRUE(nodes.count(id)) << "switch " << id;
    EXPECT_TRUE(std::ranges::is_sorted(records.events, {}, [](const telemetry::TraceEvent& e) {
      return std::tuple{e.time, e.node, e.seq};
    }));
    std::ostringstream os;
    telemetry::write_trace(os, records.events);
    return os.str();
  };
  for (std::size_t shards : {2, 4}) {
    const std::string first = dump(shards);
    EXPECT_NE(first.find("switch_failed"), std::string::npos);
    EXPECT_EQ(dump(shards), first) << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// Fleet-health collector
// ---------------------------------------------------------------------------

telemetry::IntHop mk_hop(std::uint32_t sw, TimeNs in, TimeNs out, std::uint32_t depth) {
  telemetry::IntHop h;
  h.switch_id = sw;
  h.ingress_ts = in;
  h.egress_ts = out;
  h.queue_depth = depth;
  return h;
}

telemetry::IntSinkReport mk_report(TimeNs t, std::vector<telemetry::IntHop> hops) {
  telemetry::IntSinkReport r;
  r.time = t;
  r.node = hops.back().switch_id;
  r.hop_cap = 8;
  r.packet_bytes = 100;
  r.hops = std::move(hops);
  return r;
}

TEST(HealthCollector, SloBurnFractionMatchesSampleSplit) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.add(1000);
  for (int i = 0; i < 10; ++i) h.add(1'000'000);
  EXPECT_NEAR(telemetry::slo_burn_fraction(h, 500'000), 0.10, 0.02);
  EXPECT_DOUBLE_EQ(telemetry::slo_burn_fraction(h, 2'000'000), 0.0);
  EXPECT_DOUBLE_EQ(telemetry::slo_burn_fraction(h, 10), 1.0);
  EXPECT_DOUBLE_EQ(telemetry::slo_burn_fraction(Histogram{}, 10), 0.0);
}

TEST(HealthCollector, QueueHotspotFlaggedQuietSwitchNot) {
  telemetry::HealthCollector coll;
  std::vector<telemetry::IntSinkReport> reports;
  for (int i = 0; i < 32; ++i) {
    const TimeNs t = i * 1 * kMs;
    // Switch 1: flat queue. Switch 2: sustained growth into the hundreds.
    const std::uint32_t hot = i < 16 ? 1 : 100 + static_cast<std::uint32_t>(i) * 10;
    reports.push_back(mk_report(t + 2000, {mk_hop(1, t, t + 40, 1), mk_hop(2, t + 1000, t + 1040, hot)}));
  }
  coll.ingest_reports(reports);
  coll.ingest_drops({}, {});
  coll.finalize();

  ASSERT_EQ(coll.anomalies().size(), 1u);
  const auto& f = coll.anomalies()[0];
  EXPECT_EQ(f.kind, telemetry::AnomalyFlag::Kind::kQueueGrowth);
  EXPECT_EQ(f.a, 2u);
  EXPECT_GT(f.severity, 4.0);
}

TEST(HealthCollector, DropSpikeAgainstWholeRunBaseline) {
  telemetry::HealthCollector coll;
  // Observation range pinned by sink reports over 400ms; all 64 of switch
  // 3's drops land in one 10ms window.
  std::vector<telemetry::IntSinkReport> reports;
  reports.push_back(mk_report(0, {mk_hop(1, 0, 40, 0)}));
  reports.push_back(mk_report(400 * kMs, {mk_hop(1, 400 * kMs, 400 * kMs + 40, 0)}));
  std::vector<telemetry::DropRecord> records;
  std::map<NodeId, telemetry::DropTally> counts;
  for (int i = 0; i < 64; ++i) {
    telemetry::DropRecord rec;
    rec.time = 200 * kMs + i * 10 * kUs;
    rec.node = 3;
    rec.reason = telemetry::DropReason::kLinkQueueOverflow;
    rec.seq = static_cast<std::uint64_t>(i) + 1;
    records.push_back(rec);
  }
  counts[3][static_cast<std::size_t>(telemetry::DropReason::kLinkQueueOverflow)] = 64;
  coll.ingest_reports(reports);
  coll.ingest_drops(records, counts);
  coll.finalize();

  ASSERT_EQ(coll.anomalies().size(), 1u);
  EXPECT_EQ(coll.anomalies()[0].kind, telemetry::AnomalyFlag::Kind::kDropSpike);
  EXPECT_EQ(coll.anomalies()[0].a, 3u);
  EXPECT_EQ(coll.drops_total(), 64u);
  EXPECT_EQ(coll.drops_attributed(), 64u);
}

TEST(HealthCollector, AsymmetricLinkLatencyFlagged) {
  telemetry::HealthCollector coll;
  std::vector<telemetry::IntSinkReport> reports;
  for (int i = 0; i < 20; ++i) {
    const TimeNs t = i * 1 * kMs;
    // 1 -> 2 takes 1us; 2 -> 1 takes 50us. Links 1<->3 are symmetric.
    reports.push_back(mk_report(t + 9000, {mk_hop(1, t, t + 40, 0), mk_hop(2, t + 1040, t + 1080, 0)}));
    reports.push_back(
        mk_report(t + 9001, {mk_hop(2, t, t + 40, 0), mk_hop(1, t + 50040, t + 50080, 0)}));
    reports.push_back(mk_report(t + 9002, {mk_hop(1, t, t + 40, 0), mk_hop(3, t + 1040, t + 1080, 0)}));
    reports.push_back(mk_report(t + 9003, {mk_hop(3, t, t + 40, 0), mk_hop(1, t + 1040, t + 1080, 0)}));
  }
  coll.ingest_reports(reports);
  coll.ingest_drops({}, {});
  coll.finalize();

  ASSERT_EQ(coll.anomalies().size(), 1u);
  const auto& f = coll.anomalies()[0];
  EXPECT_EQ(f.kind, telemetry::AnomalyFlag::Kind::kAsymLink);
  EXPECT_EQ(f.a, 1u);
  EXPECT_EQ(f.b, 2u);
  EXPECT_GT(f.severity, 10.0);
}

TEST(HealthCollector, PublishesHealthSubtreeAndJsonRoundTrips) {
  IntRig rig(/*shards=*/1, /*loss=*/0.05, /*sample=*/2, /*seed=*/11, /*observatory=*/true);
  rig.drive_writes();

  telemetry::HealthCollector coll;
  const telemetry::Records records = rig.fabric.all_records();
  coll.ingest_reports(records.int_reports);
  coll.ingest_drops(records.drops, records.drop_counts);
  coll.ingest_lag(rig.fabric.metrics_snapshot());
  coll.finalize();
  ASSERT_GT(coll.int_reports(), 0u);
  ASSERT_GT(coll.drops_total(), 0u);
  ASSERT_FALSE(coll.slo_burns().empty()) << "observatory lag should feed SLO burn";

  telemetry::MetricsRegistry reg;
  coll.publish(reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.values.at("health.int.reports").count, coll.int_reports());
  EXPECT_EQ(snap.values.at("health.drop.total").count, coll.drops_total());
  EXPECT_EQ(snap.values.at("health.drop.attributed").count, coll.drops_total());
  EXPECT_GT(snap.values.at("health.drop.reason.link_loss").count, 0u);
  EXPECT_TRUE(snap.values.count("health.slo.SRO.burn"));

  // JSON -> analyze-path renderer round-trip: parses and reproduces the key
  // totals of the direct report.
  const std::string json = coll.to_json();
  std::ostringstream direct;
  coll.print_report(direct);
  std::istringstream in(json);
  std::ostringstream parsed;
  telemetry::print_health_report(parsed, in);
  EXPECT_EQ(parsed.str(), direct.str());

  std::istringstream garbage("{\"traceEvents\":[]}");
  std::ostringstream sink;
  EXPECT_THROW(telemetry::print_health_report(sink, garbage), std::runtime_error);
}

TEST(HealthCollector, ByteIdenticalAcrossShardCounts) {
  auto health_json = [](std::size_t shards) {
    IntRig rig(shards, /*loss=*/0.05, /*sample=*/2, /*seed=*/13, /*observatory=*/true);
    rig.drive_writes();
    telemetry::HealthCollector coll;
    const telemetry::Records records = rig.fabric.all_records();
    coll.ingest_reports(records.int_reports);
    coll.ingest_drops(records.drops, records.drop_counts);
    coll.ingest_lag(rig.fabric.metrics_snapshot());
    coll.finalize();
    return coll.to_json();
  };
  const std::string one = health_json(1);
  EXPECT_NE(one.find("\"int_reports\""), std::string::npos);
  EXPECT_EQ(health_json(2), one);
  EXPECT_EQ(health_json(4), one);
}

}  // namespace
}  // namespace swish::shm
