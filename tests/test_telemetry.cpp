// Telemetry layer tests (the unified metrics/trace substrate): registry
// handle semantics and hierarchy rules, byte-deterministic export, snapshot
// diff/merge, the record log's per-node trace rings and their
// zero-cost-when-disabled claim, and the per-class-bytes == bytes_total
// reconciliation re-proved from registry snapshots instead of the legacy
// stats structs.
#include <gtest/gtest.h>

#include <stdexcept>

#include "packet/packet.hpp"
#include "sim/simulator.hpp"
#include "swishmem/fabric.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/records.hpp"

namespace swish::telemetry {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterHandleSupportsLegacyIncrementIdioms) {
  MetricsRegistry reg;
  Counter c = reg.counter("a.count");
  ++c;
  c++;
  c += 40;
  EXPECT_EQ(c, 42u);                       // implicit read conversion
  EXPECT_EQ(reg.counter("a.count"), 42u);  // same name -> same cell
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, GaugeAndHistogramHandles) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("rate");
  g = 2.5;
  EXPECT_DOUBLE_EQ(g, 2.5);

  Histo h = reg.histogram("lat_ns");
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v * 1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GE(h.p50(), 45'000u);
  EXPECT_LE(h.p50(), 60'000u);
  EXPECT_GE(h.p99(), 90'000u);
  EXPECT_GE(h.percentile(1.0), h.percentile(0.5));
}

TEST(MetricsRegistry, DottedPrefixConflictsThrow) {
  MetricsRegistry reg;
  reg.counter("shm.sw1.bytes");
  // An existing leaf cannot become an interior node, and vice versa.
  EXPECT_THROW(reg.counter("shm.sw1.bytes.write"), std::invalid_argument);
  EXPECT_THROW(reg.counter("shm.sw1"), std::invalid_argument);
  // Siblings are fine.
  EXPECT_NO_THROW(reg.counter("shm.sw1.bytes_write"));
  EXPECT_NO_THROW(reg.counter("shm.sw2.bytes"));
}

TEST(MetricsRegistry, JsonExportIsOrderIndependent) {
  MetricsRegistry a;
  a.counter("z.last") += 1;
  a.gauge("m.mid") = 0.5;
  a.counter("a.first") += 2;

  MetricsRegistry b;  // same metrics, opposite registration order
  b.counter("a.first") += 2;
  b.gauge("m.mid") = 0.5;
  b.counter("z.last") += 1;

  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("\"first\": 2"), std::string::npos);
}

TEST(MetricsRegistry, ProbeIsReadAtSnapshotTime) {
  MetricsRegistry reg;
  std::uint64_t source = 7;
  reg.probe("ext.value", [&source]() { return source; });
  EXPECT_EQ(reg.snapshot().values.at("ext.value").count, 7u);
  source = 9;
  EXPECT_EQ(reg.snapshot().values.at("ext.value").count, 9u);
}

TEST(MetricsSnapshot, DiffSubtractsAndMergeAdds) {
  MetricsRegistry reg;
  Counter c = reg.counter("pkts");
  Gauge g = reg.gauge("rate");
  c += 10;
  g = 1.0;
  const MetricsSnapshot before = reg.snapshot();
  c += 5;
  g = 3.0;
  const MetricsSnapshot after = reg.snapshot();

  const MetricsSnapshot delta = MetricsSnapshot::diff(after, before);
  EXPECT_EQ(delta.values.at("pkts").count, 5u);
  EXPECT_DOUBLE_EQ(delta.values.at("rate").number, 2.0);

  MetricsSnapshot sum = before;
  sum.merge(delta);
  EXPECT_EQ(sum.values.at("pkts").count, 15u);
}

// ---------------------------------------------------------------------------
// Tracer: the record log's trace events
// ---------------------------------------------------------------------------

Records gather(const RecordLog& log) {
  Records out;
  log.collect(out);
  out.sort_canonical();
  return out;
}

TEST(Tracer, DisabledTracerAllocatesAndRecordsNothing) {
  RecordLog log;
  for (int i = 0; i < 1000; ++i) log.trace(kTracePacket, 1, "noop", i);
  EXPECT_FALSE(log.events().allocated());
  EXPECT_EQ(log.events().recorded(), 0u);
  EXPECT_TRUE(gather(log).events.empty());
  // A fresh simulator's log traces nothing and holds no ring either.
  sim::Simulator sim;
  EXPECT_EQ(sim.records().trace_mask(), 0u);
  EXPECT_FALSE(sim.records().events().allocated());
}

TEST(Tracer, RingWrapsKeepingNewestEvents) {
  RecordLog log;
  log.enable_trace(kTraceAll, /*events_per_node=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) log.trace(kTracePacket, 1, "ev", i);
  log.trace(kTracePacket, 2, "other");  // another node's ring is its own
  EXPECT_EQ(log.events().recorded(), 11u);
  std::vector<TraceEvent> events = gather(log).events;
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.back().node, 2u);
  EXPECT_EQ(events.back().seq, 1u);
  events.pop_back();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, 6u + i);  // oldest retained first
    EXPECT_EQ(events[i].seq, 7u + i);
  }
}

TEST(Tracer, MaskFiltersCategories) {
  RecordLog log;
  log.enable_trace(kTraceDrop | kTraceFailover);
  log.trace(kTracePacket, 1, "masked-off");
  log.trace(kTraceDrop, 2, "kept");
  EXPECT_EQ(log.events().recorded(), 1u);
  EXPECT_STREQ(gather(log).events.at(0).what, "kept");
  log.enable_trace(0);  // disable again
  log.trace(kTraceDrop, 2, "after-disable");
  log.drop(2, DropReason::kLinkLoss, 64, 3);  // recorded and tallied, not traced
  const Records recs = gather(log);
  EXPECT_EQ(recs.events_recorded, 1u);  // nothing traced while disabled
  EXPECT_EQ(recs.drops.size(), 1u);
  EXPECT_EQ(recs.drop_counts.at(2)[static_cast<std::size_t>(DropReason::kLinkLoss)], 1u);
}

TEST(Tracer, ParseTraceMaskRoundTrips) {
  EXPECT_EQ(parse_trace_mask("all"), kTraceAll);
  EXPECT_EQ(parse_trace_mask("packet,drop"), kTracePacket | kTraceDrop);
  EXPECT_EQ(parse_trace_mask("migration"), kTraceMigration);
  EXPECT_EQ(parse_trace_mask("int"), kTraceInt);
  EXPECT_FALSE(parse_trace_mask("bogus").has_value());
  EXPECT_FALSE(parse_trace_mask("packet,bogus").has_value());
  EXPECT_EQ(parse_trace_mask("packet,,drop"), kTracePacket | kTraceDrop);  // empties skipped
  EXPECT_EQ(trace_mask_to_string(kTracePacket | kTraceDrop), "packet,drop");
  EXPECT_EQ(trace_mask_to_string(kTraceInt), "int");
}

}  // namespace
}  // namespace swish::telemetry

// ---------------------------------------------------------------------------
// Full-stack: two identical simulations export byte-identical registries, and
// the byte-accounting invariant holds at the registry level.
// ---------------------------------------------------------------------------

namespace swish::shm {
namespace {

constexpr std::uint32_t kSro = 80;
constexpr std::uint32_t kEwo = 81;
constexpr std::uint32_t kEro = 82;
constexpr std::uint32_t kOwn = 83;
constexpr std::uint32_t kCon = 84;

/// One space of every consistency class on a lossy 3-switch mesh.
std::unique_ptr<Fabric> make_mixed_fabric(std::uint64_t int_sample_every = 0) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.link.loss_probability = 0.02;
  cfg.switch_config.int_sample_every = int_sample_every;
  auto fabric = std::make_unique<Fabric>(cfg);
  SpaceConfig sro;
  sro.id = kSro;
  sro.name = "t.sro";
  sro.cls = ConsistencyClass::kSRO;
  sro.size = 32;
  fabric->add_space(sro);
  SpaceConfig ewo;
  ewo.id = kEwo;
  ewo.name = "t.ewo";
  ewo.cls = ConsistencyClass::kEWO;
  ewo.merge = MergePolicy::kGCounter;
  ewo.size = 32;
  fabric->add_space(ewo);
  SpaceConfig ero = sro;
  ero.id = kEro;
  ero.name = "t.ero";
  ero.cls = ConsistencyClass::kERO;
  fabric->add_space(ero);
  SpaceConfig own = sro;
  own.id = kOwn;
  own.name = "t.own";
  own.cls = ConsistencyClass::kOWN;
  fabric->add_space(own);
  SpaceConfig con = sro;
  con.id = kCon;
  con.name = "t.con";
  con.cls = ConsistencyClass::kCON;
  fabric->add_space(con);
  fabric->install(nullptr);
  fabric->start();
  return fabric;
}

void drive(Fabric& fabric) {
  for (int k = 0; k < 8; ++k) {
    const auto key = static_cast<std::uint64_t>(k);
    const auto value = static_cast<std::uint64_t>(100 + k);
    fabric.runtime(k % 3).write({{kSro, key, value}}, pkt::Packet{}, nullptr);
    fabric.runtime((k + 1) % 3).update(kEwo, key, 1);
    fabric.runtime((k + 2) % 3).write({{kEro, key, value}}, pkt::Packet{}, nullptr);
    fabric.runtime(k % 3).write({{kOwn, key, value}}, pkt::Packet{}, nullptr);
    fabric.runtime((k + 1) % 3).write({{kCon, key, value}}, pkt::Packet{}, nullptr);
  }
  fabric.run_for(300 * kMs);
  fabric.kill_switch(2);  // exercise failover -> control + recovery bytes
  fabric.run_for(300 * kMs);
  fabric.runtime(0).write({{kSro, 1, 999}}, pkt::Packet{}, nullptr);
  fabric.run_for(200 * kMs);
}

TEST(TelemetryFullStack, IdenticalRunsExportByteIdenticalJson) {
  // The pkt.* probes read process-global packet stats; reset them so each
  // run observes only its own traffic.
  std::string first, second;
  {
    pkt::PacketStats::global().reset();
    auto fabric = make_mixed_fabric();
    drive(*fabric);
    first = fabric->simulator().metrics().to_json();
  }
  {
    pkt::PacketStats::global().reset();
    auto fabric = make_mixed_fabric();
    drive(*fabric);
    second = fabric->simulator().metrics().to_json();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The per-message-class byte counters (five consistency classes + recovery +
// control + INT trailer overhead) must sum to bytes_total exactly, with and
// without INT sampling turned on.
void expect_per_class_bytes_reconcile(Fabric& fabric, bool int_on) {
  const telemetry::MetricsSnapshot snap = fabric.metrics_snapshot();
  auto count = [&snap](const std::string& name) { return snap.values.at(name).count; };
  std::uint64_t fleet_int = 0;
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    const std::string p = "shm.sw" + std::to_string(i + 1) + ".";
    const std::uint64_t per_class =
        count(p + "sro.bytes_write") + count(p + "sro.bytes_redirect") +
        count(p + "ero.bytes_write") + count(p + "ero.bytes_redirect") +
        count(p + "ewo.bytes") + count(p + "own.bytes") + count(p + "con.bytes") +
        count(p + "bytes_recovery") + count(p + "bytes_control") + count(p + "bytes_int");
    EXPECT_EQ(per_class, count(p + "bytes_total")) << "switch " << i;
    EXPECT_GT(count(p + "bytes_total"), 0u) << "switch " << i;
    for (const char* cls : {"sro.bytes_write", "ero.bytes_write", "ewo.bytes", "own.bytes",
                            "con.bytes"}) {
      EXPECT_GT(count(p + cls), 0u) << "switch " << i << " sent no " << cls << " traffic";
    }
    fleet_int += count(p + "bytes_int");
  }
  if (int_on) {
    EXPECT_GT(fleet_int, 0u) << "sampled protocol sends must charge trailer bytes";
  } else {
    EXPECT_EQ(fleet_int, 0u) << "unsampled runs must not charge INT bytes";
  }
}

TEST(TelemetryFullStack, RegistrySnapshotReconcilesPerClassBytes) {
  auto fabric = make_mixed_fabric();
  drive(*fabric);
  expect_per_class_bytes_reconcile(*fabric, /*int_on=*/false);
}

TEST(TelemetryFullStack, PerClassBytesReconcileWithIntSampling) {
  auto fabric = make_mixed_fabric(/*int_sample_every=*/4);
  drive(*fabric);
  expect_per_class_bytes_reconcile(*fabric, /*int_on=*/true);
  EXPECT_GT(fabric->all_records().int_reports.size(), 0u);
}

TEST(TelemetryFullStack, MigrationAndFailoverEmitTraceEvents) {
  FabricConfig cfg;
  cfg.num_switches = 4;
  Fabric fabric(cfg);
  SpaceConfig sp;
  sp.id = kSro;
  sp.name = "t.mig";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 16;
  fabric.add_space(sp, {1, 2});
  fabric.install(nullptr);
  fabric.start();
  fabric.enable_trace(telemetry::kTraceMigration | telemetry::kTraceFailover);

  fabric.runtime(0).write({{kSro, 3, 33}}, pkt::Packet{}, nullptr);
  fabric.run_for(100 * kMs);
  TimeNs migrated_at = -1;
  fabric.controller().migrate_space(kSro, {3, 4}, [&](TimeNs t) { migrated_at = t; });
  fabric.run_for(500 * kMs);
  fabric.kill_switch(0);
  fabric.run_for(500 * kMs);
  ASSERT_GT(migrated_at, 0);

  bool saw_start = false, saw_done = false, saw_fail = false;
  for (const auto& ev : fabric.all_records().events) {
    const std::string what = ev.what;
    saw_start |= what == "migrate_space_start";
    saw_done |= what == "migrate_space_done";
    saw_fail |= what == "switch_failed";
    EXPECT_NE(ev.category & (telemetry::kTraceMigration | telemetry::kTraceFailover), 0u);
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_done);
  EXPECT_TRUE(saw_fail);
}

}  // namespace
}  // namespace swish::shm
