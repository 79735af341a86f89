// Causal tracing + consistency-lag observatory tests: one sampled write's
// origin links to every replica apply; retries under lossy links reuse the
// original span instead of double-counting; the stitched DAG and Perfetto
// export are byte-deterministic across identical seeded runs; sampled-out
// traffic records nothing; and the observatory's lag accounting is exact for
// chain (SRO), EWO and OWN propagation, including staleness at readers.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "swishmem/fabric.hpp"
#include "telemetry/export.hpp"
#include "telemetry/span.hpp"

#include "read_value.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kReg = 70;  // SRO chain register
constexpr std::uint32_t kCtr = 71;  // EWO LWW register
constexpr std::uint32_t kOwn = 72;  // OWN space

pkt::Packet udp(std::uint16_t dst_port) {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
  spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = 5;
  spec.dst_port = dst_port;
  spec.payload = {0};
  return pkt::build_packet(spec);
}

SpaceConfig sro_space() {
  SpaceConfig sp;
  sp.id = kReg;
  sp.name = "t.reg";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 32;
  return sp;
}

SpaceConfig ewo_space() {
  SpaceConfig sp;
  sp.id = kCtr;
  sp.name = "t.ctr";
  sp.cls = ConsistencyClass::kEWO;
  sp.merge = MergePolicy::kLww;
  sp.size = 32;
  return sp;
}

SpaceConfig own_space() {
  SpaceConfig sp;
  sp.id = kOwn;
  sp.name = "t.own";
  sp.cls = ConsistencyClass::kOWN;
  sp.size = 32;
  return sp;
}

struct Rig {
  Fabric fabric;

  Rig(FabricConfig cfg, const std::vector<SpaceConfig>& spaces,
      std::uint64_t span_sample) : fabric(cfg) {
    if (span_sample > 0) {
      fabric.simulator().spans().enable(span_sample);
      fabric.simulator().observatory().enable(fabric.simulator().metrics());
    }
    for (const auto& sp : spaces) fabric.add_space(sp);
    fabric.install([] { return std::unique_ptr<NfApp>(); });
    fabric.start();
  }

  const std::vector<telemetry::Span>& spans() {
    return fabric.simulator().spans().spans();
  }

  std::size_t count_spans(const std::string& name) {
    std::size_t n = 0;
    for (const auto& s : spans()) {
      if (name == s.name) ++n;
    }
    return n;
  }

  std::uint64_t metric_count(const std::string& name) {
    const auto snap = fabric.simulator().metrics().snapshot();
    auto it = snap.values.find(name);
    if (it == snap.values.end()) return 0;
    return it->second.kind == telemetry::MetricKind::kHistogram ? it->second.hist.count()
                                                                : it->second.count;
  }

  /// Sums a per-switch metric (shm.sw<i>.<suffix>) across the fabric.
  std::uint64_t metric_sum(const std::string& suffix) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      total += metric_count("shm.sw" + std::to_string(fabric.sw(i).id()) + "." + suffix);
    }
    return total;
  }
};

FabricConfig mesh(std::size_t n, std::uint64_t seed = 1, double loss = 0.0) {
  FabricConfig cfg;
  cfg.num_switches = n;
  cfg.seed = seed;
  cfg.link.loss_probability = loss;
  return cfg;
}

// ---------------------------------------------------------------------------
// Chain (SRO): origin links to every replica apply
// ---------------------------------------------------------------------------

TEST(CausalTrace, ChainWriteLinksOriginToEveryReplica) {
  Rig rig(mesh(4), {sro_space()}, /*span_sample=*/1);
  rig.fabric.runtime(0).write({{kReg, 3, 42}}, udp(1), [](pkt::Packet&&) {});
  rig.fabric.run_for(100 * kMs);

  // Exactly one root, and the stitched trace spans every chain member.
  ASSERT_EQ(rig.count_spans("chain_write"), 1u);
  const auto summaries = telemetry::stitch_traces(rig.spans());
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_STREQ(summaries[0].root_name, "chain_write");
  EXPECT_EQ(summaries[0].node_count, rig.fabric.size());
  EXPECT_GE(summaries[0].span_count, 2u * rig.fabric.size());
  EXPECT_GT(summaries[0].duration(), 0);

  // The apply/commit points of the chain are all present and causally linked.
  EXPECT_GE(rig.count_spans("chain_apply"), rig.fabric.size() - 1);
  EXPECT_EQ(rig.count_spans("tail_commit"), 1u);
  EXPECT_EQ(rig.count_spans("commit_ack"), 1u);

  // Observatory: one commit, applied by all four chain members, fully
  // propagated exactly once.
  EXPECT_EQ(rig.metric_count("lag.t.reg.propagation_ns"), rig.fabric.size());
  EXPECT_EQ(rig.metric_count("lag.t.reg.full_propagation_ns"), 1u);
  EXPECT_EQ(rig.metric_count("lag.class.SRO.propagation_ns"), rig.fabric.size());
  EXPECT_EQ(rig.metric_count("lag.t.reg.inflight"), 0u);
}

// ---------------------------------------------------------------------------
// Retries under loss reuse the original span (no double-counting)
// ---------------------------------------------------------------------------

TEST(CausalTrace, ChainRetriesUnderLossReuseOriginalSpan) {
  Rig rig(mesh(3, /*seed=*/7, /*loss=*/0.4), {sro_space()}, /*span_sample=*/1);
  const std::size_t kWrites = 6;
  for (std::size_t i = 0; i < kWrites; ++i) {
    rig.fabric.runtime(0).write({{kReg, i, 100 + i}}, udp(1), [](pkt::Packet&&) {});
  }
  rig.fabric.run_for(400 * kMs);

  // Retries must have actually happened for this test to mean anything (the
  // run is deterministic per seed, so this is a stable property, not a flake).
  ASSERT_GT(rig.metric_sum("sro.write_retries"), 0u);
  ASSERT_EQ(rig.metric_sum("sro.writes_committed"), kWrites);

  // One root per write, however many retransmits it took...
  EXPECT_EQ(rig.count_spans("chain_write"), kWrites);
  const auto summaries = telemetry::stitch_traces(rig.spans());
  std::size_t write_traces = 0;
  for (const auto& s : summaries) {
    if (std::string("chain_write") == s.root_name) ++write_traces;
  }
  EXPECT_EQ(write_traces, kWrites);

  // ...and each write records exactly one WriteRequest span per chain leg
  // (writer→head plus one forward per successor): retransmits hit the
  // runtime's send-identity cache and reuse the original context instead of
  // minting a new span per attempt, so retries never inflate this count.
  EXPECT_EQ(rig.count_spans("WriteRequest"), kWrites * rig.fabric.size());

  // Observatory: every commit eventually reaches all 3 replicas exactly once
  // (retried deliveries deduplicate), and nothing is left in flight.
  EXPECT_EQ(rig.metric_count("lag.t.reg.propagation_ns"), kWrites * rig.fabric.size());
  EXPECT_EQ(rig.metric_count("lag.t.reg.full_propagation_ns"), kWrites);
  EXPECT_EQ(rig.metric_count("lag.t.reg.inflight"), 0u);
}

// ---------------------------------------------------------------------------
// Deterministic stitching + export across identical seeded runs
// ---------------------------------------------------------------------------

std::string perfetto_of_run(std::uint64_t seed) {
  Rig rig(mesh(3, seed, /*loss=*/0.25), {sro_space(), ewo_space()}, /*span_sample=*/1);
  for (std::size_t i = 0; i < 4; ++i) {
    rig.fabric.runtime(i % 3).write({{kReg, i, i}}, udp(1), [](pkt::Packet&&) {});
    rig.fabric.runtime(i % 3).write({{kCtr, i, 7 * i + 1}}, pkt::Packet{}, nullptr);
  }
  rig.fabric.run_for(150 * kMs);
  std::ostringstream os;
  telemetry::write_perfetto(os, rig.spans());
  return os.str();
}

TEST(CausalTrace, PerfettoExportDeterministicAcrossIdenticalRuns) {
  const std::string a = perfetto_of_run(11);
  const std::string b = perfetto_of_run(11);
  EXPECT_EQ(a, b);  // byte-identical spans, stitching, and export
  const std::string c = perfetto_of_run(12);
  EXPECT_NE(a, c);  // and the seed actually matters
}

TEST(CausalTrace, PerfettoRoundTripsThroughReader) {
  Rig rig(mesh(3), {sro_space()}, /*span_sample=*/1);
  rig.fabric.runtime(1).write({{kReg, 2, 9}}, udp(1), [](pkt::Packet&&) {});
  rig.fabric.run_for(100 * kMs);
  ASSERT_FALSE(rig.spans().empty());

  std::ostringstream os;
  telemetry::write_perfetto(os, rig.spans());
  std::istringstream is(os.str());
  const auto parsed = telemetry::read_perfetto(is);
  ASSERT_EQ(parsed.size(), rig.spans().size());
  const auto before = telemetry::stitch_traces(rig.spans());
  const auto after = telemetry::stitch_traces(parsed);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].trace_id, after[i].trace_id);
    EXPECT_EQ(before[i].span_count, after[i].span_count);
    EXPECT_EQ(before[i].node_count, after[i].node_count);
    EXPECT_EQ(before[i].start, after[i].start);
    EXPECT_EQ(before[i].end, after[i].end);
    EXPECT_STREQ(before[i].root_name, after[i].root_name);
  }
}

// ---------------------------------------------------------------------------
// Sampling: sampled-out traffic records nothing
// ---------------------------------------------------------------------------

TEST(CausalTrace, DisabledRecorderRecordsNothing) {
  Rig rig(mesh(3), {sro_space()}, /*span_sample=*/0);
  for (std::size_t i = 0; i < 5; ++i) {
    rig.fabric.runtime(0).write({{kReg, i, i}}, udp(1), [](pkt::Packet&&) {});
  }
  rig.fabric.run_for(100 * kMs);
  EXPECT_TRUE(rig.spans().empty());
  EXPECT_EQ(rig.fabric.simulator().spans().root_decisions(), 0u);
  // The observatory is off too: no lag metrics appear in the registry.
  EXPECT_EQ(rig.metric_count("lag.t.reg.propagation_ns"), 0u);
}

TEST(CausalTrace, SampledOutWritesRecordNothing) {
  Rig rig(mesh(3), {sro_space()}, /*span_sample=*/3);
  const std::size_t kWrites = 6;
  for (std::size_t i = 0; i < kWrites; ++i) {
    rig.fabric.runtime(0).write({{kReg, i, i}}, udp(1), [](pkt::Packet&&) {});
  }
  rig.fabric.run_for(100 * kMs);

  // Root decisions 0 and 3 sample (counter-based 1-in-3): exactly two roots,
  // and every recorded span belongs to one of those two traces.
  EXPECT_EQ(rig.fabric.simulator().spans().root_decisions(), kWrites);
  EXPECT_EQ(rig.count_spans("chain_write"), 2u);
  std::set<std::uint64_t> roots;
  for (const auto& s : rig.spans()) {
    if (s.parent_span == 0) roots.insert(s.trace_id);
  }
  EXPECT_EQ(roots.size(), 2u);
  for (const auto& s : rig.spans()) {
    EXPECT_TRUE(roots.count(s.trace_id)) << "span " << s.name << " outside sampled traces";
  }
  // The observatory still accounts ALL writes — it is identity-based, not
  // sample-based.
  EXPECT_EQ(rig.metric_count("lag.t.reg.full_propagation_ns"), kWrites);
}

// ---------------------------------------------------------------------------
// EWO: mirror propagation lag + staleness at readers
// ---------------------------------------------------------------------------

TEST(CausalTrace, EwoMirrorLagAndStaleReads) {
  Rig rig(mesh(2), {ewo_space()}, /*span_sample=*/1);
  rig.fabric.runtime(0).write({{kCtr, 5, 1234}}, pkt::Packet{}, nullptr);

  // Before the mirror update reaches switch 1, its read is stale.
  EXPECT_EQ(read_value(rig.fabric.runtime(1), kCtr, 5), 0u);
  EXPECT_EQ(rig.metric_count("lag.t.ctr.stale_reads"), 1u);
  // The origin always sees its own write: not stale.
  EXPECT_EQ(read_value(rig.fabric.runtime(0), kCtr, 5), 1234u);
  EXPECT_EQ(rig.metric_count("lag.t.ctr.stale_reads"), 1u);

  rig.fabric.run_for(50 * kMs);

  // One replica applied the mirrored write; record fully propagated.
  EXPECT_EQ(rig.metric_count("lag.t.ctr.propagation_ns"), 1u);
  EXPECT_EQ(rig.metric_count("lag.t.ctr.full_propagation_ns"), 1u);
  EXPECT_EQ(rig.metric_count("lag.t.ctr.inflight"), 0u);
  // After the apply, reads at the replica are no longer stale.
  EXPECT_EQ(read_value(rig.fabric.runtime(1), kCtr, 5), 1234u);
  EXPECT_EQ(rig.metric_count("lag.t.ctr.stale_reads"), 1u);

  // The sampled write's trace crosses to the replica's apply.
  EXPECT_EQ(rig.count_spans("ewo_write"), 1u);
  EXPECT_GE(rig.count_spans("ewo_apply"), 1u);
  const auto summaries = telemetry::stitch_traces(rig.spans());
  bool crossed = false;
  for (const auto& s : summaries) {
    if (std::string("ewo_write") == s.root_name && s.node_count == 2) crossed = true;
  }
  EXPECT_TRUE(crossed);
}

// ---------------------------------------------------------------------------
// OWN: migration carries the trace; acquisitions root exactly one span each
// ---------------------------------------------------------------------------

TEST(CausalTrace, OwnMigrationSpansAndRetryReuse) {
  Rig rig(mesh(2, /*seed=*/3, /*loss=*/0.3), {own_space()}, /*span_sample=*/1);

  // Write a spread of keys from switch 0 (some remote-homed: acquisitions
  // with wire traffic and, under loss, idempotent req_id retries), then the
  // same keys from switch 1 (revocation + migration).
  for (std::uint64_t k = 0; k < 8; ++k) {
    rig.fabric.runtime(0).write({{kOwn, k, 10 + k}}, udp(1), [](pkt::Packet&&) {});
  }
  rig.fabric.run_for(100 * kMs);
  for (std::uint64_t k = 0; k < 8; ++k) {
    rig.fabric.runtime(1).write({{kOwn, k, 20 + k}}, udp(1), [](pkt::Packet&&) {});
  }
  rig.fabric.run_for(400 * kMs);

  ASSERT_GT(rig.metric_sum("own.acquisition_retries"), 0u);  // loss did its job
  const std::uint64_t started = rig.metric_sum("own.acquisitions_started");
  const std::uint64_t completed = rig.metric_sum("own.acquisitions_completed");
  ASSERT_GT(started, 0u);
  EXPECT_EQ(completed, started);

  // Exactly one root span per acquisition, regardless of retries.
  EXPECT_EQ(rig.count_spans("own_acquire"), started);
  EXPECT_EQ(rig.count_spans("own_acquired"), completed);
  // Switch 1's acquisitions of switch-0-owned keys revoked ownership.
  EXPECT_GT(rig.metric_sum("own.revokes_served"), 0u);
  EXPECT_EQ(rig.count_spans("own_revoke"), rig.metric_sum("own.revokes_served"));

  // Owner writes propagate to the home (backup flush or relinquish fold).
  EXPECT_GT(rig.metric_count("lag.t.own.propagation_ns"), 0u);
  EXPECT_EQ(rig.metric_count("lag.t.own.propagation_ns"),
            rig.metric_count("lag.t.own.full_propagation_ns"));
}

}  // namespace
}  // namespace swish::shm
