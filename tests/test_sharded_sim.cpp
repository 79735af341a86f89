// Sharded simulation core (conservative PDES) tests.
//
// Unit level: deterministic (time, source shard, lane sequence) merge order
// for cross-shard handoffs, and the conservative-synchronization guards
// (posting inside the lookahead window, posting with no registered cross
// link) surfacing as exceptions on the calling thread.
//
// Fabric level: a sharded fabric preserves protocol semantics (same commits,
// same propagation counts as the single-threaded run), repeat runs at the
// same shard count are byte-identical, and — the cross-shard causal-tracing
// contract — spans crossing a shard boundary stitch into one unforked,
// undropped DAG whose canonicalized Perfetto export is byte-identical across
// --shards {1, 2, 4} for the same seed, including under loss. A kCON
// multi-op write scenario on 16 leaves x 4 spines covers the cross-shard
// consensus fan-out: byte-identical repeats at 4 shards, and the same commits
// and applied slots as the 1-shard run.
//
// All fabric-level scenarios drive writes from the owning switch's own shard
// (sim clock), which keeps virtual timings shard-count-invariant: in-fabric
// propagation runs on link delays >= the lookahead, so the conservative
// engine never has to displace an event.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/shard.hpp"
#include "swishmem/fabric.hpp"
#include "telemetry/export.hpp"
#include "telemetry/span.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kReg = 80;  // SRO chain register
constexpr std::uint32_t kCtr = 81;  // EWO LWW register

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

// ---------------------------------------------------------------------------
// ShardSet unit tests
// ---------------------------------------------------------------------------

TEST(ShardedSim, CrossShardHandoffsMergeInTimeSourceLaneOrder) {
  // Three shards post into node 1 (shard 0) at colliding timestamps; the
  // documented merge order is (time, source shard, per-lane sequence).
  auto run_once = [](std::vector<std::string>& order) {
    sim::ShardSet shards(3);
    shards.assign(1, 0);
    shards.assign(2, 1);
    shards.assign(3, 2);
    shards.note_cross_link(1000);
    for (std::size_t src = 1; src <= 2; ++src) {
      const NodeId node = static_cast<NodeId>(src + 1);
      shards.sim(src).schedule_at(500, [&shards, &order, src]() {
        // Two posts per source at the same destination time: lane sequence
        // must keep them in post order, and source 1 must drain before 2.
        for (int k = 0; k < 2; ++k) {
          shards.post_at_node(1, 2000, [&order, src, k]() {
            order.push_back("t2000.src" + std::to_string(src) + "." + std::to_string(k));
          });
        }
        shards.post_at_node(1, 1500 + static_cast<TimeNs>(src), [&order, src]() {
          order.push_back("t150x.src" + std::to_string(src));
        });
      });
      // Keep every queue non-empty so the window engine has a floor.
      shards.sim(src).schedule_at(3000, [node]() { (void)node; });
    }
    shards.sim(0).schedule_at(3000, []() {});
    shards.run_until(4000);
  };

  std::vector<std::string> a;
  std::vector<std::string> b;
  run_once(a);
  run_once(b);
  const std::vector<std::string> expected = {
      "t150x.src1", "t150x.src2", "t2000.src1.0", "t2000.src1.1", "t2000.src2.0",
      "t2000.src2.1"};
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);  // and the order is reproducible
}

TEST(ShardedSim, PostInsideLookaheadWindowThrows) {
  sim::ShardSet shards(2);
  shards.assign(1, 0);
  shards.assign(2, 1);
  shards.note_cross_link(1000);
  shards.sim(0).schedule_at(100, [&shards]() {
    shards.post_at_node(2, 600, []() {});  // 600 < 100 + 1000: conservatism broken
  });
  shards.sim(1).schedule_at(5000, []() {});
  EXPECT_THROW(shards.run_until(10000), std::logic_error);
}

TEST(ShardedSim, CrossShardPostWithoutCrossLinkThrows) {
  sim::ShardSet shards(2);
  shards.assign(1, 0);
  shards.assign(2, 1);
  shards.sim(0).schedule_at(100, [&shards]() {
    shards.post_at_node(2, 5000, []() {});
  });
  shards.sim(1).schedule_at(5000, []() {});
  EXPECT_THROW(shards.run_until(10000), std::logic_error);
}

TEST(ShardedSim, ZeroOrNegativeLookaheadRejected) {
  sim::ShardSet shards(2);
  EXPECT_THROW(shards.note_cross_link(0), std::invalid_argument);
  EXPECT_THROW(shards.note_cross_link(-5), std::invalid_argument);
  EXPECT_THROW(sim::ShardSet(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fabric-level: semantics, determinism, cross-shard causal tracing
// ---------------------------------------------------------------------------

struct ShardRig {
  Fabric fabric;

  ShardRig(std::size_t shards, std::uint64_t seed, double loss, bool tracing)
      : fabric(config(shards, seed, loss)) {
    if (tracing) {
      fabric.enable_spans(/*sample_every=*/1);
      fabric.enable_observatory();
    }
    fabric.add_space(sro_space());
    fabric.add_space(ewo_space());
    fabric.install([] { return std::unique_ptr<NfApp>(); });
    fabric.start();
  }

  static FabricConfig config(std::size_t shards, std::uint64_t seed, double loss) {
    FabricConfig cfg;
    cfg.num_switches = 4;
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.link.loss_probability = loss;
    return cfg;
  }

  /// Shard-local write driving: each switch issues its writes from events on
  /// its own simulator, so virtual timings are identical at every shard
  /// count (see file comment).
  void drive_writes() {
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      Fabric* f = &fabric;
      for (int w = 0; w < 3; ++w) {
        const TimeNs at = 1 * kMs + w * 5 * kMs + static_cast<TimeNs>(i) * 250 * kUs;
        fabric.simulator_for(i).schedule_at(at, [f, i, w]() {
          f->runtime(i).write({{kReg, i, 100 * i + static_cast<std::uint64_t>(w)}},
                              udp(1), [](pkt::Packet&&) {});
          f->runtime(i).write({{kCtr, i, 7 * static_cast<std::uint64_t>(w) + i + 1}},
                              pkt::Packet{}, nullptr);
        });
      }
    }
    fabric.run_for(200 * kMs);
  }

  std::uint64_t metric_count(const std::string& name) {
    const auto snap = fabric.metrics_snapshot();
    auto it = snap.values.find(name);
    if (it == snap.values.end()) return 0;
    return it->second.kind == telemetry::MetricKind::kHistogram ? it->second.hist.count()
                                                                : it->second.count;
  }

  std::string canonical_perfetto() {
    const std::vector<telemetry::Span> spans =
        telemetry::canonicalize_spans(fabric.all_spans());
    std::ostringstream os;
    telemetry::write_perfetto(os, spans);
    return os.str();
  }
};

TEST(ShardedSim, ShardCountPreservesProtocolSemantics) {
  // Same seed, no loss: commits and propagation counts must not depend on
  // the partitioning.
  ShardRig one(1, /*seed=*/11, /*loss=*/0.0, /*tracing=*/true);
  one.drive_writes();
  const std::uint64_t committed = one.metric_count("lag.t.reg.full_propagation_ns");
  ASSERT_GT(committed, 0u);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    ShardRig rig(shards, /*seed=*/11, /*loss=*/0.0, /*tracing=*/true);
    rig.drive_writes();
    EXPECT_EQ(rig.metric_count("lag.t.reg.full_propagation_ns"), committed)
        << "shards=" << shards;
    EXPECT_EQ(rig.metric_count("lag.t.reg.propagation_ns"),
              one.metric_count("lag.t.reg.propagation_ns"))
        << "shards=" << shards;
    EXPECT_EQ(rig.metric_count("lag.t.ctr.propagation_ns"),
              one.metric_count("lag.t.ctr.propagation_ns"))
        << "shards=" << shards;
  }
}

TEST(ShardedSim, RepeatShardedRunsAreByteIdentical) {
  // Two identical K=2 runs under loss: merged metrics JSON and the raw
  // Perfetto export must match byte for byte (self-reproducibility).
  ShardRig a(2, /*seed=*/7, /*loss=*/0.3, /*tracing=*/true);
  ShardRig b(2, /*seed=*/7, /*loss=*/0.3, /*tracing=*/true);
  a.drive_writes();
  b.drive_writes();
  EXPECT_EQ(a.fabric.metrics_snapshot().to_json(), b.fabric.metrics_snapshot().to_json());

  std::ostringstream pa;
  std::ostringstream pb;
  telemetry::write_perfetto(pa, a.fabric.all_spans());
  telemetry::write_perfetto(pb, b.fabric.all_spans());
  EXPECT_EQ(pa.str(), pb.str());
}

TEST(ShardedSim, CanonicalPerfettoIdenticalAcrossShardCounts) {
  // The satellite contract: under loss, --shards {1,2,4} produce identical
  // canonicalized Perfetto exports for the same seed. (Raw exports differ
  // only in id allocation — shard k's recorder numbers from k << 48 — and
  // record order; canonicalize_spans removes exactly that.)
  ShardRig one(1, /*seed=*/13, /*loss=*/0.25, /*tracing=*/true);
  one.drive_writes();
  const std::string reference = one.canonical_perfetto();
  ASSERT_FALSE(one.fabric.all_spans().empty());

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    ShardRig rig(shards, /*seed=*/13, /*loss=*/0.25, /*tracing=*/true);
    rig.drive_writes();
    EXPECT_EQ(rig.canonical_perfetto(), reference) << "shards=" << shards;
  }
}

TEST(ShardedSim, CrossShardSpansStitchUnforkedAndUndropped) {
  // K=2 under loss: every trace has exactly one root, every parent link
  // resolves inside the recorded set and stays within its trace (no forked
  // or dropped spans), and at least one parent->child edge actually crosses
  // the shard boundary.
  ShardRig rig(2, /*seed=*/13, /*loss=*/0.25, /*tracing=*/true);
  rig.drive_writes();
  const std::vector<telemetry::Span> spans = rig.fabric.all_spans();
  ASSERT_FALSE(spans.empty());

  std::map<std::uint64_t, const telemetry::Span*> by_id;
  for (const auto& s : spans) by_id.emplace(s.span_id, &s);

  std::map<std::uint64_t, std::size_t> roots_per_trace;
  std::size_t cross_shard_edges = 0;
  const sim::ShardSet& shards = rig.fabric.shard_set();
  for (const auto& s : spans) {
    if (s.parent_span == 0) {
      ++roots_per_trace[s.trace_id];
      continue;
    }
    auto it = by_id.find(s.parent_span);
    ASSERT_NE(it, by_id.end()) << "dropped parent for span " << s.span_id;
    const telemetry::Span& parent = *it->second;
    EXPECT_EQ(parent.trace_id, s.trace_id) << "forked span " << s.span_id;
    EXPECT_LE(parent.start, s.start);
    if (shards.shard_of(parent.node) != shards.shard_of(s.node)) ++cross_shard_edges;
  }
  for (const auto& [trace, roots] : roots_per_trace) {
    EXPECT_EQ(roots, 1u) << "trace " << trace;
  }
  EXPECT_GT(cross_shard_edges, 0u);

  // Each stitched trace covers the fabric: SRO writes propagate to all 4
  // switches regardless of which side of the shard boundary they started on.
  const auto summaries = telemetry::stitch_traces(spans);
  std::size_t chain_traces = 0;
  for (const auto& t : summaries) {
    if (std::string("chain_write") == t.root_name) {
      ++chain_traces;
      EXPECT_EQ(t.node_count, rig.fabric.size()) << "trace " << t.trace_id;
    }
  }
  EXPECT_EQ(chain_traces, 12u);  // 4 switches x 3 writes
}

/// 16 leaves x 4 spines with two kCON spaces. Every switch commits two-op
/// writes from its own shard, so each transaction is one consensus slot
/// whose accept round fans out from the coordinator to 15 acceptors, most of
/// them on other shards.
struct ConTxnRig {
  static constexpr std::uint32_t kConA = 82;
  static constexpr std::uint32_t kConB = 83;
  Fabric fabric;

  explicit ConTxnRig(std::size_t shards) : fabric(config(shards)) {
    for (const std::uint32_t id : {kConA, kConB}) {
      SpaceConfig sp;
      sp.id = id;
      sp.name = id == kConA ? "t.con_a" : "t.con_b";
      sp.cls = ConsistencyClass::kCON;
      sp.size = 64;
      fabric.add_space(sp);
    }
    fabric.install([] { return std::unique_ptr<NfApp>(); });
    fabric.start();
  }

  static FabricConfig config(std::size_t shards) {
    FabricConfig cfg;
    cfg.num_switches = 16;
    cfg.topology = FabricConfig::Topology::kLeafSpine;
    cfg.spine_count = 4;
    cfg.seed = 17;
    cfg.shards = shards;
    return cfg;
  }

  /// Shard-local transaction driving, as ShardRig::drive_writes: two
  /// transactions per switch once the coordinator is elected.
  void drive_txns() {
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      Fabric* f = &fabric;
      for (std::uint64_t w = 0; w < 2; ++w) {
        const TimeNs at = 20 * kMs + static_cast<TimeNs>(w) * 4 * kMs +
                          static_cast<TimeNs>(i) * 100 * kUs;
        fabric.simulator_for(i).schedule_at(at, [f, i, w]() {
          const std::uint64_t key = 2 * i + w;
          f->runtime(i).write({{kConA, key, 100 + key}, {kConB, key, 200 + key}}, udp(1),
                              [](pkt::Packet&&) {});
        });
      }
    }
    fabric.run_for(40 * kMs);
  }

  /// A con.* counter summed over every switch.
  std::uint64_t con_total(const std::string& counter) {
    const auto snap = fabric.metrics_snapshot();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      auto it = snap.values.find("shm.sw" + std::to_string(i + 1) + ".con." + counter);
      if (it != snap.values.end()) total += it->second.count;
    }
    return total;
  }
};

TEST(ShardedSim, ConsensusTxnFanOutIsDeterministicAcrossShards) {
  ConTxnRig one(1);
  one.drive_txns();
  const std::uint64_t committed = one.con_total("writes_committed");
  const std::uint64_t applied = one.con_total("slots_applied");
  EXPECT_EQ(committed, 32u);  // 16 switches x 2 transactions
  EXPECT_EQ(applied, 16u * committed);

  ConTxnRig a(4);
  ConTxnRig b(4);
  a.drive_txns();
  b.drive_txns();
  EXPECT_GT(a.fabric.shard_set().cross_events(), 0u);
  EXPECT_EQ(a.fabric.metrics_snapshot().to_json(), b.fabric.metrics_snapshot().to_json());
  EXPECT_EQ(a.con_total("writes_committed"), committed);
  EXPECT_EQ(a.con_total("slots_applied"), applied);
}

TEST(ShardedSim, FabricRejectsImpossibleShardCounts) {
  EXPECT_THROW(ShardRig(0, 1, 0.0, false), std::invalid_argument);
  EXPECT_THROW(ShardRig(5, 1, 0.0, false), std::invalid_argument);  // > 4 switches
}

}  // namespace
}  // namespace swish::shm
