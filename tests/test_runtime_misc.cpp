// Runtime edge cases: retry exhaustion, CP buffer limits, stale placement
// pushes, retired in-band configuration frames, unknown spaces, and stats
// accounting.
#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "packet/int_md.hpp"
#include "swishmem/fabric.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kSpace = 70;

Fabric* make(std::unique_ptr<Fabric>& holder, FabricConfig cfg) {
  holder = std::make_unique<Fabric>(cfg);
  SpaceConfig sp;
  sp.id = kSpace;
  sp.name = "m";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 16;
  holder->add_space(sp);
  SpaceConfig ctr;
  ctr.id = kSpace + 1;
  ctr.name = "mc";
  ctr.cls = ConsistencyClass::kEWO;
  ctr.merge = MergePolicy::kGCounter;
  ctr.size = 4;
  holder->add_space(ctr);
  holder->install(nullptr);
  holder->start();
  return holder.get();
}

TEST(RuntimeMisc, WriteFailsAfterMaxRetriesWhenHeadUnreachable) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.runtime.write_retry_timeout = 1 * kMs;
  cfg.runtime.max_write_retries = 3;
  // Disable failure detection so the chain is never repaired.
  cfg.controller.heartbeat_timeout = 1000 * kSec;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  fabric.run_for(10 * kMs);
  fabric.kill_switch(0);  // the head, permanently

  bool released = false;
  fabric.runtime(2).write({{kSpace, 1, 9}}, pkt::Packet{},
                          [&](pkt::Packet&&) { released = true; });
  fabric.run_for(500 * kMs);
  EXPECT_FALSE(released);
  const auto snap = fabric.metrics_snapshot();
  EXPECT_EQ(snap.values.at("shm.sw3.sro.writes_failed").count, 1u);
  EXPECT_EQ(snap.values.at("shm.sw3.sro.write_retries").count, 3u);
  EXPECT_EQ(fabric.runtime(2).cp_buffered_packets(), 0u);  // buffer reclaimed
}

TEST(RuntimeMisc, CpBufferLimitRejectsExcessWrites) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.runtime.cp_buffer_limit = 2;
  cfg.link.propagation_delay = 10 * kMs;  // keep writes pending a while
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  for (int i = 0; i < 5; ++i) {
    fabric.runtime(1).write({{kSpace, static_cast<std::uint64_t>(i), 1}}, pkt::Packet{},
                            nullptr);
  }
  EXPECT_EQ(fabric.metrics_snapshot().values.at("shm.sw2.sro.writes_rejected").count, 3u);
  EXPECT_EQ(fabric.runtime(1).cp_buffered_packets(), 2u);
  fabric.run_for(500 * kMs);
  EXPECT_EQ(fabric.metrics_snapshot().values.at("shm.sw2.sro.writes_committed").count, 2u);
}

TEST(RuntimeMisc, StaleConfigPushesIgnored) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  ShmRuntime& rt = fabric.runtime(0);
  const Placement chain = rt.placement(kSpace);
  const Placement group = rt.placement(kSpace + 1);
  ASSERT_GE(chain.epoch, 1u);
  // An older epoch, and a replay of the installed one, are both stale.
  rt.install_placements({{kSpace, Placement{0, {99}}}, {kSpace + 1, Placement{0, {99}}}});
  rt.install_placements({{kSpace, Placement{chain.epoch, {99}}}});
  EXPECT_EQ(rt.placement(kSpace), chain);  // unchanged
  EXPECT_EQ(rt.placement(kSpace + 1), group);
  EXPECT_NE(rt.placement(kSpace + 1).members, (std::vector<SwitchId>{99}));
}

TEST(RuntimeMisc, InBandConfigFramesIgnored) {
  // The controller places spaces only over its management network. A frame
  // shaped like the retired in-band chain (type 5) or group (type 6)
  // configuration — epoch 1000, members {3} — injected at the edge decodes
  // as malformed and is dropped, so it can neither move the switch's epoch
  // nor strand its writes behind a chain nobody else uses.
  FabricConfig cfg;
  cfg.num_switches = 3;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  ShmRuntime& rt = fabric.runtime(0);
  const Placement chain = rt.placement(kSpace);
  const Placement group = rt.placement(kSpace + 1);
  for (std::uint8_t type : {std::uint8_t{5}, std::uint8_t{6}}) {
    ByteWriter w(16);
    w.u8(type);
    w.u32(1000);
    w.u16(1);
    w.u32(3);
    pkt::PacketSpec spec;
    spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
    spec.ip_dst = net::node_ip(1);
    spec.protocol = pkt::kProtoUdp;
    spec.src_port = pkt::kSwishPort;
    spec.dst_port = pkt::kSwishPort;
    spec.payload = std::move(w).take();
    fabric.sw(0).inject(pkt::build_packet(spec));
  }
  fabric.run_for(1 * kMs);
  EXPECT_EQ(rt.placement(kSpace), chain);
  EXPECT_EQ(rt.placement(kSpace + 1), group);
  const auto drops = fabric.all_records().drop_counts;
  EXPECT_EQ(drops.at(1)[static_cast<std::size_t>(telemetry::DropReason::kParseError)], 2u);

  bool committed = false;
  rt.write({{kSpace, 1, 9}}, pkt::Packet{}, [&](pkt::Packet&&) { committed = true; });
  fabric.run_for(100 * kMs);
  EXPECT_TRUE(committed);
  EXPECT_EQ(fabric.metrics_snapshot().values.at("shm.sw1.sro.writes_failed").count, 0u);
}

TEST(RuntimeMisc, UnknownSpacesAreSafeNoOps) {
  FabricConfig cfg;
  cfg.num_switches = 2;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  ShmRuntime& rt = fabric.runtime(0);
  // A write naming an undeclared space is refused outright: nothing is
  // buffered or submitted to any engine, and its release never runs.
  bool released = false;
  EXPECT_FALSE(rt.write({{999, 0, 1}}, pkt::Packet{}, [&](pkt::Packet&&) { released = true; }));
  EXPECT_EQ(rt.cp_buffered_packets(), 0u);
  EXPECT_FALSE(rt.write({}, pkt::Packet{}, [&](pkt::Packet&&) { released = true; }));
  fabric.run_for(100 * kMs);
  EXPECT_FALSE(released);
  EXPECT_EQ(fabric.metrics_snapshot().values.at("shm.sw1.sro.writes_submitted").count, 0u);
  EXPECT_EQ(rt.update(999, 0, 1), std::nullopt);
  std::uint64_t value = 7;
  EXPECT_EQ(rt.read(nullptr, 999, 0, value), ReadStatus::kMiss);
  EXPECT_EQ(value, 7u);  // kMiss leaves the out-param untouched
  EXPECT_EQ(rt.sro_space(999), nullptr);
  EXPECT_EQ(rt.ewo_space(999), nullptr);
  EXPECT_FALSE(rt.hosts_space(999));
  EXPECT_TRUE(rt.hosts_space(kSpace));
}

TEST(RuntimeMisc, ProtocolByteCountersAccount) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  fabric.runtime(0).write({{kSpace, 1, 5}}, pkt::Packet{}, nullptr);
  fabric.runtime(0).update(kSpace + 1, 0, 1);
  fabric.run_for(100 * kMs);
  const auto snap = fabric.metrics_snapshot();
  EXPECT_GT(snap.values.at("shm.sw1.sro.bytes_write").count, 0u);
  EXPECT_GT(snap.values.at("shm.sw1.ewo.bytes").count, 0u);
  // Latency histogram is coherent.
  const Histogram& h = snap.values.at("shm.sw1.sro.write_latency_ns").hist;
  EXPECT_EQ(h.count(), 1u);
  EXPECT_LE(h.p50(), h.p99());
}

TEST(RuntimeMisc, FanOutSendFramesEachDestinationSeparately) {
  // One send to three switches under span sampling and 1-in-2 INT sampling.
  // Virtual time never advances, so these are the only frames sent.
  FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.switch_config.int_sample_every = 2;
  Fabric fabric(cfg);
  fabric.install(nullptr);
  fabric.start();  // installs the routes
  fabric.enable_spans(1);
  std::vector<std::pair<NodeId, pkt::Packet>> frames;
  fabric.network().set_tap([&](NodeId from, NodeId to, const pkt::Packet& p, TimeNs) {
    if (from == 1) frames.emplace_back(to, p);
  });

  ShmRuntime& rt = fabric.runtime(0);
  const pkt::SwishMessage msg = pkt::EwoUpdate{1, false, {{7, 1, 2, 3}, {7, 4, 5, 6}}};
  const std::vector<SwitchId> dsts{3, 2, 4};
  telemetry::SpanRecorder& spans = fabric.simulator().spans();
  const telemetry::SpanContext root = spans.maybe_start_trace();
  std::size_t sent = 0;
  {
    ActiveTraceScope scope(rt, root);
    sent = rt.send(dsts, msg);
  }

  ASSERT_EQ(frames.size(), dsts.size());
  std::size_t wire_bytes = 0;
  std::set<std::uint64_t> span_ids;
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    const auto& [to, frame] = frames[i];
    EXPECT_EQ(to, dsts[i]) << "frames leave in list order";
    const pkt::ParsedPacket* parsed = frame.parsed();
    ASSERT_NE(parsed, nullptr);
    EXPECT_EQ(parsed->eth.dst, pkt::MacAddr::for_node(dsts[i]));
    EXPECT_EQ(parsed->ipv4->dst, net::node_ip(dsts[i]));
    EXPECT_EQ(parsed->ipv4->src, net::node_ip(1));
    EXPECT_EQ(parsed->udp->dst_port, pkt::kSwishPort);
    telemetry::SpanContext ctx;
    const auto decoded = pkt::decode_message(frame.l4_payload(*parsed), &ctx);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, msg);
    // Each destination carries its own send span, a child of the root.
    EXPECT_TRUE(ctx.sampled());
    EXPECT_EQ(ctx.trace_id, root.trace_id);
    span_ids.insert(ctx.span_id);
    // The countdown (2) picks the second send for the INT trailer.
    EXPECT_EQ(pkt::has_int_trailer(frame), i == 1) << "frame " << i;
    wire_bytes += frame.size() - pkt::int_trailer_size(frame);  // egress added a hop record
  }
  EXPECT_EQ(span_ids.size(), dsts.size());
  EXPECT_EQ(sent, wire_bytes) << "send returns the frames' bytes, trailers excluded";
  std::size_t send_spans = 0;
  for (const telemetry::Span& s : spans.spans()) {
    if (std::string_view(s.name) != "EwoUpdate") continue;
    ++send_spans;
    EXPECT_EQ(s.parent_span, root.span_id);
    EXPECT_TRUE(span_ids.contains(s.span_id));
  }
  EXPECT_EQ(send_spans, dsts.size());
}

TEST(RuntimeMisc, MalformedProtocolPacketConsumedSilently) {
  FabricConfig cfg;
  cfg.num_switches = 2;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  // UDP to the SwiShmem port with garbage payload: must be dropped, not
  // crash or reach an NF.
  pkt::PacketSpec spec;
  spec.ip_src = net::node_ip(2);
  spec.ip_dst = net::node_ip(1);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = pkt::kSwishPort;
  spec.dst_port = pkt::kSwishPort;
  spec.payload = {0xff, 0x00, 0x01};
  fabric.sw(0).inject(pkt::build_packet(spec));
  fabric.run_for(10 * kMs);
  SUCCEED();
}

TEST(RuntimeMisc, WriterReleaseRunsOnWriterSwitch) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  // The release callback runs after the tail ack returns to the writer: its
  // timing must include a full chain traversal, not fire synchronously.
  TimeNs released_at = -1;
  const TimeNs submit_at = fabric.simulator().now();
  fabric.runtime(2).write({{kSpace, 3, 1}}, pkt::Packet{}, [&](pkt::Packet&&) {
    released_at = fabric.simulator().now();
  });
  EXPECT_EQ(released_at, -1);  // not synchronous
  fabric.run_for(100 * kMs);
  ASSERT_GT(released_at, submit_at);
  EXPECT_GT(released_at - submit_at, 2 * cfg.link.propagation_delay);
}

}  // namespace
}  // namespace swish::shm
