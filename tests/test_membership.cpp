// Membership-layer tests: config validation, heartbeat/SWIM verdict
// conformance under loss, the flapping-link false-positive scenario the SWIM
// suspicion window absorbs, and SWIM-specific behavior (decentralized
// detection, refutation after revival, shard determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "packet/packet.hpp"
#include "swishmem/fabric.hpp"
#include "swishmem/membership/swim_membership.hpp"
#include "swishmem/runtime.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kSpace = 60;

FabricConfig base_cfg(MembershipProtocol proto, std::size_t switches = 4) {
  FabricConfig c;
  c.num_switches = switches;
  c.runtime.heartbeat_period = 5 * kMs;
  c.controller.heartbeat_timeout = 20 * kMs;
  c.controller.check_period = 5 * kMs;
  c.controller.membership = proto;
  return c;
}

struct Rig {
  Fabric fabric;

  explicit Rig(FabricConfig cfg) : fabric(cfg) {
    SpaceConfig sp;
    sp.id = kSpace;
    sp.name = "mem";
    sp.cls = ConsistencyClass::kSRO;
    sp.size = 64;
    fabric.add_space(sp);
    fabric.install(nullptr);
    fabric.start();
  }

  /// Ids the controller's membership view has committed to faulty.
  std::set<SwitchId> faulty() {
    std::set<SwitchId> out;
    for (const auto& [id, st] : fabric.controller().membership().view().members) {
      if (st.state == MemberState::kFaulty) out.insert(id);
    }
    return out;
  }

  /// Cuts (loss=1) or heals (loss=0) every link of switch `i`, including its
  /// controller link. Single-shard rigs only: link state is sender-owned.
  void flap_switch(std::size_t i, double loss) {
    const NodeId victim = fabric.sw(i).id();
    for (std::size_t j = 0; j < fabric.size(); ++j) {
      if (j != i) fabric.network().set_link_loss(victim, fabric.sw(j).id(), loss);
    }
    fabric.network().set_link_loss(victim, fabric.controller().id(), loss);
  }
};

std::uint64_t metric(const telemetry::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.values) {
    if (n == name) return v.count;
  }
  return 0;
}

/// Sums `membership.sw<N>.<metric>` over every switch.
std::uint64_t swim_total(const telemetry::MetricsSnapshot& snap, const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& [n, v] : snap.values) {
    if (n.rfind("membership.sw", 0) == 0 && n.size() > name.size() &&
        n.compare(n.size() - name.size(), name.size(), name) == 0 &&
        n[n.size() - name.size() - 1] == '.') {
      total += v.count;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Config validation (construction-time, so a bad CLI combo can exit 2 before
// any event runs)
// ---------------------------------------------------------------------------

TEST(MembershipConfig, RejectsZeroCheckPeriod) {
  FabricConfig c = base_cfg(MembershipProtocol::kHeartbeat);
  c.controller.check_period = 0;
  EXPECT_THROW({ Fabric f(c); }, std::invalid_argument);
}

TEST(MembershipConfig, RejectsZeroHeartbeatTimeout) {
  FabricConfig c = base_cfg(MembershipProtocol::kHeartbeat);
  c.controller.heartbeat_timeout = 0;
  EXPECT_THROW({ Fabric f(c); }, std::invalid_argument);
}

TEST(MembershipConfig, RejectsTimeoutNotExceedingCheckPeriod) {
  FabricConfig c = base_cfg(MembershipProtocol::kHeartbeat);
  c.controller.heartbeat_timeout = c.controller.check_period;  // first scan would fire
  EXPECT_THROW({ Fabric f(c); }, std::invalid_argument);
}

TEST(MembershipConfig, AcceptsValidTimingForBothProtocols) {
  for (auto proto : {MembershipProtocol::kHeartbeat, MembershipProtocol::kSwim}) {
    Rig rig(base_cfg(proto));
    EXPECT_EQ(rig.fabric.controller().membership().protocol(), proto);
    EXPECT_EQ(rig.fabric.controller().membership().view().members.size(), 4u);
  }
}

TEST(MembershipConfig, ProtocolNamesRoundTrip) {
  EXPECT_EQ(parse_membership_protocol("heartbeat"), MembershipProtocol::kHeartbeat);
  EXPECT_EQ(parse_membership_protocol("swim"), MembershipProtocol::kSwim);
  EXPECT_STREQ(to_string(MembershipProtocol::kHeartbeat), "heartbeat");
  EXPECT_STREQ(to_string(MembershipProtocol::kSwim), "swim");
  EXPECT_THROW(parse_membership_protocol("raft"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Conformance: both protocols must reach the same final verdicts
// ---------------------------------------------------------------------------

class MembershipConformance : public ::testing::TestWithParam<std::uint64_t> {};

std::set<SwitchId> verdicts_after_kill(MembershipProtocol proto, std::uint64_t seed) {
  FabricConfig c = base_cfg(proto);
  c.seed = seed;
  c.link.loss_probability = 0.1;  // every detector message can be dropped
  Rig rig(c);
  rig.fabric.run_for(50 * kMs);
  rig.fabric.kill_switch(2);
  rig.fabric.run_for(400 * kMs);
  // The verdict must have driven the unchanged repair machinery.
  const auto& chain = rig.fabric.controller().placement(kSpace)->members;
  EXPECT_EQ(chain.size(), 3u) << to_string(proto) << " seed " << seed;
  EXPECT_EQ(std::count(chain.begin(), chain.end(), rig.fabric.sw(2).id()), 0);
  EXPECT_EQ(rig.faulty(), std::set<SwitchId>{rig.fabric.sw(2).id()});
  return rig.faulty();
}

TEST_P(MembershipConformance, SameFinalVerdictsUnderLoss) {
  const auto heartbeat = verdicts_after_kill(MembershipProtocol::kHeartbeat, GetParam());
  const auto swim = verdicts_after_kill(MembershipProtocol::kSwim, GetParam());
  EXPECT_EQ(heartbeat, swim);
}

INSTANTIATE_TEST_SUITE_P(LossSeeds, MembershipConformance, ::testing::Values(1, 7, 23));

// ---------------------------------------------------------------------------
// Flapping link: a 30 ms total blackout, longer than the 20 ms heartbeat
// timeout but shorter than SWIM's 40 ms suspicion window.
// ---------------------------------------------------------------------------

TEST(MembershipFlap, HeartbeatTimeoutFalselyDeclaresFlappingSwitch) {
  Rig rig(base_cfg(MembershipProtocol::kHeartbeat));
  rig.fabric.run_for(50 * kMs);
  rig.flap_switch(1, 1.0);
  rig.fabric.run_for(30 * kMs);
  rig.flap_switch(1, 0.0);
  rig.fabric.run_for(200 * kMs);
  // The plain timeout cannot tell a flap from a crash: false positive.
  EXPECT_EQ(rig.faulty(), std::set<SwitchId>{rig.fabric.sw(1).id()});
  EXPECT_TRUE(rig.fabric.sw(1).alive());
  const auto snap = rig.fabric.metrics_snapshot();
  EXPECT_EQ(metric(snap, "membership.failures_detected"), 1u);
}

TEST(MembershipFlap, SwimSuspicionWindowAbsorbsTheFlap) {
  Rig rig(base_cfg(MembershipProtocol::kSwim));
  rig.fabric.run_for(50 * kMs);
  rig.flap_switch(1, 1.0);
  rig.fabric.run_for(30 * kMs);
  rig.flap_switch(1, 0.0);
  rig.fabric.run_for(200 * kMs);
  // Peers suspected the silent switch but direct contact / refutation cleared
  // the rumor before the suspicion timeout committed it: no false positive.
  EXPECT_TRUE(rig.faulty().empty());
  EXPECT_TRUE(rig.fabric.sw(1).alive());
  const auto snap = rig.fabric.metrics_snapshot();
  EXPECT_EQ(metric(snap, "membership.failures_detected"), 0u);
  EXPECT_GE(swim_total(snap, "suspicions"), 1u);
  EXPECT_EQ(swim_total(snap, "faults_declared"), 0u);
}

// ---------------------------------------------------------------------------
// SWIM specifics
// ---------------------------------------------------------------------------

TEST(MembershipSwim, AgentsExistOnlyInSwimMode) {
  Rig hb(base_cfg(MembershipProtocol::kHeartbeat));
  Rig sw(base_cfg(MembershipProtocol::kSwim));
  hb.fabric.run_for(10 * kMs);
  sw.fabric.run_for(10 * kMs);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(hb.fabric.runtime(i).swim(), nullptr);
    EXPECT_NE(sw.fabric.runtime(i).swim(), nullptr);
  }
}

TEST(MembershipSwim, DetectsKilledSwitchAndRepairsChain) {
  Rig rig(base_cfg(MembershipProtocol::kSwim));
  SwitchId detected = kInvalidNode;
  TimeNs detected_at = 0;
  rig.fabric.controller().on_failure_detected = [&](SwitchId id, TimeNs t) {
    detected = id;
    detected_at = t;
  };
  rig.fabric.run_for(50 * kMs);
  const TimeNs kill_time = rig.fabric.simulator().now();
  rig.fabric.kill_switch(2);
  rig.fabric.run_for(300 * kMs);

  EXPECT_EQ(detected, rig.fabric.sw(2).id());
  EXPECT_GT(detected_at, kill_time);
  // probe round (10 ms) + ping/indirect timeouts + 40 ms suspicion + slack
  EXPECT_LT(detected_at - kill_time, 100 * kMs);
  const auto& chain = rig.fabric.controller().placement(kSpace)->members;
  EXPECT_EQ(chain.size(), 3u);
  EXPECT_EQ(std::count(chain.begin(), chain.end(), rig.fabric.sw(2).id()), 0);

  // The verdict originated at a switch, not the controller.
  const auto snap = rig.fabric.metrics_snapshot();
  EXPECT_GE(swim_total(snap, "faults_declared"), 1u);
  EXPECT_GE(swim_total(snap, "updates_sent"), 1u);
  EXPECT_EQ(metric(snap, "membership.failures_detected"), 1u);
}

TEST(MembershipSwim, DetectionRunsWithoutTheController) {
  // Sever every switch<->controller link, then kill a switch: the surviving
  // agents must still converge on the faulty verdict among themselves — the
  // controller is not in the detection path at all.
  Rig rig(base_cfg(MembershipProtocol::kSwim));
  rig.fabric.run_for(50 * kMs);
  for (std::size_t i = 0; i < 4; ++i) {
    rig.fabric.network().set_link_loss(rig.fabric.sw(i).id(), rig.fabric.controller().id(), 1.0);
  }
  const SwitchId victim = rig.fabric.sw(2).id();
  rig.fabric.kill_switch(2);
  rig.fabric.run_for(300 * kMs);

  for (std::size_t i = 0; i < 4; ++i) {
    if (i == 2) continue;
    ASSERT_NE(rig.fabric.runtime(i).swim(), nullptr);
    EXPECT_EQ(rig.fabric.runtime(i).swim()->peer_state(victim), MemberState::kFaulty)
        << "agent " << i;
  }
  // The verdict reports were all lost on the severed links: the controller
  // still believes the victim is alive, proving it consumed nothing.
  EXPECT_TRUE(rig.faulty().empty());
}

TEST(MembershipSwim, RevivedSwitchRefutesStaleVerdictsAndRejoins) {
  Rig rig(base_cfg(MembershipProtocol::kSwim));
  rig.fabric.run_for(50 * kMs);
  rig.fabric.kill_switch(1);
  rig.fabric.run_for(300 * kMs);
  ASSERT_EQ(rig.faulty(), std::set<SwitchId>{rig.fabric.sw(1).id()});

  rig.fabric.revive_switch(1);
  rig.fabric.run_for(500 * kMs);
  // Readmitted and refuted: nobody may re-fail the member off stale rumors.
  EXPECT_TRUE(rig.faulty().empty());
  EXPECT_EQ(std::ranges::count(rig.fabric.runtime(1).placement(kSpace).members,
                               rig.fabric.sw(1).id()),
            1);
  ASSERT_NE(rig.fabric.runtime(1).swim(), nullptr);
  EXPECT_GE(rig.fabric.runtime(1).swim()->incarnation(), 1u);
}

TEST(MembershipSwim, RepeatRunsProduceIdenticalMetrics) {
  auto run_once = [] {
    pkt::PacketStats::global().reset();
    FabricConfig c = base_cfg(MembershipProtocol::kSwim);
    c.seed = 5;
    c.link.loss_probability = 0.05;
    Rig rig(c);
    rig.fabric.run_for(40 * kMs);
    rig.fabric.kill_switch(3);
    rig.fabric.run_for(250 * kMs);
    return rig.fabric.metrics_snapshot().to_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MembershipSwim, ShardCountDoesNotChangeVerdicts) {
  auto verdicts_at = [](std::size_t shards) {
    FabricConfig c = base_cfg(MembershipProtocol::kSwim);
    c.shards = shards;
    c.seed = 9;
    Rig rig(c);
    rig.fabric.run_for(50 * kMs);
    rig.fabric.kill_switch(2);
    rig.fabric.run_for(300 * kMs);
    EXPECT_EQ(rig.fabric.controller().placement(kSpace)->members.size(), 3u)
        << shards << " shards";
    return rig.faulty();
  };
  const auto one = verdicts_at(1);
  const auto two = verdicts_at(2);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one.size(), 1u);
}

}  // namespace
}  // namespace swish::shm
