// CON: in-fabric consensus — a Paxos-style replicated log mapped onto switch
// pipelines (ROADMAP item 3, "Paxos Made Switch-y"). Writes are linearizable
// through majority quorums instead of a chain: an elected coordinator
// sequences each write (or multi-key transaction) as one log slot, proposes
// it to every replica (ConAccept), and commits once a majority — counting
// itself — has accepted. Commitment piggybacks on subsequent accepts and on
// explicit ConLearn messages, which double as the repair carrier: every
// ConAccepted reply reports the acceptor's applied prefix, and the
// coordinator re-sends missing slots until all live replicas converge (this
// is also how a revived, empty replica catches up without controller help).
//
// Coordinator election is deterministic: the lowest-id member of the current
// placement. The controller bumps the placement epoch on every push
// (bootstrap, failure, readmission); every replica recomputes the coordinator
// in on_config_update(), and a newly elected coordinator runs Paxos phase 1
// (ConPrepare/ConPromise) over the survivors to recover accepted-but-
// uncommitted slots before opening the log for new writes — which is what
// makes a mid-transaction coordinator failure atomic: an orphaned slot is
// either re-proposed wholesale or never applied anywhere.
//
// Transactions: a write() batch spanning multiple keys/spaces of this engine
// occupies ONE slot, and slots apply contiguously in log order at every
// replica, so the batch is all-or-nothing by construction ("Packet
// Transactions" over switch state).
//
// Reads: the coordinator reads its applied prefix (authoritative). Followers
// hold a read lease refreshed by every accept/learn from the current-ballot
// coordinator; while the lease is fresh they answer locally (bounded
// staleness: at most the in-flight learn window), otherwise the read is
// encapsulated to the coordinator like an SRO redirect.
#pragma once

#include <map>
#include <set>

#include "swishmem/protocols/engine.hpp"
#include "swishmem/spaces.hpp"

namespace swish::shm {

class ConsensusEngine final : public ProtocolEngine {
 public:
  explicit ConsensusEngine(EngineHost& host);

  [[nodiscard]] ConsistencyClass cls() const noexcept override {
    return ConsistencyClass::kCON;
  }
  [[nodiscard]] const char* name() const noexcept override { return "con"; }

  void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) override;
  [[nodiscard]] bool hosts_space(std::uint32_t space) const noexcept override;
  void start() override;
  void reset() override;
  void on_config_update() override;

  ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                  std::uint64_t& value) override;
  [[nodiscard]] std::optional<std::uint64_t> read_lpm(std::uint32_t space,
                                                      std::uint64_t key) override;
  void write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) override;

  [[nodiscard]] std::vector<pkt::MsgType> message_types() const override;
  bool handle_message(const pkt::SwishMessage& msg) override;

  [[nodiscard]] std::unique_ptr<SnapshotSource> snapshot_source(
      std::optional<std::uint32_t> space_filter) override {
    return sro_snapshot_source(spaces_, space_filter);
  }
  void apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) override;

  // -- Introspection (tests, tools) ---------------------------------------------
  [[nodiscard]] const SroSpaceState* space_state(std::uint32_t id) const;
  /// The coordinator this replica currently believes in.
  [[nodiscard]] SwitchId coordinator() const noexcept { return coordinator_; }
  [[nodiscard]] bool is_coordinator() const noexcept {
    return coordinator_ == host_.self();
  }
  /// Highest contiguously applied slot on this replica.
  [[nodiscard]] std::uint64_t applied_upto() const noexcept { return applied_upto_; }
  /// True while this replica may answer reads locally.
  [[nodiscard]] bool lease_valid() const;

 private:
  /// Handles to this engine's registry cells under `shm.sw<id>.con.*`.
  struct Stats {
    telemetry::Counter writes_submitted;
    telemetry::Counter writes_committed;   ///< slots committed (coordinator)
    telemetry::Counter writes_failed;      ///< forward retry budget exhausted
    telemetry::Counter writes_rejected;    ///< queue/buffer limit drops
    telemetry::Counter forwards_sent;      ///< follower -> coordinator submissions
    telemetry::Counter forward_retries;
    telemetry::Counter accepts_seen;       ///< phase-2a messages processed
    telemetry::Counter stale_ballot_drops;
    telemetry::Counter slots_applied;      ///< log entries applied locally
    telemetry::Counter repair_resends;     ///< learns re-sent to lagging replicas
    telemetry::Counter lease_renewals;     ///< idle-period lease heartbeats sent
    telemetry::Counter elections_started;  ///< phase-1 rounds begun here
    telemetry::Counter elections_completed;
    telemetry::Counter reads_local;        ///< lease-covered or coordinator reads
    telemetry::Counter reads_redirected;   ///< lease expired -> coordinator
    telemetry::Counter bytes;              ///< all kCON wire traffic sent
    telemetry::Histo commit_latency;       ///< submit -> release at the writer
  };

  /// One log entry: the transaction plus the ballot it was accepted under.
  struct LogEntry {
    std::uint64_t ballot = 0;
    SwitchId writer = kInvalidNode;
    std::uint64_t req_id = 0;
    std::vector<pkt::WriteOp> ops;
    /// True once this replica KNOWS the entry is the chosen value for its
    /// slot (a learn named the slot, a commit-prefix proof covered it at a
    /// ballot the entry matches, or this coordinator committed it). An
    /// accepted-but-unchosen entry must never be applied: a commit prefix
    /// can pass over a slot whose local entry is a stale minority accept
    /// that a successor coordinator superseded.
    bool committed = false;
  };

  /// Coordinator-side per-slot progress toward a quorum.
  struct SlotProgress {
    std::set<SwitchId> accepted_by;  ///< ordered: deterministic iteration
    bool committed = false;
  };

  /// Writer-side pending submission (local or forwarded).
  struct PendingWrite {
    std::vector<pkt::WriteOp> ops;
    pkt::Packet output;
    WriteRelease release;
    TimeNs submit_time = 0;
    unsigned retries = 0;
    sim::TimerHandle retry_timer;  ///< forward retry / deposed-coordinator re-route
    telemetry::SpanContext trace;
  };

  void on_forward(const pkt::ConForward& msg);
  void on_prepare(const pkt::ConPrepare& msg);
  void on_promise(const pkt::ConPromise& msg);
  void on_accept(const pkt::ConAccept& msg);
  void on_accepted(const pkt::ConAccepted& msg);
  void on_learn(const pkt::ConLearn& msg);

  /// Coordinator: sequences `entry` at the next slot and proposes it.
  void propose(LogEntry entry);
  /// Coordinator: (re-)sends the ConAccept for `slot` to every peer.
  void send_accept(std::uint64_t slot);
  /// Coordinator: advances the contiguous commit prefix, applies newly
  /// committed slots, releases matching local writes, notifies learners.
  void advance_commit();
  /// Follower: forwards a pending write to the coordinator (with retry).
  void send_forward(std::uint64_t req_id);
  void arm_forward_retry(std::uint64_t req_id);
  /// Marks log entries in (applied prefix, `upto`] as chosen, but only those
  /// accepted under at least `ballot` — anything older may be a superseded
  /// minority accept and stays a gap for the repair loop to re-learn.
  void mark_committed(std::uint64_t upto, std::uint64_t ballot);
  /// Applies every KNOWN-CHOSEN slot up to `upto` that has not been applied
  /// yet; stops at the first gap or unchosen entry. Reports applies to the
  /// observatory.
  void apply_committed_upto(std::uint64_t upto);
  void apply_entry(std::uint64_t slot, const LogEntry& entry);
  /// Coordinator repair tick: re-send learns to replicas whose applied
  /// prefix lags the commit prefix; also re-drive unaccepted slots.
  void repair_tick();
  /// Election: become coordinator for the current epoch (phase 1).
  void begin_election();
  void finish_election();
  /// Releases a pending write whose transaction reached the applied log.
  void release_write(SwitchId writer, std::uint64_t req_id);
  void refresh_lease(std::uint64_t ballot);

  void deliver(SwitchId dst, const pkt::SwishMessage& msg);
  /// The acceptor set and ballot epoch: one log serves every kCON space, and
  /// every kCON space spans every switch (add_remote_space refuses subsets)
  /// with placements that move in lockstep, so the lowest space's placement
  /// is every space's.
  [[nodiscard]] const Placement& placement() const noexcept;
  [[nodiscard]] const std::vector<SwitchId>& members() const noexcept {
    return placement().members;
  }
  [[nodiscard]] std::size_t quorum() const noexcept { return members().size() / 2 + 1; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return placement().epoch; }
  [[nodiscard]] std::uint64_t mint_req_id() noexcept {
    return (static_cast<std::uint64_t>(host_.self()) << 40) |
           (++next_req_id_ & ((1ULL << 40) - 1));
  }

  std::map<std::uint32_t, std::unique_ptr<SroSpaceState>> spaces_;

  // -- Acceptor state ----------------------------------------------------------
  std::uint64_t promised_ballot_ = 0;        ///< highest ballot promised/accepted
  std::map<std::uint64_t, LogEntry> log_;    ///< slot -> accepted entry
  std::uint64_t committed_upto_ = 0;         ///< highest slot known committed
  std::uint64_t applied_upto_ = 0;           ///< contiguously applied prefix
  TimeNs lease_expiry_ = 0;                  ///< follower read lease
  std::uint64_t lease_ballot_ = 0;           ///< ballot the lease was granted under

  // -- Coordinator state -------------------------------------------------------
  SwitchId coordinator_ = kInvalidNode;
  std::uint64_t ballot_ = 0;                 ///< our ballot while coordinating
  bool electing_ = false;                    ///< phase 1 in flight
  std::set<SwitchId> promises_;              ///< phase-1 responders (incl. self)
  std::uint64_t next_slot_ = 0;              ///< highest slot ever proposed here
  std::map<std::uint64_t, SlotProgress> progress_;
  std::map<SwitchId, std::uint64_t> peer_applied_;  ///< repair bookkeeping
  /// Idempotent forward dedup: (writer, req_id) -> slot. Blunt-cleared past
  /// 65536 entries (same bound as the chain head's dedup map).
  std::map<std::pair<SwitchId, std::uint64_t>, std::uint64_t> sequenced_;

  // -- Writer state ------------------------------------------------------------
  std::map<std::uint64_t, PendingWrite> pending_writes_;  ///< req_id -> write
  std::uint64_t next_req_id_ = 0;

  Stats stats_;
};

}  // namespace swish::shm
