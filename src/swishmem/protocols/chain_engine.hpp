// Shared chain-replication machinery for the strongly-consistent classes
// (§6.1): writer-side control-plane buffering with timeout/retry, head
// sequencing with retransmit dedup, per-slot in-order relay, tail commit +
// ack multicast, CRAQ-style reads, tail redirection, and the donor-side
// snapshot contract of §6.3. SroEngine and EroEngine differ only in read
// locality (the pending-bit check vs always-local).
#pragma once

#include <unordered_map>

#include "common/stats.hpp"
#include "pisa/switch.hpp"
#include "swishmem/protocols/engine.hpp"
#include "swishmem/spaces.hpp"

namespace swish::shm {

class ChainEngine : public ProtocolEngine {
 public:
  /// `proto_name` ("sro" / "ero") names this engine's registry subtree; the
  /// base class cannot call the name() virtual during construction.
  ChainEngine(ShmRuntime& host, const char* proto_name);

  // -- ProtocolEngine ----------------------------------------------------------
  void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) override;
  void add_remote_space(const SpaceConfig& config) override;
  [[nodiscard]] bool hosts_space(std::uint32_t space) const noexcept override;
  [[nodiscard]] bool serves_space(std::uint32_t space) const noexcept override;
  void reset() override;

  ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                  std::uint64_t& value) override;
  [[nodiscard]] std::optional<std::uint64_t> read_lpm(std::uint32_t space,
                                                      std::uint64_t key) override;
  void write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) override;

  [[nodiscard]] std::vector<pkt::MsgType> message_types() const override;
  using ProtocolEngine::handle_message;
  bool handle_message(pkt::SwishMessage& msg) override;

  void append_snapshot_sources(std::optional<std::uint32_t> space_filter,
                               SnapshotSources& out) override {
    append_sro_snapshot_sources(spaces_, space_filter, out);
  }
  void apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) override;

  // -- Introspection used by the runtime's accessors ----------------------------
  [[nodiscard]] const SroSpaceState* space_state(std::uint32_t id) const;
  [[nodiscard]] std::size_t cp_buffered_packets() const noexcept {
    return pending_writes_.size();
  }

 protected:
  /// Read-locality policy: true when a read of `key` may be served locally
  /// without consulting the guard table (the SRO/ERO split).
  [[nodiscard]] virtual bool always_local() const noexcept = 0;

 private:
  /// Handles to this engine's registry cells under `shm.sw<id>.<sro|ero>.*`.
  struct Stats {
    // Writer side.
    telemetry::Counter writes_submitted;
    telemetry::Counter writes_committed;
    telemetry::Counter write_retries;
    telemetry::Counter writes_failed;    ///< gave up after max retries
    telemetry::Counter writes_rejected;  ///< CP buffer full
    // Chain side.
    telemetry::Counter chain_requests_seen;
    telemetry::Counter chain_gap_drops;  ///< out-of-order writes awaiting retry
    telemetry::Counter chain_stale_epoch;
    // Reads.
    telemetry::Counter reads_local;
    telemetry::Counter reads_redirected;
    // Protocol bandwidth sent by this engine.
    telemetry::Counter bytes_write;     ///< WriteRequest + WriteAck
    telemetry::Counter bytes_redirect;  ///< ReadRedirect
    // Writer-observed commit latency (submit -> ack), ns.
    telemetry::Histo write_latency;
  };

  struct PendingWrite {
    std::vector<pkt::WriteOp> ops;
    pkt::Packet output;
    WriteRelease release;
    unsigned retries = 0;
    TimeNs submit_time = 0;
    sim::TimerHandle retry_timer;
    telemetry::SpanContext trace;  ///< causal chain of this write (if sampled)
  };

  // Message handlers. A request is taken by value: each hop forwards the
  // one it received, moved along rather than copied.
  void on_write_request(pkt::WriteRequest msg);
  void on_write_ack(const pkt::WriteAck& msg);

  // Chain roles.
  void head_process(pkt::WriteRequest msg);
  void relay_process(pkt::WriteRequest msg);
  void tail_commit(pkt::WriteRequest msg);
  [[nodiscard]] bool ops_table_backed(const std::vector<pkt::WriteOp>& ops) const;

  // Writer side.
  void send_write_request(std::uint64_t write_id);
  void arm_retry(std::uint64_t write_id);

  // Transport helpers accounting into bytes_write.
  void send_chain_msg(SwitchId dst, const pkt::SwishMessage& msg);

  [[nodiscard]] SwitchId chain_successor(const Placement& chain) const noexcept;
  [[nodiscard]] static bool chain_contains(const Placement& chain, SwitchId sw) noexcept;

  std::unordered_map<std::uint32_t, std::unique_ptr<SroSpaceState>> spaces_;
  /// Storage of spaces this switch was migrated out of, kept for a rejoin.
  std::unordered_map<std::uint32_t, std::unique_ptr<SroSpaceState>> parked_;
  std::unordered_map<std::uint32_t, SpaceConfig> remote_spaces_;

  // Writer state (CP DRAM).
  std::unordered_map<std::uint64_t, PendingWrite> pending_writes_;
  std::uint64_t next_write_id_ = 0;

  // Head dedup: write_id -> assigned seqs for in-flight writes.
  std::unordered_map<std::uint64_t, std::vector<SeqNum>> head_assigned_;

  std::vector<SwitchId> ack_dsts_;  ///< the tail's ack fan-out list, reused

  Stats stats_;
};

/// Strong Read Optimized (§6.1): CRAQ-style local reads, pending registers
/// redirect to the tail.
class SroEngine final : public ChainEngine {
 public:
  explicit SroEngine(ShmRuntime& host) : ChainEngine(host, "sro") {}
  [[nodiscard]] ConsistencyClass cls() const noexcept override {
    return ConsistencyClass::kSRO;
  }
  [[nodiscard]] const char* name() const noexcept override { return "sro"; }

 protected:
  [[nodiscard]] bool always_local() const noexcept override { return false; }
};

/// Eventual Read Optimized (§6.1): SRO's write path, always-local reads, no
/// pending bits.
class EroEngine final : public ChainEngine {
 public:
  explicit EroEngine(ShmRuntime& host) : ChainEngine(host, "ero") {}
  [[nodiscard]] ConsistencyClass cls() const noexcept override {
    return ConsistencyClass::kERO;
  }
  [[nodiscard]] const char* name() const noexcept override { return "ero"; }

 protected:
  [[nodiscard]] bool always_local() const noexcept override { return true; }
};

}  // namespace swish::shm
