// OWN: per-key single-writer ownership with a home-replica directory — the
// protocol the paper sketches for write-intensive strongly-consistent state
// (§6.3's NAT port-allocation discussion). Each key has a home replica,
// chosen by hashing the key over the space's live members; the home tracks
// the key's current owner in a directory and keeps a backup copy. A switch
// that wants to write a key it does not own asks the home (OwnRequest); the
// home either grants from its backup (key unowned) or revokes the current
// owner, which relinquishes and ships (value, version) back through the home
// (OwnGrant).
// Writes by the owner are purely local and linearizable per key; a periodic
// OwnUpdate flush backs dirty keys up to their homes, which doubles as
// directory self-healing (claim flag). Every hop is idempotent: requests are
// retried with the same req_id, grants are version-checked, and a stale
// grant can never install dual ownership because the requester only accepts
// a grant matching its outstanding req_id.
#pragma once

#include <map>

#include "swishmem/protocols/engine.hpp"
#include "swishmem/protocols/own_space.hpp"

namespace swish::shm {

class OwnerEngine final : public ProtocolEngine {
 public:
  explicit OwnerEngine(EngineHost& host);

  [[nodiscard]] ConsistencyClass cls() const noexcept override {
    return ConsistencyClass::kOWN;
  }
  [[nodiscard]] const char* name() const noexcept override { return "own"; }

  void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) override;
  [[nodiscard]] bool hosts_space(std::uint32_t space) const noexcept override;
  void start() override;
  void reset() override;
  void on_config_update() override;

  ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                  std::uint64_t& value) override;
  void write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) override;
  /// Applied before returning when this switch owns the key's slot (or the
  /// grant installs synchronously, as for a self-homed slot); otherwise
  /// queued behind the acquisition and nullopt.
  std::optional<std::uint64_t> update(std::uint32_t space, std::uint64_t key,
                                      std::int64_t delta, UpdateDone done) override;

  [[nodiscard]] std::vector<pkt::MsgType> message_types() const override;
  bool handle_message(const pkt::SwishMessage& msg) override;

  [[nodiscard]] std::unique_ptr<SnapshotSource> snapshot_source(
      std::optional<std::uint32_t> space_filter) override;
  void apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) override;

  // -- Introspection (tests, tools) ---------------------------------------------
  [[nodiscard]] const OwnSpaceState* space_state(std::uint32_t id) const;
  /// Home replica of a key (hash placement over the space's live members).
  [[nodiscard]] SwitchId home_of(std::uint32_t space, std::uint64_t key) const;
  /// True when this switch currently owns the key.
  [[nodiscard]] bool owns(std::uint32_t space, std::uint64_t key) const;

 private:
  using KeyRef = std::pair<std::uint32_t, std::uint64_t>;  ///< (space, slot)

  /// Handles to this engine's registry cells under `shm.sw<id>.own.*`.
  struct Stats {
    telemetry::Counter reads;
    telemetry::Counter local_writes;       ///< writes applied as owner
    telemetry::Counter acquisitions_started;
    telemetry::Counter acquisitions_completed;
    telemetry::Counter acquisitions_failed;  ///< retry budget exhausted
    telemetry::Counter acquisition_retries;
    telemetry::Counter revokes_served;     ///< ownership relinquished
    telemetry::Counter grants_issued;      ///< grants sent by this home
    telemetry::Counter queue_rejected;     ///< ops dropped at own_queue_limit
    telemetry::Counter backup_entries_sent;
    telemetry::Counter backup_entries_merged;
    telemetry::Counter bytes;  ///< OwnRequest + OwnGrant + OwnUpdate
  };

  /// One queued operation awaiting ownership.
  struct QueuedOp {
    bool is_update = false;
    std::uint64_t value = 0;           ///< write payload
    std::int64_t delta = 0;            ///< update payload
    UpdateDone done;                   ///< update completion (receives new value)
    std::function<void()> completion;  ///< write completion (releases the output)
  };

  /// Requester-side in-flight acquisition.
  struct PendingAcquire {
    std::uint64_t req_id = 0;
    unsigned retries = 0;
    std::vector<QueuedOp> queue;
    sim::TimerHandle retry_timer;
    telemetry::SpanContext trace;  ///< causal chain of this acquisition (if sampled)
  };

  /// Home-side in-flight revoke: set when the revoke is forwarded to the
  /// current owner, cleared when the matching OwnGrant flows back. Grants
  /// with a non-matching req_id are dropped (stale-grant guard).
  struct PendingGrant {
    std::uint64_t req_id = 0;
    SwitchId requester = kInvalidNode;
  };

  void on_own_request(const pkt::OwnRequest& msg);
  void on_own_grant(const pkt::OwnGrant& msg);
  void on_own_update(const pkt::OwnUpdate& msg);

  /// Applies `op` now if this switch owns the key and returns the value it
  /// stored; else queues it behind an (possibly new) acquisition and returns
  /// nullopt.
  std::optional<std::uint64_t> apply_or_acquire(std::uint32_t space, std::uint64_t key,
                                                QueuedOp op);
  /// Applies `op` as owner; returns the value it stored.
  std::uint64_t apply_owned(OwnSpaceState& st, std::uint32_t space, std::uint64_t key,
                            QueuedOp& op);
  void begin_acquire(std::uint32_t space, std::uint64_t key);
  void arm_acquire_retry(std::uint32_t space, std::uint64_t key, std::uint64_t req_id);
  void install_grant(const pkt::OwnGrant& msg);

  /// Home-side: grant `key` to `requester` from the local backup copy.
  void grant_from_backup(OwnSpaceState& st, std::uint32_t space, std::uint64_t key,
                         SwitchId requester, std::uint64_t req_id);

  /// Periodic owner -> home flush of dirty keys (also heals directories).
  void backup_flush();
  /// Sends claim-updates for every owned key (directory healing after a
  /// placement change moved some keys' homes).
  void flush_claims();
  void send_backup_entries(std::uint32_t space, const OwnSpaceState& st,
                           const std::vector<std::uint64_t>& slots);

  /// Routes a protocol message, short-circuiting self-delivery (a switch can
  /// be requester, home, and owner in any combination).
  void deliver(SwitchId dst, const pkt::SwishMessage& msg);

  std::map<std::uint32_t, std::unique_ptr<OwnSpaceState>> spaces_;
  std::map<KeyRef, PendingAcquire> pending_acquires_;   // requester side
  std::map<KeyRef, PendingGrant> pending_grants_;       // home side
  std::uint64_t next_req_id_ = 0;
  Stats stats_;
};

}  // namespace swish::shm
