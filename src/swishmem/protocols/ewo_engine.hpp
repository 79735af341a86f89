// Eventual Write Optimized (§6.2): writes apply locally in the data plane and
// are replicated asynchronously — an immediate (optionally batched) mirror to
// the replica group plus a periodic full-state sync that also repairs after
// failures (§6.3). Merge policy per space: LWW, G-/PN-counter, or G-set.
#pragma once

#include <span>
#include <unordered_map>

#include "common/rng.hpp"
#include "pisa/switch.hpp"
#include "swishmem/protocols/engine.hpp"
#include "swishmem/spaces.hpp"

namespace swish::shm {

class EwoEngine final : public ProtocolEngine {
 public:
  explicit EwoEngine(ShmRuntime& host);

  [[nodiscard]] ConsistencyClass cls() const noexcept override {
    return ConsistencyClass::kEWO;
  }
  [[nodiscard]] const char* name() const noexcept override { return "ewo"; }

  void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) override;
  [[nodiscard]] bool hosts_space(std::uint32_t space) const noexcept override;
  void start() override;
  void reset() override;

  ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                  std::uint64_t& value) override;
  [[nodiscard]] std::optional<std::uint64_t> read_lpm(std::uint32_t space,
                                                      std::uint64_t key) override;
  /// Applies locally and releases at once. An op on a G-set space joins its
  /// bits into the set; LWW ops replace (counter spaces throw: they take
  /// update(), not write()).
  void write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) override;
  /// Counter add; always applied before returning.
  std::optional<std::uint64_t> update(std::uint32_t space, std::uint64_t key,
                                      std::int64_t delta, UpdateDone done) override;

  [[nodiscard]] std::vector<pkt::MsgType> message_types() const override;
  using ProtocolEngine::handle_message;
  bool handle_message(pkt::SwishMessage& msg) override;

  [[nodiscard]] const EwoSpaceState* space_state(std::uint32_t id) const;

 private:
  /// Handles to this engine's registry cells under `shm.sw<id>.ewo.*`.
  struct Stats {
    telemetry::Counter reads;
    telemetry::Counter local_writes;
    telemetry::Counter updates_sent;
    telemetry::Counter updates_received;
    telemetry::Counter entries_merged;  ///< entries that changed local state
    telemetry::Counter sync_rounds;
    telemetry::Counter sync_entries_sent;
    telemetry::Counter bytes;  ///< EwoUpdate (mirror + sync)
  };

  struct MirrorSlot {
    const EwoSpaceState* st = nullptr;
    std::uint64_t key = 0;
    telemetry::SpanContext trace;  ///< causal chain of the buffered write
  };

  /// The two local applies behind write(): an LWW replace and a G-set join.
  void local_write(EwoSpaceState& st, std::uint32_t space, std::uint64_t key,
                   std::uint64_t value);
  void set_add(EwoSpaceState& st, std::uint32_t space, std::uint64_t key, std::uint64_t bits);

  void mirror_enqueue(const EwoSpaceState& st, std::uint64_t key,
                      const telemetry::SpanContext& trace);
  void flush_mirror_buffer();
  void periodic_sync();
  /// The mirror group: one for the whole engine, since mirror and sync
  /// batches mix spaces. Every EWO space spans every switch (add_remote_space
  /// refuses subsets) and their placements move in lockstep, so the first
  /// space's placement is every space's.
  [[nodiscard]] const std::vector<SwitchId>& replication_targets() const noexcept;
  /// The mirror group without this switch, in placement order: every
  /// mirror flush goes to these in one send; each sync chunk to one of them.
  [[nodiscard]] std::span<const SwitchId> peers();
  /// Replicas other than this switch (expected applies for lag accounting).
  [[nodiscard]] std::uint32_t expected_replicas() const noexcept;
  /// Reports commit-at-origin to the observatory; ident is the space's own
  /// wire identity for the key (LWW packed version / max own CRDT slot).
  void observe_commit(const EwoSpaceState& st, std::uint32_t space, std::uint64_t key);

  std::unordered_map<std::uint32_t, std::unique_ptr<EwoSpaceState>> spaces_;
  std::uint32_t group_space_ = 0;  ///< first space added; names the mirror group

  // Mirror batch buffer: (space state, key) pairs awaiting flush. Spaces are
  // add-only and unique_ptr-owned, so the pointers stay valid and the flush
  // avoids a map lookup per buffered entry.
  std::vector<MirrorSlot> mirror_buffer_;
  /// The EwoUpdate every mirror flush fills and sends: its entry list keeps
  /// its capacity from flush to flush.
  pkt::SwishMessage mirror_msg_{pkt::EwoUpdate{}};
  std::vector<SwitchId> peers_;  ///< peers()'s list, reused

  // Scratch for observe_commit: with the observatory on, every local write
  // collects its own entries — reusing one buffer keeps that allocation-free.
  std::vector<pkt::EwoEntry> observe_scratch_;

  TimeNs last_lww_timestamp_ = 0;  ///< per-switch monotone LWW clock (§6.2)

  Rng rng_;  ///< sync target selection
  Stats stats_;
};

}  // namespace swish::shm
