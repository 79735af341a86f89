// Switch-resident wrapper around OrderedIndex: registers the index as a PISA
// StatefulObject (so sparse spaces participate in the ~10 MB SRAM budget like
// every register array) and keeps the observatory's store.* gauges current —
// live keys, outstanding snapshot pins, and cumulative CoW page copies — so
// snapshot cost is visible in the metrics export.
#pragma once

#include <optional>
#include <string>

#include "pisa/objects.hpp"
#include "swishmem/store/ordered_index.hpp"
#include "telemetry/metrics.hpp"

namespace swish::shm::store {

class StoreSpace final : public pisa::StatefulObject {
 public:
  /// `metric_prefix` roots the gauges ("store.sw<id>.<space>."); pass an
  /// empty prefix (with reg == nullptr) for registry-less use in benches.
  StoreSpace(std::string name, telemetry::MetricsRegistry* reg, std::string metric_prefix);
  ~StoreSpace() override;

  // -- Mutation (refreshes gauges) --------------------------------------------
  Entry& upsert(std::uint64_t key);
  void clear();

  // -- Lookup -------------------------------------------------------------------
  [[nodiscard]] const Entry* find(std::uint64_t key) const noexcept {
    return index_.find(key);
  }
  [[nodiscard]] const Entry* lookup_lpm(std::uint64_t key, unsigned key_bits) const noexcept {
    return index_.lookup_lpm(key, key_bits);
  }
  void for_each(const OrderedIndex::Visitor& fn) const { index_.for_each(fn); }
  void range(std::uint64_t lo, std::uint64_t hi, const OrderedIndex::Visitor& fn) const {
    index_.range(lo, hi, fn);
  }

  // -- Snapshots ----------------------------------------------------------------
  /// Pins a frozen view; gauge updates on pin and (via the index observer)
  /// on release, wherever the Snapshot ends up dying.
  [[nodiscard]] OrderedIndex::Snapshot pin_snapshot();

  // -- Introspection -------------------------------------------------------------
  [[nodiscard]] const OrderedIndex& index() const noexcept { return index_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return index_.memory_bytes();
  }

 private:
  void refresh_gauges() noexcept;

  OrderedIndex index_;
  bool metered_ = false;
  telemetry::Gauge live_keys_g_;
  telemetry::Gauge snapshot_pins_g_;
  telemetry::Gauge cow_copies_g_;
  telemetry::Gauge memory_g_;
};

}  // namespace swish::shm::store
