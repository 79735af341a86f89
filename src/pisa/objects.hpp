// P4 stateful objects as exposed by a PISA pipeline (§2 of the paper):
// register arrays are data-plane writable; exact-match tables can only be
// mutated through the control plane. We enforce the latter in the type
// system: table mutators require a CpToken, which only a ControlPlane can
// mint.
//
// Every object reports its memory footprint; the Switch sums footprints
// against the ~10 MB SRAM budget the paper emphasizes.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace swish::pisa {

class ControlPlane;

/// Capability proving a call originates from the control plane. Only
/// ControlPlane can construct one (friend), so data-plane code cannot mutate
/// tables — mirroring real PISA hardware.
class CpToken {
 private:
  friend class ControlPlane;
  CpToken() = default;
};

/// Common interface for memory accounting.
class StatefulObject {
 public:
  explicit StatefulObject(std::string name) : name_(std::move(name)) {}
  virtual ~StatefulObject() = default;
  StatefulObject(const StatefulObject&) = delete;
  StatefulObject& operator=(const StatefulObject&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;

 private:
  std::string name_;
};

/// Data-plane register array: fixed-size vector of w-bit values. Each entry
/// is stored in the smallest of 1, 2, 4 or 8 bytes that holds `entry_bits`,
/// and `entry_bits` (not the storage width) counts toward the SRAM budget.
class RegisterArray : public StatefulObject {
 public:
  RegisterArray(std::string name, std::size_t size, unsigned entry_bits = 64)
      : StatefulObject(std::move(name)),
        size_(size),
        entry_bits_(checked_bits(entry_bits)),
        stride_(std::bit_ceil((entry_bits + 7) / 8)),
        bytes_(size * stride_) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] unsigned entry_bits() const noexcept { return entry_bits_; }

  [[nodiscard]] std::uint64_t read(RegisterIndex i) const {
    check(i);
    return load(i);
  }

  void write(RegisterIndex i, std::uint64_t v) {
    check(i);
    store(i, v & mask());
  }

  /// Stateful-ALU style read-modify-write; returns the new value.
  std::uint64_t add(RegisterIndex i, std::uint64_t delta) {
    check(i);
    const std::uint64_t v = (load(i) + delta) & mask();
    store(i, v);
    return v;
  }

  /// Conditional max (used by CRDT merges): keeps the larger value, comparing
  /// at the register's width so an over-wide `v` can never lower it.
  std::uint64_t merge_max(RegisterIndex i, std::uint64_t v) {
    check(i);
    v &= mask();
    const std::uint64_t cur = load(i);
    if (v <= cur) return cur;
    store(i, v);
    return v;
  }

  /// Bitwise-OR accumulate (used by grow-only set CRDT merges).
  std::uint64_t merge_or(RegisterIndex i, std::uint64_t bits) {
    check(i);
    const std::uint64_t v = (load(i) | bits) & mask();
    store(i, v);
    return v;
  }

  /// Resets every entry (used when a replacement switch boots empty).
  void fill(std::uint64_t v) {
    v &= mask();
    for (std::size_t i = 0; i < size_; ++i) store(i, v);
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return (size_ * entry_bits_ + 7) / 8;
  }

 private:
  static unsigned checked_bits(unsigned entry_bits) {
    if (entry_bits == 0 || entry_bits > 64) {
      throw std::invalid_argument("RegisterArray: entry_bits must be 1..64");
    }
    return entry_bits;
  }
  void check(RegisterIndex i) const {
    if (i >= size_) throw std::out_of_range("RegisterArray '" + name() + "' index");
  }
  [[nodiscard]] std::uint64_t mask() const noexcept {
    return entry_bits_ == 64 ? ~0ULL : ((1ULL << entry_bits_) - 1);
  }

  /// Entry i as stored in its `stride_` bytes (host byte order).
  [[nodiscard]] std::uint64_t load(std::size_t i) const noexcept {
    const unsigned char* p = bytes_.data() + i * stride_;
    switch (stride_) {
      case 1:
        return load_as<std::uint8_t>(p);
      case 2:
        return load_as<std::uint16_t>(p);
      case 4:
        return load_as<std::uint32_t>(p);
      default:
        return load_as<std::uint64_t>(p);
    }
  }
  /// Stores an already-masked value into entry i.
  void store(std::size_t i, std::uint64_t v) noexcept {
    unsigned char* p = bytes_.data() + i * stride_;
    switch (stride_) {
      case 1:
        store_as<std::uint8_t>(p, v);
        break;
      case 2:
        store_as<std::uint16_t>(p, v);
        break;
      case 4:
        store_as<std::uint32_t>(p, v);
        break;
      default:
        store_as<std::uint64_t>(p, v);
    }
  }
  template <typename T>
  static std::uint64_t load_as(const unsigned char* p) noexcept {
    T v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  template <typename T>
  static void store_as(unsigned char* p, std::uint64_t v) noexcept {
    const auto t = static_cast<T>(v);
    std::memcpy(p, &t, sizeof t);
  }

  std::size_t size_;
  unsigned entry_bits_;
  unsigned stride_;  ///< bytes per entry: 1, 2, 4 or 8
  std::vector<unsigned char> bytes_;
};

/// Exact-match table: 64-bit key -> 64-bit action data. Mutation requires a
/// CpToken (control-plane only), matching PISA semantics.
class ExactTable : public StatefulObject {
 public:
  ExactTable(std::string name, std::size_t capacity, unsigned key_bits = 64,
             unsigned value_bits = 64)
      : StatefulObject(std::move(name)),
        capacity_(capacity),
        key_bits_(key_bits),
        value_bits_(value_bits) {}

  [[nodiscard]] std::optional<std::uint64_t> lookup(std::uint64_t key) const noexcept {
    auto it = entries_.find(key);
    return it == entries_.end() ? std::nullopt : std::optional{it->second};
  }

  /// Returns false when the table is full (caller decides the policy).
  bool insert(CpToken, std::uint64_t key, std::uint64_t value);
  bool erase(CpToken, std::uint64_t key) { return entries_.erase(key) > 0; }
  void clear(CpToken) { entries_.clear(); }

  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint64_t>& entries() const noexcept {
    return entries_;
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return capacity_ * ((key_bits_ + value_bits_ + 7) / 8 + 1);
  }

 private:
  std::size_t capacity_;
  unsigned key_bits_;
  unsigned value_bits_;
  std::unordered_map<std::uint64_t, std::uint64_t> entries_;
};

}  // namespace swish::pisa
