// Bounds-checked byte buffer reader/writer with network (big-endian) order.
//
// All wire formats in src/packet serialize through these helpers so that the
// simulated packets are real byte strings: parsers can fail on truncation,
// checksums cover actual octets, and sizes reported by the bandwidth model
// are the sizes a switch would see.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace swish {

/// Error thrown when a read or write would step outside the buffer.
class BufferError : public std::runtime_error {
 public:
  explicit BufferError(const std::string& what) : std::runtime_error(what) {}
};

/// Stores `v` big-endian in the `sizeof(T)` bytes at `p`.
template <typename T>
void store_be(std::uint8_t* p, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
  }
}

/// Writes big-endian integers and raw bytes through a cursor into a region
/// the caller sized beforehand — a frame whose length the wire codec's size
/// walker computed. No growth, no zero-fill: each field is one store and one
/// pointer bump. Writing past the region is a sizing bug (asserted).
class ByteCursor {
 public:
  explicit ByteCursor(std::span<std::uint8_t> out) noexcept
      : at_(out.data()), end_(out.data() + out.size()) {}

  void u8(std::uint8_t v) { *take(1).data() = v; }
  void u16(std::uint16_t v) { store_be(take(2).data(), v); }
  void u32(std::uint32_t v) { store_be(take(4).data(), v); }
  void u64(std::uint64_t v) { store_be(take(8).data(), v); }

  void raw(std::span<const std::uint8_t> data) {
    if (!data.empty()) std::memcpy(take(data.size()).data(), data.data(), data.size());
  }

  /// Claims the next `n` bytes for the caller to fill (e.g. a header whose
  /// checksum covers its own bytes).
  std::span<std::uint8_t> take(std::size_t n) {
    assert(n <= remaining());
    const std::span<std::uint8_t> out(at_, n);
    at_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - at_);
  }

 private:
  std::uint8_t* at_;
  std::uint8_t* end_;
};

/// Appends big-endian integers and raw bytes to a growable byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { bytes_.reserve(reserve); }

  void u8(std::uint8_t v) { bytes_.push_back(v); }

  // Multi-byte writes grow the vector once and store bytes directly, rather
  // than paying a capacity check per byte.
  void u16(std::uint16_t v) { store_be(extend(2).data(), v); }
  void u32(std::uint32_t v) { store_be(extend(4).data(), v); }
  void u64(std::uint64_t v) { store_be(extend(8).data(), v); }

  void raw(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  /// Overwrites a previously written 16-bit field (e.g. a checksum slot).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    if (offset + 2 > bytes_.size()) throw BufferError("patch_u16 out of range");
    store_be(bytes_.data() + offset, v);
  }

  /// Extends the buffer by `n` bytes and returns the new region (valid until
  /// the next write).
  std::span<std::uint8_t> extend(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return std::span<std::uint8_t>(bytes_).subspan(at);
  }

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Consumes big-endian integers and raw bytes from a non-owning byte view.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }

  // Multi-byte reads bounds-check once per field, not per byte.
  std::uint16_t u16() {
    require(2);
    auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }

  std::span<const std::uint8_t> raw(std::size_t n) {
    require(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw BufferError("buffer underrun: need " + std::to_string(n) + " bytes, have " +
                        std::to_string(data_.size() - pos_));
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace swish
