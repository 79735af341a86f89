// Test helper: the value a switch's runtime holds for (space, key), read
// outside packet processing through the NF-facing read(). kMiss reads 0.
#pragma once

#include <cstdint>

#include "swishmem/runtime.hpp"

namespace swish::shm {

inline std::uint64_t read_value(ShmRuntime& rt, std::uint32_t space, std::uint64_t key) {
  std::uint64_t value = 0;
  rt.read(nullptr, space, key, value);
  return value;
}

}  // namespace swish::shm
