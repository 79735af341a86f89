#include "pisa/objects.hpp"

namespace swish::pisa {

bool ExactTable::insert(CpToken, std::uint64_t key, std::uint64_t value) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second = value;
    return true;
  }
  if (entries_.size() >= capacity_) return false;
  entries_.emplace(key, value);
  return true;
}

}  // namespace swish::pisa
