#include "pisa/objects.hpp"

namespace swish::pisa {

bool ExactTable::insert(CpToken, std::uint64_t key, std::uint64_t value) {
  if (key == kEmptyKey) {
    if (!zero_ && entry_count() >= capacity_) return false;
    zero_ = value;
    return true;
  }
  std::size_t i = find(key);
  if (slots_[i].key == key) {
    slots_[i].value = value;
    return true;
  }
  if (entry_count() >= capacity_) return false;
  if ((used_ + 1) * 4 > slots_.size() * 3) {
    grow();
    i = find(key);
  }
  slots_[i] = {key, value};
  ++used_;
  return true;
}

bool ExactTable::erase(CpToken, std::uint64_t key) {
  if (key == kEmptyKey) {
    const bool had = zero_.has_value();
    zero_.reset();
    return had;
  }
  std::size_t hole = find(key);
  if (slots_[hole].key != key) return false;
  // Backward shift: walk the rest of the run and move each entry whose home
  // is not cyclically in (hole, j] into the hole, so every entry stays
  // reachable from its home without a tombstone.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j].key != kEmptyKey; j = (j + 1) & mask) {
    if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --used_;
  return true;
}

void ExactTable::clear(CpToken) {
  slots_ = std::vector<Slot>(kMinSlots);
  shift_ = kMinShift;
  used_ = 0;
  zero_.reset();
}

void ExactTable::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  for (const Slot& s : old) {
    if (s.key != kEmptyKey) slots_[find(s.key)] = s;
  }
}

}  // namespace swish::pisa
