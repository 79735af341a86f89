#include "swishmem/protocols/own_space.hpp"

#include <memory>
#include <stdexcept>

namespace swish::shm {

std::uint64_t own_mix64(std::uint64_t h) noexcept {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

OwnSpaceState::OwnSpaceState(pisa::Switch& sw, const SpaceConfig& config) : cfg_(config) {
  if (cfg_.cls != ConsistencyClass::kOWN) {
    throw std::invalid_argument("OwnSpaceState: non-OWN space");
  }
  if (cfg_.sparse()) {
    store_ = &sw.add_object(std::make_unique<store::StoreSpace>(
        cfg_.name + ".store", &sw.simulator().metrics(),
        "store.sw" + std::to_string(sw.id()) + "." + cfg_.name + "."));
    return;
  }
  values_ = &sw.add_register_array(cfg_.name + ".values", cfg_.size, cfg_.value_bits);
  versions_ = &sw.add_register_array(cfg_.name + ".versions", cfg_.size, 64);
  owned_ = &sw.add_register_array(cfg_.name + ".owned", cfg_.size, 1);
  dir_ = &sw.add_register_array(cfg_.name + ".dir", cfg_.size, 32);
}

std::size_t OwnSpaceState::slot(std::uint64_t key) const noexcept {
  if (store_) return static_cast<std::size_t>(key);  // per-key entries, no hashing
  return key < cfg_.size ? static_cast<std::size_t>(key)
                         : static_cast<std::size_t>(own_mix64(key) % cfg_.size);
}

std::uint64_t OwnSpaceState::value(std::uint64_t key) const {
  if (store_) {
    const store::Entry* e = store_->find(key);
    return e != nullptr ? e->value : 0;
  }
  return values_->read(static_cast<RegisterIndex>(slot(key)));
}

std::uint64_t OwnSpaceState::version(std::uint64_t key) const {
  if (store_) {
    const store::Entry* e = store_->find(key);
    return e != nullptr ? e->version : 0;
  }
  return versions_->read(static_cast<RegisterIndex>(slot(key)));
}

void OwnSpaceState::store(std::uint64_t key, std::uint64_t value, std::uint64_t version) {
  if (store_) {
    store::Entry& e = store_->upsert(key);
    e.value = value;
    e.version = version;
    return;
  }
  const auto i = static_cast<RegisterIndex>(slot(key));
  values_->write(i, value);
  versions_->write(i, version);
}

void OwnSpaceState::owner_write(std::uint64_t key, std::uint64_t value) {
  if (store_) {
    store::Entry& e = store_->upsert(key);
    e.value = value;
    e.version += 1;
    dirty_.insert(key);
    return;
  }
  const auto i = static_cast<RegisterIndex>(slot(key));
  values_->write(i, value);
  versions_->write(i, versions_->read(i) + 1);
  dirty_.insert(slot(key));
}

bool OwnSpaceState::owned(std::uint64_t key) const {
  if (store_) {
    const store::Entry* e = store_->find(key);
    return e != nullptr && (e->flags & store::Entry::kFlagOwned) != 0;
  }
  return owned_->read(static_cast<RegisterIndex>(slot(key))) != 0;
}

void OwnSpaceState::set_owned(std::uint64_t key, bool owned) {
  if (store_) {
    if (owned) {
      store_->upsert(key).flags |= store::Entry::kFlagOwned;
    } else if (store_->find(key) != nullptr) {  // no entry: nothing to clear
      store_->upsert(key).flags &= static_cast<std::uint8_t>(~store::Entry::kFlagOwned);
    }
    return;
  }
  owned_->write(static_cast<RegisterIndex>(slot(key)), owned ? 1 : 0);
}

SwitchId OwnSpaceState::dir_owner(std::uint64_t key) const {
  if (store_) {
    const store::Entry* e = store_->find(key);
    const std::uint32_t raw = e != nullptr ? e->aux : 0;
    return raw == 0 ? kInvalidNode : static_cast<SwitchId>(raw - 1);
  }
  const std::uint64_t raw = dir_->read(static_cast<RegisterIndex>(slot(key)));
  return raw == 0 ? kInvalidNode : static_cast<SwitchId>(raw - 1);
}

void OwnSpaceState::set_dir_owner(std::uint64_t key, SwitchId owner) {
  if (store_) {
    store_->upsert(key).aux = static_cast<std::uint32_t>(owner) + 1;
    return;
  }
  dir_->write(static_cast<RegisterIndex>(slot(key)), static_cast<std::uint64_t>(owner) + 1);
}

void OwnSpaceState::clear_dir_owner(std::uint64_t key) {
  if (store_) {
    if (store_->find(key) != nullptr) store_->upsert(key).aux = 0;
    return;
  }
  dir_->write(static_cast<RegisterIndex>(slot(key)), 0);
}

std::vector<std::uint64_t> OwnSpaceState::dir_slots_owned_outside(
    const std::vector<SwitchId>& live) const {
  std::vector<std::uint64_t> out;
  const auto dead = [&live](SwitchId owner) {
    for (SwitchId m : live) {
      if (m == owner) return false;
    }
    return true;
  };
  if (store_) {
    store_->for_each([&](const store::Entry& e) {
      if (e.aux != 0 && dead(static_cast<SwitchId>(e.aux - 1))) out.push_back(e.key);
      return true;
    });
    return out;
  }
  for (std::size_t s = 0; s < cfg_.size; ++s) {
    const std::uint64_t raw = dir_->read(static_cast<RegisterIndex>(s));
    if (raw == 0) continue;
    if (dead(static_cast<SwitchId>(raw - 1))) out.push_back(s);
  }
  return out;
}

std::vector<std::uint64_t> OwnSpaceState::take_dirty() {
  std::vector<std::uint64_t> out(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return out;
}

std::vector<std::uint64_t> OwnSpaceState::live_slots() const {
  std::vector<std::uint64_t> out;
  for (std::size_t s = 0; s < cfg_.size; ++s) {
    if (versions_->read(static_cast<RegisterIndex>(s)) != 0) out.push_back(s);
  }
  return out;
}

std::vector<std::uint64_t> OwnSpaceState::owned_slots() const {
  std::vector<std::uint64_t> out;
  if (store_) {
    store_->for_each([&](const store::Entry& e) {
      if ((e.flags & store::Entry::kFlagOwned) != 0) out.push_back(e.key);
      return true;
    });
    return out;
  }
  for (std::size_t s = 0; s < cfg_.size; ++s) {
    if (owned_->read(static_cast<RegisterIndex>(s)) != 0) out.push_back(s);
  }
  return out;
}

void OwnSpaceState::reset() {
  if (store_) {
    store_->clear();
    dirty_.clear();
    return;
  }
  values_->fill(0);
  versions_->fill(0);
  owned_->fill(0);
  dir_->fill(0);
  dirty_.clear();
}

}  // namespace swish::shm
