// The one place that maps a consistency class to its protocol engine.
#include <stdexcept>

#include "swishmem/protocols/chain_engine.hpp"
#include "swishmem/protocols/consensus_engine.hpp"
#include "swishmem/protocols/engine.hpp"
#include "swishmem/protocols/ewo_engine.hpp"
#include "swishmem/protocols/owner_engine.hpp"

namespace swish::shm {

std::unique_ptr<ProtocolEngine> make_engine(ConsistencyClass cls, ShmRuntime& host) {
  switch (cls) {
    case ConsistencyClass::kSRO: return std::make_unique<SroEngine>(host);
    case ConsistencyClass::kERO: return std::make_unique<EroEngine>(host);
    case ConsistencyClass::kEWO: return std::make_unique<EwoEngine>(host);
    case ConsistencyClass::kOWN: return std::make_unique<OwnerEngine>(host);
    case ConsistencyClass::kCON: return std::make_unique<ConsensusEngine>(host);
  }
  throw std::invalid_argument("make_engine: unknown consistency class");
}

}  // namespace swish::shm
