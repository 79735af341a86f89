#include "swishmem/protocols/engine.hpp"

#include <stdexcept>

#include "pisa/switch.hpp"

namespace swish::shm {
namespace {

class VectorSnapshotSource final : public SnapshotSource {
 public:
  explicit VectorSnapshotSource(std::vector<SnapshotOp> ops) : ops_(std::move(ops)) {}

  bool next(std::size_t max_ops, std::vector<SnapshotOp>& out) override {
    while (pos_ < ops_.size() && max_ops-- > 0) out.push_back(ops_[pos_++]);
    return pos_ < ops_.size();
  }

 private:
  std::vector<SnapshotOp> ops_;
  std::size_t pos_ = 0;
};

class PinnedSnapshotSource final : public SnapshotSource {
 public:
  PinnedSnapshotSource(store::OrderedIndex::Snapshot snap,
                       std::function<bool(const store::Entry&, SnapshotOp&)> project)
      : snap_(std::move(snap)), project_(std::move(project)) {}

  bool next(std::size_t max_ops, std::vector<SnapshotOp>& out) override {
    if (done_) return false;
    std::size_t taken = 0;
    bool more = false;
    snap_.scan(cursor_, [&](const store::Entry& e) {
      if (taken == max_ops) {
        cursor_ = e.key;  // resume exactly here next call
        more = true;
        return false;
      }
      SnapshotOp op;
      if (project_(e, op)) {
        out.push_back(op);
        ++taken;
      }
      return true;
    });
    if (!more) {
      done_ = true;
      snap_.release();  // drained: drop the frozen pages now, not at dtor
    }
    return more;
  }

 private:
  store::OrderedIndex::Snapshot snap_;
  std::function<bool(const store::Entry&, SnapshotOp&)> project_;
  std::uint64_t cursor_ = 0;
  bool done_ = false;
};

}  // namespace

std::unique_ptr<SnapshotSource> make_vector_source(std::vector<SnapshotOp> ops) {
  return std::make_unique<VectorSnapshotSource>(std::move(ops));
}

std::unique_ptr<SnapshotSource> make_pinned_source(
    store::OrderedIndex::Snapshot snap,
    std::function<bool(const store::Entry&, SnapshotOp&)> project) {
  return std::make_unique<PinnedSnapshotSource>(std::move(snap), std::move(project));
}

telemetry::MetricsRegistry& ProtocolEngine::host_metrics() const {
  return host_.sw().simulator().metrics();
}

std::string ProtocolEngine::metric_prefix(const char* proto_name) const {
  return "shm.sw" + std::to_string(host_.self()) + "." + proto_name + ".";
}

std::size_t ProtocolEngine::deliver(SwitchId dst, pkt::SwishMessage msg) {
  if (dst == host_.self()) {
    handle_message(msg);
    return 0;
  }
  return host_.send(dst, msg);
}

void ProtocolEngine::add_remote_space(const SpaceConfig& config) {
  throw std::invalid_argument(std::string("add_remote_space: ") + to_string(config.cls) +
                              " spaces cannot be remote");
}

std::optional<std::uint64_t> ProtocolEngine::update(std::uint32_t space, std::uint64_t key,
                                                    std::int64_t delta, UpdateDone done) {
  (void)space;
  (void)key;
  (void)delta;
  (void)done;
  return std::nullopt;
}

void ProtocolEngine::apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) {
  (void)op;
  (void)seq;
}

std::optional<std::uint64_t> ProtocolEngine::read_lpm(std::uint32_t space, std::uint64_t key) {
  (void)space;
  (void)key;
  return std::nullopt;
}

void ProtocolEngine::append_snapshot_sources(std::optional<std::uint32_t> space_filter,
                                             SnapshotSources& out) {
  (void)space_filter;
  (void)out;
}

}  // namespace swish::shm
