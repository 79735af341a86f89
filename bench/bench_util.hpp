// Shared scaffolding for the experiment-reproduction benches (see DESIGN.md
// §4 for the experiment index). Each bench binary prints the table/series it
// regenerates plus the expectation from the paper it is checked against.
#pragma once

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "swishmem/fabric.hpp"

namespace swish::bench {

/// The value a switch's runtime holds for (space, key), read outside packet
/// processing through the NF-facing read(); kMiss reads 0.
inline std::uint64_t read_value(shm::ShmRuntime& rt, std::uint32_t space, std::uint64_t key) {
  std::uint64_t value = 0;
  rt.read(nullptr, space, key, value);
  return value;
}

/// Space ids used by the raw-register driver NF below.
inline constexpr std::uint32_t kSroSpace = 100;
inline constexpr std::uint32_t kEroSpace = 101;
inline constexpr std::uint32_t kCtrSpace = 102;

/// Minimal NF used by protocol-level benches: UDP dst port encodes the op.
///   [1000, 2000): SRO write key (port-1000), value = src_port
///   [2000, 3000): SRO read  key (port-2000)
///   [3000, 4000): EWO counter add 1 at key (port-3000)
///   [4000, 5000): ERO write key (port-4000)
///   [5000, 6000): ERO read  key (port-5000)
class DriverNf : public shm::NfApp {
 public:
  struct Counters {
    std::uint64_t reads_ok = 0;
    std::uint64_t reads_redirected = 0;
    Histogram read_latency;  ///< local-read service time is ~0; measures E2E
  };

  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    const std::uint16_t port = ctx.parsed->udp->dst_port;
    pisa::Switch* sw = &ctx.sw;
    std::uint64_t value = 0;
    if (port >= 1000 && port < 2000) {
      rt.write({{kSroSpace, static_cast<std::uint64_t>(port - 1000),
                 ctx.parsed->udp->src_port}},
               std::move(ctx.packet), [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    } else if (port >= 2000 && port < 3000) {
      const auto st = rt.read(&ctx, kSroSpace, port - 2000, value);
      if (st == shm::ReadStatus::kRedirected) {
        ++counters.reads_redirected;
      } else {
        ++counters.reads_ok;
        ctx.sw.deliver(std::move(ctx.packet));
      }
    } else if (port >= 3000 && port < 4000) {
      rt.update(kCtrSpace, port - 3000, 1);
      ctx.sw.deliver(std::move(ctx.packet));
    } else if (port >= 4000 && port < 5000) {
      rt.write({{kEroSpace, static_cast<std::uint64_t>(port - 4000),
                 ctx.parsed->udp->src_port}},
               std::move(ctx.packet), [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    } else if (port >= 5000 && port < 6000) {
      const auto st = rt.read(&ctx, kEroSpace, port - 5000, value);
      if (st != shm::ReadStatus::kRedirected) {
        ++counters.reads_ok;
        ctx.sw.deliver(std::move(ctx.packet));
      } else {
        ++counters.reads_redirected;
      }
    }
  }

  Counters counters;
};

/// A fabric pre-wired with the driver NF and its three spaces.
struct DriverRig {
  shm::Fabric fabric;
  std::vector<DriverNf*> apps;
  std::uint64_t delivered = 0;

  explicit DriverRig(shm::FabricConfig cfg, std::size_t space_size = 1024,
                     std::size_t guard_slots = 0, std::size_t mirror_batch = 1)
      : fabric(cfg) {
    shm::SpaceConfig sro;
    sro.id = kSroSpace;
    sro.name = "bench.sro";
    sro.cls = shm::ConsistencyClass::kSRO;
    sro.size = space_size;
    sro.guard_slots = guard_slots;
    fabric.add_space(sro);
    shm::SpaceConfig ero = sro;
    ero.id = kEroSpace;
    ero.name = "bench.ero";
    ero.cls = shm::ConsistencyClass::kERO;
    fabric.add_space(ero);
    shm::SpaceConfig ctr;
    ctr.id = kCtrSpace;
    ctr.name = "bench.ctr";
    ctr.cls = shm::ConsistencyClass::kEWO;
    ctr.merge = shm::MergePolicy::kGCounter;
    ctr.size = space_size;
    ctr.mirror_batch = mirror_batch;
    fabric.add_space(ctr);
    fabric.install([this]() {
      auto app = std::make_unique<DriverNf>();
      apps.push_back(app.get());
      return app;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet&) { ++delivered; });
  }
};

/// Minimal JSON emitter for bench artifacts: `{"bench": ..., "rows": [...]}`
/// with flat rows of numeric / plain-string fields. No escaping — callers
/// pass identifiers and numbers only.
class JsonArtifact {
 public:
  explicit JsonArtifact(std::string bench) : bench_(std::move(bench)) {}

  class Row {
   public:
    Row& str(const std::string& key, const std::string& value) {
      return raw(key, "\"" + value + "\"");
    }
    Row& num(const std::string& key, double value, int decimals = 3) {
      return raw(key, format_double(value, decimals));
    }
    Row& num(const std::string& key, std::uint64_t value) {
      return raw(key, std::to_string(value));
    }
    Row& raw(const std::string& key, const std::string& json_value) {
      if (!body_.empty()) body_ += ", ";
      body_ += "\"" + key + "\": " + json_value;
      return *this;
    }

   private:
    friend class JsonArtifact;
    std::string body_;
  };

  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  void write(std::ostream& out) const {
    out << "{\n  \"schema\": 1,\n  \"bench\": \"" << bench_ << "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << "    {" << rows_[i].body_ << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  /// Writes to `path` and reports the artifact on stdout; exits non-zero on
  /// an unwritable path so run_benches.sh fails loudly.
  void write_file(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<Row> rows_;
};

inline void JsonArtifact::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    std::exit(1);
  }
  write(out);
  std::cout << "wrote " << rows_.size() << " rows to " << path << "\n";
}

inline pkt::Packet op_packet(std::uint16_t src_port, std::uint16_t dst_port) {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
  spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = src_port;
  spec.dst_port = dst_port;
  spec.payload = {0};
  return pkt::build_packet(spec);
}

inline void print_expectation(const std::string& text) {
  std::cout << "\npaper expectation: " << text << "\n\n";
}

inline std::string fmt(double v, int decimals = 2) { return format_double(v, decimals); }

}  // namespace swish::bench
