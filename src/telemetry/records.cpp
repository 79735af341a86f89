#include "telemetry/records.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <tuple>

namespace swish::telemetry {

namespace {

constexpr std::array<std::pair<std::string_view, std::uint32_t>, 13> kCategoryNames = {{
    {"packet", kTracePacket},
    {"drop", kTraceDrop},
    {"recirc", kTraceRecirc},
    {"proto-chain", kTraceProtoChain},
    {"proto-ewo", kTraceProtoEwo},
    {"proto-own", kTraceProtoOwn},
    {"proto-control", kTraceProtoControl},
    {"migration", kTraceMigration},
    {"failover", kTraceFailover},
    {"membership", kTraceMembership},
    {"proto-con", kTraceProtoCon},
    {"int", kTraceInt},
    {"all", kTraceAll},
}};

std::string_view category_name(std::uint32_t cat) {
  for (const auto& [name, bit] : kCategoryNames) {
    if (bit == cat) return name;
  }
  return "?";
}

template <typename R>
void sort_by_time_node_seq(std::vector<R>& records) {
  std::sort(records.begin(), records.end(), [](const R& x, const R& y) {
    return std::tie(x.time, x.node, x.seq) < std::tie(y.time, y.node, y.seq);
  });
}

}  // namespace

std::optional<std::uint32_t> parse_trace_mask(std::string_view spec) {
  std::uint32_t mask = 0;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    const std::string_view token = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{} : spec.substr(comma + 1);
    if (token.empty()) continue;
    bool known = false;
    for (const auto& [name, bit] : kCategoryNames) {
      if (token == name) {
        mask |= bit;
        known = true;
        break;
      }
    }
    if (!known) return std::nullopt;
  }
  return mask;
}

std::string trace_mask_to_string(std::uint32_t mask) {
  if (mask == kTraceAll) return "all";
  std::string out;
  for (const auto& [name, bit] : kCategoryNames) {
    if (bit == kTraceAll) continue;
    if (mask & bit) {
      if (!out.empty()) out += ',';
      out += name;
    }
  }
  return out.empty() ? "none" : out;
}

std::string trace_category_list() {
  std::string out;
  for (const auto& [name, bit] : kCategoryNames) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

const char* to_string(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kLinkQueueOverflow: return "link_queue_overflow";
    case DropReason::kLinkLoss: return "link_loss";
    case DropReason::kDeadNode: return "dead_node";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kDataplaneCapacity: return "dataplane_capacity";
    case DropReason::kRecircCap: return "recirc_cap";
    case DropReason::kParseError: return "parse_error";
    case DropReason::kCpBufferFull: return "cp_buffer_full";
    case DropReason::kOwnQueueOverflow: return "own_queue_overflow";
    case DropReason::kConQueueOverflow: return "con_queue_overflow";
    case DropReason::kWriteRetriesExhausted: return "write_retries_exhausted";
    case DropReason::kQuorumUnreachable: return "quorum_unreachable";
    case DropReason::kRecoveryAbandoned: return "recovery_abandoned";
    case DropReason::kTableFull: return "table_full";
  }
  return "unknown";
}

void Records::sort_canonical() {
  sort_by_time_node_seq(events);
  sort_by_time_node_seq(drops);
  sort_by_time_node_seq(int_reports);
}

void RecordLog::trace_slow(TraceCategory cat, NodeId node, const char* what, std::uint64_t a,
                           std::uint64_t b) {
  events_.push({now(), node, 0, cat, what, a, b});
}

void RecordLog::drop(NodeId node, DropReason reason, std::uint32_t packet_bytes,
                     std::uint64_t detail, std::vector<IntHop> hops) {
  ++drop_counts_[node][static_cast<std::size_t>(reason)];
  trace(kTraceDrop, node, to_string(reason), detail, packet_bytes);
  drops_.push({now(), node, 0, reason, packet_bytes, detail, std::move(hops)});
}

void RecordLog::int_sink(NodeId node, std::vector<IntHop> hops, bool truncated,
                         std::uint8_t hop_cap, std::uint32_t packet_bytes) {
  trace(kTraceInt, node, "int_sink", packet_bytes, truncated ? 1 : 0);
  int_reports_.push({now(), node, 0, truncated, hop_cap, packet_bytes, std::move(hops)});
}

void RecordLog::collect(Records& out) const {
  events_.append_to(out.events);
  drops_.append_to(out.drops);
  int_reports_.append_to(out.int_reports);
  for (const auto& [node, tally] : drop_counts_) {
    DropTally& dst = out.drop_counts[node];
    for (std::size_t r = 0; r < kNumDropReasons; ++r) dst[r] += tally[r];
  }
  out.events_recorded += events_.recorded();
}

void write_trace(std::ostream& os, const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) {
    os << e.time << ' ' << category_name(e.category) << " n" << e.node << ' ' << e.what
       << " a=" << e.a << " b=" << e.b << '\n';
  }
}

}  // namespace swish::telemetry
