#include "control/messages.hpp"

#include <array>

#include "control/codec.hpp"

namespace switchboard::control {
namespace {

/// Splits "a:b:c" into exactly three parts.
bool split3(std::string_view item, std::array<std::string_view, 3>& parts) {
  const std::size_t c1 = item.find(':');
  if (c1 == std::string_view::npos) return false;
  const std::size_t c2 = item.find(':', c1 + 1);
  if (c2 == std::string_view::npos) return false;
  parts = {item.substr(0, c1), item.substr(c1 + 1, c2 - c1 - 1),
           item.substr(c2 + 1)};
  return true;
}

}  // namespace

// List items, found by the codec's list encoder and decoder through
// argument-dependent lookup (hence `static` here, not an unnamed namespace).

static void put(std::string& out, const RouteHop& hop) {
  codec::append(out, hop.stage, ":", hop.vnf, ":", hop.site);
}

static bool parse(std::string_view item, RouteHop& hop) {
  std::array<std::string_view, 3> parts;
  return split3(item, parts) && codec::parse(parts[0], hop.stage) &&
         codec::parse(parts[1], hop.vnf) && codec::parse(parts[2], hop.site);
}

static void put(std::string& out, const AnycastVnfEntry& entry) {
  codec::append(out, entry.vnf, ":", entry.live_instances, ":",
                entry.residual_capacity);
}

static bool parse(std::string_view item, AnycastVnfEntry& entry) {
  std::array<std::string_view, 3> parts;
  return split3(item, parts) && codec::parse(parts[0], entry.vnf) &&
         codec::parse(parts[1], entry.live_instances) &&
         codec::parse(parts[2], entry.residual_capacity);
}

std::string serialize(const InstanceAnnouncement& m) {
  return codec::encode_message(m);
}

std::string serialize(const ForwarderAnnouncement& m) {
  return codec::encode_message(m);
}

std::string serialize(const RouteAnnouncement& m) {
  return codec::encode_message(m);
}

std::string serialize(const Heartbeat& m) { return codec::encode_message(m); }

std::string serialize(const AnycastAnnouncement& m) {
  return codec::encode_message(m);
}

std::optional<InstanceAnnouncement> parse_instance(const std::string& payload) {
  return codec::decode_message<InstanceAnnouncement>(payload);
}

std::optional<ForwarderAnnouncement> parse_forwarder(
    const std::string& payload) {
  return codec::decode_message<ForwarderAnnouncement>(payload);
}

std::optional<RouteAnnouncement> parse_route(const std::string& payload) {
  return codec::decode_message<RouteAnnouncement>(payload);
}

std::optional<Heartbeat> parse_heartbeat(const std::string& payload) {
  return codec::decode_message<Heartbeat>(payload);
}

std::optional<AnycastAnnouncement> parse_anycast(const std::string& payload) {
  return codec::decode_message<AnycastAnnouncement>(payload);
}

std::string serialize(const ReplicationFrame& m) {
  std::string out;
  codec::append(out, "type=repl;k=", static_cast<unsigned>(m.kind),
                ";from=", m.from, ";ep=", m.epoch, ";seq=", m.seq,
                ";dg=", m.digest, ";body=");
  for (std::size_t i = 0; i < m.records.size(); ++i) {
    if (i > 0) out += '\n';
    out += m.records[i];
  }
  return out;
}

std::optional<ReplicationFrame> parse_replication(const std::string& payload) {
  // The body carries raw journal records, which embed ';' and '=' freely —
  // it is always the LAST field, split off verbatim before the k=v parse.
  constexpr std::string_view kMarker = ";body=";
  const std::size_t body_at = payload.find(kMarker);
  if (body_at == std::string::npos) return std::nullopt;
  const codec::Fields fields{std::string_view{payload}.substr(0, body_at)};
  std::uint64_t kind = 0;
  ReplicationFrame m;
  if (!fields.get("k", kind) || !fields.get("from", m.from) ||
      !fields.get("ep", m.epoch) || !fields.get("seq", m.seq) ||
      !fields.get("dg", m.digest) ||
      kind > static_cast<std::uint64_t>(ReplicationKind::kSnapshotAck)) {
    return std::nullopt;
  }
  m.kind = static_cast<ReplicationKind>(kind);
  std::string_view body =
      std::string_view{payload}.substr(body_at + kMarker.size());
  while (!body.empty()) {
    const std::size_t end = std::min(body.find('\n'), body.size());
    if (end == 0) return std::nullopt;   // empty record
    m.records.emplace_back(body.substr(0, end));
    body.remove_prefix(std::min(end + 1, body.size()));
  }
  // The record count must fit the kind: receivers index a kRecord frame's
  // one record, and an install replaces the follower's whole state.
  const std::size_t count = m.records.size();
  switch (m.kind) {
    case ReplicationKind::kRecord:
      if (count != 1) return std::nullopt;
      break;
    case ReplicationKind::kSnapshotInstall:
      if (count == 0) return std::nullopt;
      break;
    case ReplicationKind::kAck:
    case ReplicationKind::kSnapshotAck:
      if (count != 0) return std::nullopt;
      break;
  }
  return m;
}

}  // namespace switchboard::control
