// Control-plane message payloads exchanged over the global message bus,
// with a compact key=value serialization (the prototype shipped JSON over
// ZeroMQ; the wire format is irrelevant to the protocol, the parse/build
// cost is real either way).  Each message lists its wire fields once, in
// order (`fields`); control/codec.hpp encodes and decodes from that list.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "dataplane/packet.hpp"

namespace switchboard::control {

/// Published on .../site_<s>_instances by a VNF controller: one VNF
/// instance allocated to a chain at a site, with its LB weight.
struct InstanceAnnouncement {
  static constexpr std::string_view kType = "instance";
  dataplane::ElementId instance{dataplane::kNoElement};
  dataplane::ElementId forwarder{dataplane::kNoElement};
  double weight{1.0};
  static void fields(auto& m, auto&& f) {
    f("id", m.instance);
    f("fw", m.forwarder);
    f("w", m.weight);
  }
};

/// Published on .../site_<s>_forwarders by a Local Switchboard: a
/// forwarder fronting a chain's VNF instances at a site; weight is the sum
/// of the weights of the instances it fronts (Section 5.2).
struct ForwarderAnnouncement {
  static constexpr std::string_view kType = "forwarder";
  dataplane::ElementId forwarder{dataplane::kNoElement};
  double weight{1.0};
  static void fields(auto& m, auto&& f) {
    f("id", m.forwarder);
    f("w", m.weight);
  }
};

/// One hop of a wide-area chain route: the site hosting the z-th VNF
/// (on the wire: "stage:vnf:site").
struct RouteHop {
  std::size_t stage{0};   // z in 1..|F_c| (VNF stages only)
  VnfId vnf;
  SiteId site;
};

/// Published on /chains/<c>/routes by Global Switchboard after commit:
/// a wide-area route with its traffic fraction and labels.
struct RouteAnnouncement {
  static constexpr std::string_view kType = "route";
  ChainId chain;
  RouteId route;
  std::uint32_t chain_label{0};
  std::uint32_t egress_label{0};
  SiteId ingress_site;
  SiteId egress_site;
  double weight{1.0};   // fraction of the chain's traffic on this route
  /// Controller incarnation that issued the route (monotonically bumped on
  /// every cold start).  Receivers fence announcements older than the
  /// highest epoch they have seen; 0 (pre-durability senders) is ordered
  /// below every real epoch.
  std::uint64_t epoch{0};
  std::vector<RouteHop> hops;
  static void fields(auto& m, auto&& f) {
    f("chain", m.chain);
    f("route", m.route);
    f("cl", m.chain_label);
    f("el", m.egress_label);
    f("in", m.ingress_site);
    f("out", m.egress_site);
    f("w", m.weight);
    f("ep", m.epoch);
    f("hops", m.hops);
  }
};

/// Published on /health/site_<s> by a Local Switchboard: a periodic
/// liveness beat plus the local elements currently known down.  The
/// failure detector derives site liveness from beat arrival times and
/// element liveness from the down list.
struct Heartbeat {
  static constexpr std::string_view kType = "heartbeat";
  SiteId site;
  std::uint64_t seq{0};
  std::vector<dataplane::ElementId> down_elements;
  static void fields(auto& m, auto&& f) {
    f("site", m.site);
    f("seq", m.seq);
    f("down", m.down_elements);
  }
};

/// One VNF pool of an anycast link-state announcement: how many live
/// instances the origin site currently runs and their summed residual
/// capacity (instance capacity where configured, LB weight otherwise).
/// On the wire: "vnf:live_instances:residual_capacity".
struct AnycastVnfEntry {
  VnfId vnf;
  std::uint32_t live_instances{0};
  double residual_capacity{0.0};
};

/// SB-ANYCAST-D link-state announcement (DESIGN.md §17), flooded
/// site-to-site on the transient /health/anycast/ topics: the origin
/// site's per-VNF liveness + residual capacity, sequence-numbered for
/// dedup, with the propagation delay accumulated along the flooding path.
/// Like heartbeats, announcements are soft state — never retained, never
/// retransmitted — so receivers age entries out when they stop arriving.
struct AnycastAnnouncement {
  static constexpr std::string_view kType = "anycast";
  SiteId origin;
  std::uint64_t seq{0};
  /// Accumulated one-way delay (ms) from the origin along the flood path.
  double path_delay_ms{0.0};
  std::vector<AnycastVnfEntry> entries;
  static void fields(auto& m, auto&& f) {
    f("origin", m.origin);
    f("seq", m.seq);
    f("pd", m.path_delay_ms);
    f("vnfs", m.entries);
  }
};

[[nodiscard]] std::string serialize(const InstanceAnnouncement& m);
[[nodiscard]] std::string serialize(const ForwarderAnnouncement& m);
[[nodiscard]] std::string serialize(const RouteAnnouncement& m);

[[nodiscard]] std::optional<InstanceAnnouncement> parse_instance(
    const std::string& payload);
[[nodiscard]] std::optional<ForwarderAnnouncement> parse_forwarder(
    const std::string& payload);
[[nodiscard]] std::string serialize(const Heartbeat& m);

[[nodiscard]] std::optional<RouteAnnouncement> parse_route(
    const std::string& payload);
[[nodiscard]] std::optional<Heartbeat> parse_heartbeat(
    const std::string& payload);

[[nodiscard]] std::string serialize(const AnycastAnnouncement& m);
[[nodiscard]] std::optional<AnycastAnnouncement> parse_anycast(
    const std::string& payload);

/// Journal-replication frames on the /ctl/repl/ topics (DESIGN.md §18).
enum class ReplicationKind : std::uint8_t {
  kRecord = 0,           // leader -> follower: one journal record
  kSnapshotInstall = 1,  // leader -> follower: full snapshot, resets state
  kAck = 2,              // follower -> leader: cumulative durable seq
  kSnapshotAck = 3,      // follower -> leader: snapshot install durable
};

struct ReplicationFrame {
  ReplicationKind kind{ReplicationKind::kRecord};
  /// Sender replica id.
  std::uint32_t from{0};
  /// Leader epoch the frame belongs to; receivers fence older epochs.
  std::uint64_t epoch{0};
  /// kRecord: position of this record in the leader's stream (1-based).
  /// kAck: highest contiguously applied-and-durable seq at the follower.
  /// kSnapshotInstall / kSnapshotAck: the install's id (stream seq at the
  /// moment the snapshot was cut; applies reset the follower to it).
  std::uint64_t seq{0};
  /// FNV-1a applied-record digest — the sender's for acks (divergence
  /// check), the leader's post-install digest for snapshot installs.
  std::uint64_t digest{0};
  /// Journal records: exactly one for kRecord, the full (non-empty)
  /// snapshot for kSnapshotInstall, empty for acks — parse_replication
  /// rejects any other count.  Serialized as the LAST field ('\n'-joined):
  /// records embed ';' and '=' freely but never '\n'.
  std::vector<std::string> records;
};

[[nodiscard]] std::string serialize(const ReplicationFrame& m);
[[nodiscard]] std::optional<ReplicationFrame> parse_replication(
    const std::string& payload);

}  // namespace switchboard::control
