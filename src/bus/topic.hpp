// Topic naming for the global message bus (Section 6).
//
// Topics follow the paper's convention, e.g.
//     /c1/e3/vnf_O/site_B_forwarders
// (chain c1, egress site e3, VNF O, the forwarders at site B).  The
// *publisher's site* is part of the topic — that is what lets the bus
// install subscription filters at the publisher-side proxy.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace switchboard::bus {

/// Path prefix of transient topics (heartbeats, anycast announcements):
/// the bus never retains and never retransmits them.
inline constexpr std::string_view kTransientPrefix = "/health/";

/// Path prefix of the journal-replication topics (stream frames and acks):
/// reliable, but never retained.  Every replica subscribes to every stream
/// and ack topic up front and a restored replica re-syncs by snapshot
/// install, so no subscriber ever arrives late to replay them to.
inline constexpr std::string_view kReplicationPrefix = "/ctl/repl/";

struct Topic {
  std::string path;
  /// The site whose elements publish on this topic; subscription filters
  /// install at this site's proxy.
  SiteId publisher_site;

  friend bool operator==(const Topic&, const Topic&) = default;
};

/// "/c<chain>/e<egress>/vnf_<vnf>/site_<site>_instances" — the VNF's
/// instances (IPs + load-balancing weights) at a site, for one chain route.
[[nodiscard]] Topic instances_topic(ChainId chain, std::uint32_t egress_label,
                                    VnfId vnf, SiteId site);

/// "/c<chain>/e<egress>/vnf_<vnf>/site_<site>_forwarders" — the forwarders
/// fronting the VNF's instances at a site.
[[nodiscard]] Topic forwarders_topic(ChainId chain, std::uint32_t egress_label,
                                     VnfId vnf, SiteId site);

/// "/chains/all" — the one routes topic: every chain's wide-area routes,
/// labels and route tombstones, published by the Global Switchboard
/// (hosted at `controller_site`) and subscribed by the Local Switchboard
/// of every site at start (Section 6).  One topic for all chains, not one
/// per chain: a site learns a new chain without a new subscription.
[[nodiscard]] Topic routes_topic(SiteId controller_site);

/// "/health/site_<s>" — liveness heartbeats of a site's Local Switchboard
/// (plus its down-element list), consumed by the failure detector.  The
/// "/health/" prefix (kTransientPrefix) marks the topic transient: never
/// retained, never retransmitted.
[[nodiscard]] Topic health_topic(SiteId site);

/// "/health/anycast/<from>_<to>" — one directed flooding edge of the
/// SB-ANYCAST-D link-state protocol (DESIGN.md §17): site `from` floods
/// its own and relayed announcements to site `to`, which alone subscribes.
/// Deliberately a per-pair topic (not one broadcast topic): each copy is a
/// distinct (from, to) wide-area send, so site-pair partitions cut exactly
/// the flooding edges they would cut in a real network and announcements
/// still reach a partitioned-from-the-origin site through relays.  The
/// "/health/" prefix keeps announcements transient soft state: never
/// retained, never retransmitted — staleness is handled by aging, not by
/// the bus.
[[nodiscard]] Topic anycast_topic(SiteId from, SiteId to);

/// "/ctl/repl/<from>_<to>" — the directed journal-replication stream from
/// controller replica `from` to replica `to` (DESIGN.md §18).  NOT under
/// "/health/": replication frames are control state, so they ride the
/// reliable bus (acked, retransmitted) and survive transient loss.
/// `publisher_site` is the site hosting replica `from`.
[[nodiscard]] Topic replication_stream_topic(std::uint32_t from_replica,
                                             std::uint32_t to_replica,
                                             SiteId publisher_site);

/// "/ctl/repl/ack/<from>_<to>" — cumulative durable-apply acknowledgements
/// from replica `from` back to replica `to` (the quorum barrier's input).
[[nodiscard]] Topic replication_ack_topic(std::uint32_t from_replica,
                                          std::uint32_t to_replica,
                                          SiteId publisher_site);

/// "/health/ctl/replica_<r>" — liveness heartbeats of controller replica
/// `r`, watched by every peer replica's failure detector.  Transient like
/// site heartbeats: never retained, never retransmitted.
[[nodiscard]] Topic replica_health_topic(std::uint32_t replica,
                                         SiteId publisher_site);

}  // namespace switchboard::bus
