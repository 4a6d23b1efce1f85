// Local Switchboard (Sections 3, 5.2, 6): the per-site control agent.
//
// It learns chain routes from the bus (replicated to every site), figures
// out this site's roles in each route (VNF host, ingress, egress),
// subscribes to the instance/forwarder topics those roles require,
// derives the hierarchical weighted load-balancing rules (site-level
// routing weight x instance weight), installs them on the site's
// forwarders, publishes forwarder announcements, and reports readiness
// back to Global Switchboard.
//
// It also implements on-demand edge-site addition (Section 6, Table 2):
// when a chain's user appears at a new edge site, the Local Switchboard
// picks the nearest existing route, configures the local edge forwarder
// from the bus-replicated state, and triggers the return-path
// configuration at the first VNF's forwarder.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bus/topic.hpp"
#include "common/result.hpp"
#include "control/context.hpp"
#include "control/messages.hpp"

namespace switchboard::control {

/// Timestamps of the six operations in Table 2.
struct EdgeAdditionTrace {
  sim::SimTime started{0};
  sim::SimTime site_chosen{0};              // Local SB picks the route
  sim::SimTime forwarder_info_received{0};  // edge fwrdr gets 1st VNF info
  sim::SimTime edge_configured{0};          // edge fwrdr dataplane ready
  sim::SimTime remote_received{0};          // VNF fwrdr gets edge info
  sim::SimTime remote_config_started{0};
  sim::SimTime remote_config_finished{0};
};

class LocalSwitchboard {
 public:
  using ReadyCallback = std::function<void(ChainId, RouteId, SiteId)>;
  using PeerLookup = std::function<LocalSwitchboard*(SiteId)>;
  using RouteObserver = std::function<void(const RouteAnnouncement&)>;

  LocalSwitchboard(ControlContext& context, SiteId site);

  [[nodiscard]] SiteId site() const { return site_; }

  /// Readiness notifications toward Global Switchboard.
  void set_ready_callback(ReadyCallback callback);
  /// Peer Local Switchboards, for return-path RPCs in edge addition.
  void set_peer_lookup(PeerLookup lookup);
  /// Observer of every accepted (non-fenced) route announcement — how the
  /// site's AnycastRouter learns chain definitions without ever talking
  /// to the Global Switchboard (DESIGN.md §17).
  void set_route_observer(RouteObserver observer);

  /// Subscribes to the global routes topic (call once, before any chain
  /// is created).  `routes_topic` is Global Switchboard's announcement
  /// topic for all chains.
  void start(const bus::Topic& routes_topic);

  /// Entry point for route announcements (normally via the bus).  Fences
  /// announcements whose controller epoch is older than the highest this
  /// site has seen (a stale Global Switchboard incarnation — or a retained
  /// pre-crash message replayed after the controller already restarted).
  void handle_route(const RouteAnnouncement& announcement);

  /// Route announcements fenced for carrying a stale controller epoch.
  [[nodiscard]] std::uint64_t stale_routes_rejected() const {
    return stale_routes_rejected_;
  }
  [[nodiscard]] std::uint64_t highest_route_epoch() const {
    return max_route_epoch_;
  }

  /// On-demand edge-site addition for mobility (Table 2).  The chain must
  /// already be active elsewhere.  `edge_instance` is the local edge
  /// instance taking the traffic (created via the edge controller or
  /// directly in the registry).
  void attach_edge(ChainId chain, dataplane::ElementId edge_instance,
                   std::function<void(Result<EdgeAdditionTrace>)> done);

  /// Liveness (fault injection): a down Local Switchboard stops emitting
  /// heartbeats (the failure detector's site-death signal) but keeps its
  /// replicated state for restore.
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool up() const { return up_; }

  /// Starts periodic heartbeats on /health/site_<s>, carrying the local
  /// elements currently marked down.  Heartbeats self-reschedule forever:
  /// call stop_heartbeats() (or Deployment::stop_recovery) before draining
  /// the simulator to completion.
  void start_heartbeats(sim::Duration period);
  void stop_heartbeats();

  /// Called by a peer when it finished configuring the return path for an
  /// edge addition started at this site.
  void on_return_path_configured(ChainId chain, sim::SimTime received,
                                 sim::SimTime started, sim::SimTime finished);

 private:
  struct PerChain {
    ChainId chain;
    dataplane::Labels labels;
    SiteId ingress_site;
    SiteId egress_site;
    /// Routes merged by route id (weights update in place).
    std::vector<RouteAnnouncement> routes;
    /// Announcements gathered from the bus, keyed by topic path; within a
    /// topic, entries are upserted by element id.  `instances` is walked,
    /// so it is ordered: topic path, then announcement order, fixes the
    /// order of rule construction and of the published weight sums
    /// (determinism contract, DESIGN.md §14).  `forwarders` is only
    /// looked up.
    std::map<std::string, std::vector<InstanceAnnouncement>> instances;
    std::unordered_map<std::string, std::vector<ForwarderAnnouncement>>
        forwarders;
    std::set<std::string> subscribed;
    std::set<std::uint32_t> ready_routes;           // notified route ids
    std::map<dataplane::ElementId, double> published_weight;
    /// Edge forwarders whose return path this site already configured.
    std::set<dataplane::ElementId> return_paths_configured;
  };

  /// One local forwarder's share of a chain, gathered by reconcile's one
  /// walk over the instance announcements.
  struct Fronted {
    VnfId vnf;                          // invalid: it fronts an edge
    double weight{0.0};                 // sum of its instance weights
    dataplane::LoadBalanceRule rule;    // its live instances, so far
  };

  struct PendingEdgeAddition {
    ChainId chain;
    dataplane::ElementId edge_instance{dataplane::kNoElement};
    dataplane::ElementId edge_forwarder{dataplane::kNoElement};
    SiteId target_site;                // first VNF's site on chosen route
    EdgeAdditionTrace trace;
    bool local_configured{false};
    bool remote_configured{false};
    std::function<void(Result<EdgeAdditionTrace>)> done;
  };

  PerChain& chain_state(const RouteAnnouncement& announcement);
  void subscribe_instances(PerChain& pc, VnfId vnf, SiteId site);
  void subscribe_forwarders(PerChain& pc, VnfId vnf, SiteId site);
  void handle_new_edge_forwarder(PerChain& pc, SiteId edge_site,
                                 const ForwarderAnnouncement& announcement);
  void reconcile(PerChain& pc);
  void maybe_finish_edge_addition(PendingEdgeAddition& pending);
  void publish_heartbeat();

  /// Adds the next hops of every live route `fronted` serves to its rule
  /// and installs the rule on `forwarder`.
  void install_rule(const PerChain& pc, dataplane::ElementId forwarder,
                    Fronted& fronted);

  ControlContext& context_;
  SiteId site_;
  ReadyCallback ready_callback_;
  PeerLookup peer_lookup_;
  RouteObserver route_observer_;
  std::map<std::uint32_t, PerChain> chains_;          // by chain id
  std::vector<PendingEdgeAddition> pending_edges_;
  bool up_{true};
  std::uint64_t max_route_epoch_{0};
  std::uint64_t stale_routes_rejected_{0};
  bool heartbeats_on_{false};
  sim::Duration heartbeat_period_{0};
  std::uint64_t heartbeat_seq_{0};
  sim::EventHandle heartbeat_event_{};
};

}  // namespace switchboard::control
