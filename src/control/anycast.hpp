// SB-ANYCAST-D (DESIGN.md §17): the decentralized chain-routing mode.
//
// One AnycastRouter runs beside every Local Switchboard.  It periodically
// floods a sequence-numbered link-state announcement of its site's
// per-VNF liveness + residual capacity over per-pair bus topics
// (split-horizon re-flood, dedup by (origin, seq)), maintains a
// next-function table from the announcements it hears, and answers the
// data plane's per-stage steering question: "where is the nearest live
// instance of VNF f, excluding the sites this packet already visited?"
//
// The router never talks to the Global Switchboard.  Chain definitions
// (VNF sequence, labels, ingress/egress) are learned passively from the
// bus-replicated RouteAnnouncements every site already receives — once a
// chain exists, forwarding continues with the controller crashed or
// partitioned away.  Remote liveness degrades gracefully when
// announcements stop: entries older than stale_after() are treated as
// dead (the same silence-is-death rule the FailureDetector applies to
// heartbeats); local liveness reads the ElementRegistry directly, the
// same ground truth the site's heartbeats export.
//
// Determinism contract (§14): announcements, re-floods, and steering
// tie-breaks are recorded in an append-only trace whose FNV-1a digest is
// byte-identical for a fixed seed — candidate ordering is (model delay,
// higher residual, lower site id), never an unordered container walk.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bus/topic.hpp"
#include "control/context.hpp"
#include "control/messages.hpp"

namespace switchboard::control {

struct AnycastConfig {
  /// Announcement flood period (heartbeat-like).
  sim::Duration announce_period{sim::from_ms(50.0)};
  /// A remote entry unheard for this many periods is aged out (treated as
  /// a dead site until announcements resume).
  std::uint32_t stale_after_periods{4};
  /// Wide-area hops a packet may take before it is dropped (loop guard).
  std::uint16_t hop_budget{8};
};

/// What the table knows about one remote site's VNF pool.
struct AnycastPoolView {
  std::uint32_t live_instances{0};
  double residual_capacity{0.0};
};

class AnycastRouter {
 public:
  AnycastRouter(ControlContext& context, SiteId site, AnycastConfig config);

  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] const AnycastConfig& config() const { return config_; }
  [[nodiscard]] sim::Duration stale_after() const {
    return config_.announce_period *
           static_cast<sim::Duration>(config_.stale_after_periods);
  }

  /// Subscribes to every peer's flooding topic.  Call once, after all
  /// sites exist; announcing starts separately via start_announcing().
  void start();

  /// Begins the periodic announcement flood.  Self-rescheduling: call
  /// stop_announcing() before draining the simulator to completion.
  void start_announcing();
  void stop_announcing();

  /// Liveness (fault injection): a down router neither announces nor
  /// processes announcements — its silence ages its entries out at every
  /// peer, exactly like a crashed site.  Table state survives for restore.
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool up() const { return up_; }

  /// Chain knowledge, learned from bus-replicated RouteAnnouncements (via
  /// LocalSwitchboard::set_route_observer).  Keyed by chain id; later
  /// announcements refresh labels/hops in place.
  struct ChainInfo {
    ChainId chain;
    dataplane::Labels labels;
    SiteId ingress_site;
    SiteId egress_site;
    std::vector<VnfId> vnfs;   // by stage, 1-based stage z at vnfs[z-1]
  };
  void learn_route(const RouteAnnouncement& announcement);
  [[nodiscard]] const ChainInfo* chain_info(ChainId chain) const;

  /// Steering: the best site serving `vnf` as seen from `here`, excluding
  /// sites in `visited_mask` (the current site is never excluded by its
  /// own bit — staying local is always legal).  Order: fresh + live only,
  /// then (delay_ms(here, s) ascending, residual capacity descending,
  /// site id ascending).  Deterministic; every decision is trace-recorded
  /// under `tag`.  Returns nullopt when no live instance is reachable.
  [[nodiscard]] std::optional<SiteId> next_site(VnfId vnf, SiteId here,
                                                std::uint64_t visited_mask,
                                                const std::string& tag);

  /// The table's current view of (site, vnf): live pool or aged out.
  /// The router's own site always reads fresh from the registry.
  [[nodiscard]] std::optional<AnycastPoolView> pool_view(SiteId site,
                                                         VnfId vnf) const;

  /// Entry point for announcements (normally via the bus).
  void on_announcement(SiteId from_neighbor,
                       const AnycastAnnouncement& announcement);

  // Determinism artifact + protocol counters.
  [[nodiscard]] std::string trace_string() const;
  /// FNV-1a over the trace; byte-identical traces <=> equal digests.
  [[nodiscard]] std::uint64_t trace_digest() const;
  [[nodiscard]] std::uint64_t announcements_sent() const {
    return announcements_sent_;
  }
  [[nodiscard]] std::uint64_t announcements_received() const {
    return announcements_received_;
  }
  [[nodiscard]] std::uint64_t refloods() const { return refloods_; }
  [[nodiscard]] std::uint64_t duplicates_dropped() const {
    return duplicates_dropped_;
  }

  /// Audits the router (aborts via SWB_CHECK on violation): no table
  /// entry for the router's own site, per-origin sequence numbers only
  /// grow, heard-times never lie in the future, trace timestamps are
  /// monotone, and every learned chain has a gap-free stage sequence.
  void check_invariants() const;

 private:
  /// Per-origin link state learned from the newest announcement.
  struct PeerState {
    std::uint64_t seq{0};
    sim::SimTime heard{0};
    double path_delay_ms{0.0};
    /// Ordered by vnf id: iteration feeds the trace (§14).
    std::map<std::uint32_t, AnycastPoolView> pools;
  };

  void publish_announcement();
  /// This site's own announcement content, read from the registry; bumps
  /// the sequence number.
  [[nodiscard]] AnycastAnnouncement local_announcement();
  /// Floods `announcement` to every peer except `except` (split horizon).
  void flood(const AnycastAnnouncement& announcement, SiteId except);
  void record(std::string line);
  [[nodiscard]] bool entry_fresh(const PeerState& state) const;

  ControlContext& context_;
  SiteId site_;
  AnycastConfig config_;
  bool up_{true};
  bool announcing_{false};
  bool started_{false};
  std::uint64_t seq_{0};
  sim::EventHandle announce_event_{};
  std::map<std::uint32_t, PeerState> table_;   // by origin site id
  std::map<std::uint32_t, ChainInfo> chains_;  // by chain id
  std::vector<std::string> trace_;
  sim::SimTime last_trace_at_{0};
  std::uint64_t announcements_sent_{0};
  std::uint64_t announcements_received_{0};
  std::uint64_t refloods_{0};
  std::uint64_t duplicates_dropped_{0};
};

}  // namespace switchboard::control
