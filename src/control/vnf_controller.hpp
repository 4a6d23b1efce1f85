// VNF service controller (Sections 3 and 4): manages one VNF's instances
// across sites, participates in Global Switchboard's two-phase commit
// (voting abort when a site lacks compute headroom), and publishes
// committed instance allocations on the message bus.
//
// Instances are shared across chains by default (the paper's
// service-oriented design, evaluated in Section 7.2's shared-cache
// experiment); capacity accounting is per site.
//
// Fault tolerance: the participant side of the hardened 2PC.  Duplicate
// prepares (coordinator retries / message duplication) are deduplicated
// per stage; a late abort for a committed route and a late commit for an
// aborted route are rejected-and-counted instead of crashing.  An `up()`
// flag models crash/restore: a down controller is unreachable (RPCs time
// out at the coordinator), but keeps its state for when it returns — the
// coordinator then reconciles that state against its journal
// (GlobalSwitchboard::reconcile_participant), aborting reservations and
// releasing capacity of rounds it gave up on or retired meanwhile.
//
// Epoch fencing: every 2PC verb carries the coordinator's incarnation
// epoch.  The participant tracks the highest epoch it has seen and
// rejects-and-counts commands from older incarnations — a coordinator
// that crashed, lost its memory, and was superseded must not mutate
// reservations here.  Every caller passes its epoch: there is no bypass.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <string>
#include <utility>
#include <vector>

#include "bus/topic.hpp"
#include "common/types.hpp"
#include "control/context.hpp"
#include "control/messages.hpp"
#include "control/two_phase.hpp"

namespace switchboard::control {

class VnfController {
 public:
  VnfController(ControlContext& context, VnfId vnf);

  [[nodiscard]] VnfId vnf() const { return vnf_; }

  /// Reachability (fault injection): a down controller never answers an
  /// RPC — coordinators check up() and drive their timeout path.  State is
  /// kept across crash/restore.
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool up() const { return up_; }

  /// --- two-phase commit participant ------------------------------------
  /// Reserves `load` compute at `site` for (chain, route).  Returns false
  /// (vote abort) when committed + pending load would exceed the site
  /// capacity m_sf.  `stage` identifies the chain stage making the
  /// reservation: re-delivery of an already-recorded (chain, route, stage)
  /// prepare is an idempotent yes (no double reservation).
  bool prepare(ChainId chain, RouteId route, SiteId site, double load,
               std::size_t stage, std::uint64_t epoch);

  /// Converts the reservation into a committed allocation, allocates (or
  /// reuses) an instance at each reserved site, and publishes the
  /// instance on the chain's instances topic.  A commit arriving after
  /// the reservation was aborted (kAborted) is rejected and counted; a
  /// commit while kIdle still crashes (coordinator bug).
  void commit(ChainId chain, RouteId route, std::uint32_t egress_label,
              std::uint64_t epoch);

  /// Drops the reservation.  A late abort for an already-committed route
  /// (message duplication / coordinator retry) is rejected-and-counted —
  /// un-accounting committed capacity would corrupt it.
  void abort(ChainId chain, RouteId route, std::uint64_t epoch);

  /// Releases the committed allocation of (chain, route) — the recovery
  /// path's "this route no longer exists".  The 2PC state stays
  /// kCommitted (terminal); only the capacity accounting is returned.
  void release(ChainId chain, RouteId route, std::uint64_t epoch);

  /// Committed + pending load at a site.
  [[nodiscard]] double allocated(SiteId site) const;
  /// Remaining headroom at a site (capacity m_sf minus allocated).
  [[nodiscard]] double headroom(SiteId site) const;

  /// Ensures an instance of this VNF exists at `site` (reusing a shared
  /// instance if present); returns its element id.
  dataplane::ElementId ensure_instance(SiteId site);

  /// Horizontal scaling (Fig. 5: instances G1, G2 behind forwarder F1):
  /// grows the instance pool at `site` to `count` instances, all behind
  /// the VNF's forwarder, and re-announces them on every chain topic this
  /// controller has committed at the site so Local Switchboards rebalance.
  /// Returns the new instance ids (existing ones excluded).
  std::vector<dataplane::ElementId> scale_instances(SiteId site,
                                                    std::size_t count);

  /// Re-announces every instance of this VNF at `site` on all committed
  /// chain topics with its current registry weight — 0 for instances
  /// marked down — so Local Switchboards rebalance onto survivors and
  /// drain flows off dead instances.  The recovery pipeline's drain
  /// trigger.
  void reannounce_instances(SiteId site);

  /// Protocol state observed for a (chain, route) at this participant.
  [[nodiscard]] TwoPhaseState two_phase_state(ChainId chain,
                                              RouteId route) const {
    return two_phase_.state(chain, route);
  }

  /// Commands fenced because they carried an epoch older than the highest
  /// seen (stale controller incarnation).
  [[nodiscard]] std::uint64_t stale_commands_rejected() const {
    return stale_commands_rejected_;
  }
  [[nodiscard]] std::uint64_t highest_epoch() const { return highest_epoch_; }

  /// Every (chain, route) holding reserved, uncommitted capacity here.
  [[nodiscard]] std::vector<std::pair<ChainId, RouteId>> pending_routes()
      const;
  /// Every (chain, route) holding committed capacity here.  With
  /// pending_routes(), what the coordinator reconciles against its
  /// journal to find orphans.
  [[nodiscard]] std::vector<std::pair<ChainId, RouteId>> committed_routes()
      const;

  /// Audits the participant (aborts via SWB_CHECK on violation): per-site
  /// pending load equals the sum of outstanding reservations, committed
  /// load equals the sum of committed reservations, both finite and
  /// non-negative, every pending (chain, route) is in 2PC state kPrepared
  /// or kAborted, and no prepared pair lacks its reservation list.
  void check_invariants() const;

 private:
  struct Reservation {
    SiteId site;
    double load{0.0};
    std::size_t stage{0};
  };

  void publish_instance(ChainId chain, std::uint32_t egress_label,
                        SiteId site, dataplane::ElementId instance);
  /// True when `epoch` is stale (command must be dropped); advances the
  /// fence otherwise.
  bool fenced(std::uint64_t epoch, const char* verb);

  ControlContext& context_;
  VnfId vnf_;
  bool up_{true};
  // Pending 2PC reservations keyed by (chain, route).
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Reservation>>
      pending_;
  // Committed reservations, kept so release() can free capacity when the
  // recovery path retires a route.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Reservation>>
      committed_;
  // Committed announcement topics: (chain, egress label, site) — used to
  // re-announce when instances scale.
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
      announced_;
  std::vector<double> committed_load_;   // per site
  std::vector<double> pending_load_;     // per site
  TwoPhaseTracker two_phase_;            // per-(chain, route) protocol state
  std::uint64_t highest_epoch_{0};
  std::uint64_t stale_commands_rejected_{0};
};

}  // namespace switchboard::control
