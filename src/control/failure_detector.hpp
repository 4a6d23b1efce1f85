// Heartbeat-based failure detector (the recovery pipeline's first stage).
//
// Every Local Switchboard beats on /health/site_<s> (a transient topic:
// not retained, not retransmitted — a stale or duplicated beat is worse
// than a missed one).  The detector, running at the Global Switchboard's
// site, subscribes to every watched site's health topic and sweeps at the
// beat period: a site silent for `suspicion_threshold` periods is declared
// down; element failures ride inside the beats (a Local Switchboard
// reports its locally-down elements), so an instance crash is detected in
// one beat period even though its site stays up.  A beat from a suspected
// site clears the suspicion (partition healed / Local Switchboard
// restored).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "bus/topic.hpp"
#include "common/thread_annotations.hpp"
#include "control/context.hpp"
#include "control/messages.hpp"

namespace switchboard::control {

/// Consecutive beats an element must be reported down before the failure
/// is relayed upward.  Debouncing keeps a flapping element — down in one
/// beat, back in the next — from triggering a route retirement per flap.
inline constexpr std::uint32_t kElementDebounceBeats = 2;

struct FailureDetectorConfig {
  /// Expected heartbeat period (sweep cadence; Local Switchboards should
  /// beat at the same period).
  sim::Duration period{sim::from_ms(50.0)};
  /// Beats missed before a site is suspected down.
  std::uint32_t suspicion_threshold{3};
};

class FailureDetector {
 public:
  using SiteCallback = std::function<void(SiteId)>;
  using ElementCallback = std::function<void(dataplane::ElementId, SiteId)>;

  FailureDetector(ControlContext& context, SiteId home_site,
                  FailureDetectorConfig config = {});

  [[nodiscard]] const FailureDetectorConfig& config() const { return config_; }

  void set_site_down_callback(SiteCallback callback);
  /// A suspected site resumed beating (restore / partition heal).
  void set_site_up_callback(SiteCallback callback);
  void set_element_down_callback(ElementCallback callback);

  /// Subscribes to `site`'s health topic and includes it in the sweep.
  /// Idempotent.  The silence clock starts now (grace for slow starters).
  void watch_site(SiteId site);

  /// General form: watches heartbeats on an arbitrary transient topic,
  /// keyed by `key` (the Heartbeat's `site` field must carry the same
  /// key).  This is how controller-replica liveness rides the same sweep
  /// as site liveness (DESIGN.md §18): replicas beat on
  /// /health/ctl/replica_<r> under a synthetic SiteId key that cannot
  /// collide with real sites.  Idempotent per key.
  void watch_heartbeats(SiteId key, const bus::Topic& topic);

  /// Starts the periodic sweep.  Self-rescheduling: call stop() before
  /// draining the simulator to completion.  Idempotent.
  void start();
  void stop();

  /// Forgets the element-relay dedup history (and debounce streaks) so
  /// still-down elements are re-reported.  Called after the Global
  /// Switchboard recovers from crash-with-amnesia: the fresh incarnation
  /// must hear about failures the old one already consumed (re-reports
  /// are idempotent there).  Site suspicion state is kept — site liveness
  /// is the detector's own observation, not controller memory.
  void resync();

  [[nodiscard]] bool running() const {
    const swb::MutexLock lock{mutex_};
    return running_;
  }
  [[nodiscard]] bool suspects(SiteId site) const;
  /// Total site-down declarations (re-suspecting after a recovery counts
  /// again).
  [[nodiscard]] std::uint64_t suspicions_raised() const {
    const swb::MutexLock lock{mutex_};
    return suspicions_raised_;
  }
  [[nodiscard]] std::uint64_t recoveries_observed() const {
    const swb::MutexLock lock{mutex_};
    return recoveries_observed_;
  }
  [[nodiscard]] std::uint64_t element_failures_reported() const {
    const swb::MutexLock lock{mutex_};
    return element_failures_reported_;
  }

  /// Audits the detector (aborts via SWB_CHECK on violation): config sane,
  /// per-site beat times never ahead of now, sequence numbers monotone,
  /// counter arithmetic consistent (suspicions >= recoveries, currently
  /// suspected sites account for the difference).
  void check_invariants() const;

 private:
  struct SiteState {
    sim::SimTime last_beat{0};        // arrival time of the last beat
    std::uint64_t last_seq{0};
    bool suspected{false};
    /// Elements this site reported down that we already relayed upward.
    std::set<dataplane::ElementId> down_reported;
    /// Consecutive beats each element has been reported down (debounce).
    std::map<dataplane::ElementId, std::uint32_t> down_streak;
  };

  void on_heartbeat(const Heartbeat& beat);
  void sweep();

  ControlContext& context_;
  SiteId home_site_;
  FailureDetectorConfig config_;
  /// One lock covers detector state, counters, and the callback slots.
  /// Contract: callbacks NEVER run under it — site_down relays re-enter
  /// the recovery pipeline (registry, routing, the bus) and may call back
  /// into the detector (suspects(), resync(), even stop()).  on_heartbeat
  /// and sweep() collect pending notifications under the lock and invoke
  /// them after release; sweep() reschedules itself *before* notifying so
  /// a stop() from inside a callback cancels the already-scheduled next
  /// sweep instead of leaving a stray one behind.
  mutable swb::Mutex mutex_;
  SiteCallback site_down_ SWB_GUARDED_BY(mutex_);
  SiteCallback site_up_ SWB_GUARDED_BY(mutex_);
  ElementCallback element_down_ SWB_GUARDED_BY(mutex_);
  std::map<std::uint32_t, SiteState> sites_ SWB_GUARDED_BY(mutex_);
  bool running_ SWB_GUARDED_BY(mutex_){false};
  sim::EventHandle sweep_event_ SWB_GUARDED_BY(mutex_){};
  std::uint64_t suspicions_raised_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t recoveries_observed_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t element_failures_reported_ SWB_GUARDED_BY(mutex_){0};
};

}  // namespace switchboard::control
