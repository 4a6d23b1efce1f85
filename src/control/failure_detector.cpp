#include "control/failure_detector.hpp"

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::control {

FailureDetector::FailureDetector(ControlContext& context, SiteId home_site,
                                 FailureDetectorConfig config)
    : context_{context}, home_site_{home_site}, config_{config} {
  SWB_CHECK(config_.period > 0) << "detector period must be positive";
  SWB_CHECK(config_.suspicion_threshold > 0);
}

void FailureDetector::set_site_down_callback(SiteCallback callback) {
  const swb::MutexLock lock{mutex_};
  site_down_ = std::move(callback);
}

void FailureDetector::set_site_up_callback(SiteCallback callback) {
  const swb::MutexLock lock{mutex_};
  site_up_ = std::move(callback);
}

void FailureDetector::set_element_down_callback(ElementCallback callback) {
  const swb::MutexLock lock{mutex_};
  element_down_ = std::move(callback);
}

void FailureDetector::watch_site(SiteId site) {
  watch_heartbeats(site, bus::health_topic(site));
}

void FailureDetector::watch_heartbeats(SiteId key, const bus::Topic& topic) {
  {
    const swb::MutexLock lock{mutex_};
    if (sites_.count(key.value()) != 0) return;
    SiteState state;
    state.last_beat = context_.sim.now();
    sites_[key.value()] = state;
  }
  // Subscribe outside the lock: health topics are transient (never
  // retained) so no replay fires here, but the bus takes its own locks.
  context_.bus.subscribe(home_site_, topic,
                         [this](const bus::Message& message) {
                           if (const auto beat =
                                   parse_heartbeat(message.payload)) {
                             on_heartbeat(*beat);
                           }
                         });
}

void FailureDetector::start() {
  const swb::MutexLock lock{mutex_};
  if (running_) return;
  running_ = true;
  sweep_event_ = context_.sim.schedule(config_.period, [this] { sweep(); });
}

void FailureDetector::stop() {
  const swb::MutexLock lock{mutex_};
  running_ = false;
  if (sweep_event_.valid()) {
    context_.sim.cancel(sweep_event_);
    sweep_event_ = sim::EventHandle{};
  }
}

void FailureDetector::resync() {
  const swb::MutexLock lock{mutex_};
  for (auto& [site_raw, state] : sites_) {
    state.down_reported.clear();
    state.down_streak.clear();
  }
}

bool FailureDetector::suspects(SiteId site) const {
  const swb::MutexLock lock{mutex_};
  const auto it = sites_.find(site.value());
  return it != sites_.end() && it->second.suspected;
}

void FailureDetector::on_heartbeat(const Heartbeat& beat) {
  SiteCallback notify_up;
  ElementCallback notify_element;
  std::vector<dataplane::ElementId> relay;
  {
    const swb::MutexLock lock{mutex_};
    const auto it = sites_.find(beat.site.value());
    if (it == sites_.end()) return;   // never watched; ignore
    SiteState& state = it->second;
    // Health topics are transient (no retention, no retransmit), so an
    // out-of-order beat can only come from injected duplication/delay —
    // a stale sequence number must not refresh the liveness clock.
    if (beat.seq <= state.last_seq) return;
    state.last_seq = beat.seq;
    state.last_beat = context_.sim.now();
    if (state.suspected) {
      state.suspected = false;
      ++recoveries_observed_;
      SB_LOG(kInfo) << "detector: site " << beat.site << " is back (seq "
                    << beat.seq << ")";
      notify_up = site_up_;
    }

    // Element liveness rides in the beat: relay an element only after it
    // has been down kElementDebounceBeats beats in a row (a flap that
    // heals within the debounce window triggers nothing), relay once, and
    // forget recovered ones so a re-failure is debounced and reported
    // again.
    std::set<dataplane::ElementId> down_now{beat.down_elements.begin(),
                                            beat.down_elements.end()};
    for (const dataplane::ElementId element : down_now) {
      const std::uint32_t streak = ++state.down_streak[element];
      if (streak < kElementDebounceBeats) continue;
      if (state.down_reported.insert(element).second) {
        ++element_failures_reported_;
        SB_LOG(kInfo) << "detector: element " << element << " down at site "
                      << beat.site << " (" << streak << " beats)";
        relay.push_back(element);
      }
    }
    std::erase_if(state.down_reported, [&](dataplane::ElementId element) {
      return down_now.count(element) == 0;
    });
    std::erase_if(state.down_streak, [&](const auto& entry) {
      return down_now.count(entry.first) == 0;
    });
    if (!relay.empty()) notify_element = element_down_;
  }
  // Callbacks outside the lock (contract in the header): site_up first so
  // the upper layer sees the site recovered before any element relays.
  if (notify_up) notify_up(beat.site);
  if (notify_element) {
    for (const dataplane::ElementId element : relay) {
      notify_element(element, beat.site);
    }
  }
}

void FailureDetector::sweep() {
  SiteCallback notify_down;
  std::vector<SiteId> newly_suspected;
  {
    const swb::MutexLock lock{mutex_};
    if (!running_) return;
    const sim::Duration silence_limit =
        config_.period *
        static_cast<sim::Duration>(config_.suspicion_threshold);
    for (auto& [site_raw, state] : sites_) {
      if (state.suspected) continue;
      if (context_.sim.now() - state.last_beat <= silence_limit) continue;
      state.suspected = true;
      ++suspicions_raised_;
      const SiteId site{site_raw};
      SB_LOG(kWarn) << "detector: site " << site << " suspected down ("
                    << sim::to_ms(context_.sim.now() - state.last_beat)
                    << " ms silent)";
      newly_suspected.push_back(site);
    }
    // Reschedule before notifying: a stop() from inside a callback then
    // cancels this handle instead of leaving a stray sweep scheduled.
    sweep_event_ = context_.sim.schedule(config_.period, [this] { sweep(); });
    if (!newly_suspected.empty()) notify_down = site_down_;
  }
  if (notify_down) {
    for (const SiteId site : newly_suspected) notify_down(site);
  }
}

void FailureDetector::check_invariants() const {
  const swb::MutexLock lock{mutex_};
  SWB_CHECK(config_.period > 0);
  SWB_CHECK(config_.suspicion_threshold > 0);
  std::uint64_t currently_suspected = 0;
  for (const auto& [site_raw, state] : sites_) {
    SWB_CHECK_LE(state.last_beat, context_.sim.now())
        << "site " << site_raw << " heard from the future";
    if (state.suspected) ++currently_suspected;
    // A relayed element must have survived the debounce window.
    for (const dataplane::ElementId element : state.down_reported) {
      const auto streak = state.down_streak.find(element);
      SWB_CHECK(streak != state.down_streak.end() &&
                streak->second >= kElementDebounceBeats)
          << "element " << element << " relayed before the debounce window";
    }
  }
  // Every suspicion either recovered or is still open.
  SWB_CHECK_GE(suspicions_raised_, recoveries_observed_);
  SWB_CHECK_EQ(suspicions_raised_ - recoveries_observed_,
               currently_suspected)
      << "suspicion counters drifted from per-site state";
  SWB_CHECK(!running_ || sweep_event_.valid());
}

}  // namespace switchboard::control
