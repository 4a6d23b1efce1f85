// Deterministic fault injection for the discrete-event simulator.
//
// One FaultInjector sits between the simulator and everything that can
// fail: it decides, per wide-area message, whether the copy is dropped,
// duplicated, or delayed (seeded randomness plus site-pair partitions),
// and it crashes/restores named targets (VNF instances, forwarders,
// controllers, whole sites) at scripted or randomized times.
//
// Determinism contract: given the same seed, the same schedule of
// crash/partition calls, and the same sequence of on_message() queries
// (which the simulator's deterministic event order guarantees), the
// injector produces byte-identical verdicts and a byte-identical fault
// trace.  An unconfigured injector is inert: it returns no-fault verdicts
// without consuming randomness or recording trace entries, so it can be
// wired in unconditionally at zero behavioral cost.
//
// The injector deliberately knows nothing about the bus or the control
// plane.  Message faults are expressed as a verdict the caller applies;
// crashes are expressed as a registered state callback the target wires
// up (e.g. "mark this element down in the registry").  A plain crash
// models a process pause / network unreachability — target state survives
// and comes back on restore.  Targets registered with
// register_amnesia_target() instead model a real process death: restore
// runs a reset callback (recorded as "restore-amnesia") and the owner
// must rebuild volatile state from durable storage (see
// control::StateJournal).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace switchboard::sim {

/// What happens to one wide-area message copy.
struct MessageVerdict {
  bool drop{false};
  bool duplicate{false};
  Duration extra_delay{0};

  [[nodiscard]] bool faulted() const {
    return drop || duplicate || extra_delay > 0;
  }
};

/// Randomized per-message fault probabilities.  All zero (the default)
/// disables the randomized layer entirely.
struct MessageFaultConfig {
  double drop_probability{0.0};
  double duplicate_probability{0.0};
  double delay_probability{0.0};
  /// Extra delay is uniform in (0, max_extra_delay].
  Duration max_extra_delay{0};

  [[nodiscard]] bool enabled() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           delay_probability > 0.0;
  }
};

/// One entry of the deterministic fault trace.
struct FaultEvent {
  SimTime at{0};
  // drop|duplicate|delay|partition-drop|partition|heal|crash|restore|
  // restore-amnesia
  std::string kind;
  std::string subject;  // "0->2 /topic/path" for messages, target name otherwise
};

class FaultInjector {
 public:
  /// Applies up (true) / down (false) to the target's owner.
  using StateFn = std::function<void(bool up)>;

  explicit FaultInjector(Simulator& sim, std::uint64_t seed = 0x5EEDFA17ULL);

  // --- randomized message faults -----------------------------------------
  void set_message_faults(MessageFaultConfig config) {
    const swb::MutexLock lock{mutex_};
    message_faults_ = config;
  }
  [[nodiscard]] MessageFaultConfig message_faults() const {
    const swb::MutexLock lock{mutex_};
    return message_faults_;
  }

  /// Verdict for one wide-area message copy from site `from` to site `to`.
  /// Partitioned pairs always drop; otherwise the randomized layer (if
  /// enabled) draws from the seeded stream.  Faulted verdicts are recorded
  /// in the trace.
  MessageVerdict on_message(SiteId from, SiteId to, const std::string& topic);

  // --- site-pair partitions ----------------------------------------------
  /// Cuts both directions between two sites.  Idempotent.
  void partition_sites(SiteId a, SiteId b);
  /// Heals a partition.  Idempotent.
  void heal_sites(SiteId a, SiteId b);
  /// partition now, heal after `duration`.
  void partition_sites_for(SiteId a, SiteId b, Duration duration);
  [[nodiscard]] bool partitioned(SiteId a, SiteId b) const;

  /// Declares how many sites exist (site ids 0..count-1); required by
  /// isolate_site/heal_site.  Deployment wires this automatically.
  void set_site_count(std::size_t count);
  [[nodiscard]] std::size_t site_count() const {
    const swb::MutexLock lock{mutex_};
    return site_count_;
  }

  /// Partitions `site` from every other site in one call (amputation —
  /// e.g. cutting the controller site away from the whole data plane).
  /// Idempotent: already-cut pairs add nothing; each newly-cut pair is
  /// trace-recorded as a "partition", plus one "isolate" marker when any
  /// pair actually changed.  Requires set_site_count().
  void isolate_site(SiteId site);
  /// Heals every partition involving `site` (whether created by
  /// isolate_site or pairwise).  Idempotent; newly-healed pairs record
  /// "heal" plus one "heal-site" marker when any pair changed.
  void heal_site(SiteId site);

  // --- crash/restore targets ---------------------------------------------
  /// Registers (or re-registers) a crashable target.  Re-registering an
  /// existing name keeps its current up/down state and re-applies it
  /// through the new callback, so owners can refresh callbacks after
  /// re-wiring.
  void register_target(const std::string& name, StateFn apply);
  /// Registers a crash-with-amnesia target: crash applies `apply(false)`
  /// as usual, but restore calls `reset()` (instead of `apply(true)`) so
  /// the owner wipes volatile state and recovers from durable storage.
  /// The restore is recorded as "restore-amnesia" in the trace.
  void register_amnesia_target(const std::string& name, StateFn apply,
                               std::function<void()> reset);
  [[nodiscard]] bool has_target(const std::string& name) const;
  [[nodiscard]] bool is_down(const std::string& name) const;

  /// Crashes / restores a registered target now.  Idempotent.
  void crash(const std::string& name);
  void restore(const std::string& name);
  /// Scripted variants on the simulator clock.
  void crash_at(SimTime when, const std::string& name);
  void restore_at(SimTime when, const std::string& name);
  void crash_for(const std::string& name, Duration duration);

  // --- trace ---------------------------------------------------------------
  /// Snapshot of the fault trace (a copy: returning a reference would let
  /// guarded data escape the lock).
  [[nodiscard]] std::vector<FaultEvent> trace() const {
    const swb::MutexLock lock{mutex_};
    return trace_;
  }
  /// The whole trace as one string ("t=<us> <kind> <subject>\n" lines);
  /// the byte-identical-under-a-seed determinism artifact.
  [[nodiscard]] std::string trace_string() const;

  /// Audits internal consistency (aborts via SWB_CHECK on violation):
  /// partition pairs are stored canonically (small id first, no
  /// self-pairs), every trace entry has a kind, and timestamps are
  /// monotone in trace order.
  void check_invariants() const;

 private:
  using SitePair = std::pair<std::uint32_t, std::uint32_t>;
  static SitePair canonical(SiteId a, SiteId b);

  struct Target {
    StateFn apply;
    std::function<void()> reset;  // non-null => amnesia on restore
    bool down{false};
  };

  void record(const std::string& kind, std::string subject)
      SWB_REQUIRES(mutex_);

  Simulator& sim_;
  /// One lock covers verdicts, partitions, targets, and the trace.
  /// Contract: target callbacks (Target::apply / Target::reset) NEVER run
  /// under it — they re-enter registries, the bus, and (via site crash
  /// targets) MessageBus::abandon_retransmits_to, so holding the lock
  /// across them would invert lock orders and deadlock on reentry.
  mutable swb::Mutex mutex_;
  Rng rng_ SWB_GUARDED_BY(mutex_);
  MessageFaultConfig message_faults_ SWB_GUARDED_BY(mutex_);
  std::size_t site_count_ SWB_GUARDED_BY(mutex_){0};
  std::set<SitePair> partitions_ SWB_GUARDED_BY(mutex_);
  std::map<std::string, Target> targets_ SWB_GUARDED_BY(mutex_);
  std::vector<FaultEvent> trace_ SWB_GUARDED_BY(mutex_);
};

}  // namespace switchboard::sim
