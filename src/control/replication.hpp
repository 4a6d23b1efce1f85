// control::ReplicaGroup — replicated controller journal with quorum acks
// and epoch-fenced hot failover (DESIGN.md §18).
//
// N controller incarnations ("replicas") each own a StateJournal over the
// deployment's DurableStore.  The leader — whichever replica the singleton
// GlobalSwitchboard currently embodies — streams every journal append to
// the followers over the reliable /ctl/repl/<from>_<to> topics; followers
// append each record to their own journal, apply it to their own
// ControllerState (hot standby: the same state and apply() the leader
// runs), fold it into an FNV-1a applied-record digest, and ack their
// cumulative durable position.  The GlobalSwitchboard's quorum
// gate holds every externally visible acknowledgment (2PC prep -> commit,
// commit -> activation, pool-transition drains) until a quorum of replicas
// has the triggering record durable.  Snapshot compaction is replicated as
// a snapshot-install stream: the leader truncates its log only after a
// quorum of followers installed the snapshot.
//
// Liveness rides the same heartbeat machinery as site health: every live
// replica beats on the transient /health/ctl/replica_<r> topic and a
// FailureDetector sweeps them.  When the *leader* falls silent AND its
// process is actually dead (a pure partition is counted as a false
// suspicion, never an election — the CP choice: consistency over
// partition-tolerant availability), a deterministic election promotes the
// freshest live replica — max (epoch, applied records, replica id) — via
// GlobalSwitchboard::warm_failover(), which adopts the winner's state:
// no journal is read, the epoch bumps so zombie-leader continuations and
// stale frames fence, the
// new leader pushes a fresh snapshot install to the surviving followers,
// and the §13 resolution sweep re-drives prepared 2PC and re-publishes
// routes.  A leader that crashes and restores before detection takes the
// legacy cold_start() path instead — the replay-cost contrast the
// bench_fig13_recovery `failover` series measures.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bus/topic.hpp"
#include "common/thread_annotations.hpp"
#include "control/context.hpp"
#include "control/failure_detector.hpp"
#include "control/global_switchboard.hpp"
#include "control/messages.hpp"
#include "control/state_journal.hpp"
#include "sim/durable_store.hpp"

namespace switchboard::control {

/// Synthetic SiteId keys for replica heartbeats — far above any real site
/// id, so replica liveness shares the detector sweep without collisions.
[[nodiscard]] inline SiteId replica_health_key(std::uint32_t replica) {
  return SiteId{0x7F000000u + replica};
}

struct ReplicationConfig {
  /// Per-replica journals are named "<journal.name>_r<i>".
  JournalConfig journal{};
  /// Quorum size counting the leader; 0 = majority (n/2 + 1).
  std::uint32_t quorum{0};
  /// Replica heartbeat / detector timing.  Detection latency is
  /// period * suspicion_threshold — the failover window's fixed part.
  FailureDetectorConfig detector{};
};

class ReplicaGroup {
 public:
  /// `replica_sites[r]` hosts replica r; replica 0 is the initial leader
  /// and must be hosted at the GlobalSwitchboard's home site.  `global`
  /// must already be durable (enable_durability) — its journal is
  /// replaced by replica 0's journal at start().
  ReplicaGroup(ControlContext& context, GlobalSwitchboard& global,
               sim::DurableStore& store, std::vector<SiteId> replica_sites,
               ReplicationConfig config = {});

  /// Wires the hooks (journal observer, quorum gate, compaction gate),
  /// installs the base snapshot on every replica, subscribes the stream /
  /// ack topics, and starts heartbeats + the failure detector.  Call once,
  /// after the deployment is constructed and before any chain creation.
  void start();
  /// Stops heartbeats and the detector (both self-reschedule) so the
  /// simulator can drain.
  void stop();

  [[nodiscard]] std::uint32_t replica_count() const {
    return static_cast<std::uint32_t>(sites_.size());
  }
  [[nodiscard]] std::uint32_t quorum() const { return quorum_; }
  [[nodiscard]] std::uint32_t leader() const {
    const swb::MutexLock lock{mutex_};
    return leader_;
  }
  [[nodiscard]] SiteId site_of(std::uint32_t replica) const {
    return sites_.at(replica);
  }
  [[nodiscard]] StateJournal& journal(std::uint32_t replica) {
    const swb::MutexLock lock{mutex_};
    return *replicas_.at(replica).journal;
  }
  /// The controller state replica `replica` holds: the coordinator's own
  /// for the leader, the hot standby's for a follower.
  [[nodiscard]] const ControllerState& state(std::uint32_t replica) const {
    const swb::MutexLock lock{mutex_};
    return replica == leader_ ? global_.state() : replicas_.at(replica).state;
  }
  [[nodiscard]] std::uint64_t digest(std::uint32_t replica) const {
    const swb::MutexLock lock{mutex_};
    return replicas_.at(replica).digest;
  }
  [[nodiscard]] std::uint64_t leader_digest() const {
    const swb::MutexLock lock{mutex_};
    return replicas_.at(leader_).digest;
  }
  [[nodiscard]] bool replica_up(std::uint32_t replica) const {
    const swb::MutexLock lock{mutex_};
    return replicas_.at(replica).up;
  }
  [[nodiscard]] FailureDetector& detector() { return *detector_; }

  // --- fault-target entry points (wired by core::Deployment) -------------
  /// Marks a replica's process dead (crash).  A dead leader also takes
  /// the GlobalSwitchboard down; the election waits for heartbeat
  /// detection.
  void crash_replica(std::uint32_t replica);
  /// Crash-with-amnesia restore.  A restored leader (no election ran,
  /// or none was possible) takes the legacy cold_start() path — journal
  /// replay charged; a restored follower is re-synced by the live leader
  /// with a fresh snapshot install.
  void restore_replica(std::uint32_t replica);

  // --- observability -------------------------------------------------------
  [[nodiscard]] std::uint64_t records_streamed() const {
    const swb::MutexLock lock{mutex_};
    return records_streamed_;
  }
  [[nodiscard]] std::uint64_t elections() const {
    const swb::MutexLock lock{mutex_};
    return elections_;
  }
  [[nodiscard]] std::uint64_t cold_restarts() const {
    const swb::MutexLock lock{mutex_};
    return cold_restarts_;
  }
  [[nodiscard]] std::uint64_t snapshot_installs_sent() const {
    const swb::MutexLock lock{mutex_};
    return installs_sent_;
  }
  [[nodiscard]] std::uint64_t replicated_compactions() const {
    const swb::MutexLock lock{mutex_};
    return replicated_compactions_;
  }
  [[nodiscard]] std::uint64_t false_suspicions() const {
    const swb::MutexLock lock{mutex_};
    return false_suspicions_;
  }
  [[nodiscard]] std::uint64_t divergences() const {
    const swb::MutexLock lock{mutex_};
    return divergences_;
  }
  [[nodiscard]] std::uint64_t barriers_released() const {
    const swb::MutexLock lock{mutex_};
    return barriers_released_;
  }
  [[nodiscard]] std::uint64_t barriers_dropped() const {
    const swb::MutexLock lock{mutex_};
    return barriers_dropped_;
  }
  /// Mean barrier wait (journal append -> quorum durable), milliseconds.
  [[nodiscard]] double mean_quorum_ack_ms() const;
  /// Deterministic election trace: "t=<us>;winner=<r>;epoch=<e>\n" lines —
  /// the byte-identical-under-a-seed determinism artifact for failover.
  [[nodiscard]] std::string election_string() const {
    const swb::MutexLock lock{mutex_};
    return election_log_;
  }

  /// Divergence verifier for quiescent barriers and post-failover checks:
  /// every live, caught-up replica's digest must equal the leader's, and
  /// every standby state audits clean.  Aborts via SWB_CHECK on violation.
  void verify_convergence() const;
  /// Audits group state (aborts via SWB_CHECK): leader is live or awaiting
  /// election, quorum within bounds, acked positions never ahead of the
  /// stream head, pending barriers ordered, counters consistent.
  void check_invariants() const;

 private:
  struct Replica {
    std::unique_ptr<StateJournal> journal;
    /// Hot-standby state (followers only; the leader's lives in the
    /// GlobalSwitchboard and is handed over on promotion).
    ControllerState state;
    /// Records applied since the last install (election trace).
    std::uint64_t applied_records{0};
    std::uint64_t digest{0};
    /// Highest contiguously applied stream seq (follower side).
    std::uint64_t applied_seq{0};
    /// Epoch this replica last installed/streamed under.
    std::uint64_t epoch_seen{0};
    bool up{true};
    /// Out-of-order frames awaiting the gap: (epoch, seq) -> record.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> reorder;
    /// Leader-side view: highest seq this follower acked as durable.
    std::uint64_t acked{0};
    /// Leader-side repair: consecutive beat checks the follower's ack
    /// stalled below the stream head.
    std::uint32_t stalled_beats{0};
    std::uint64_t beat_seq{0};
  };

  struct Barrier {
    std::uint64_t seq{0};
    sim::SimTime created{0};
    std::function<void()> resume;
  };

  // Hook bodies (installed on the GlobalSwitchboard by start()).
  void on_leader_append(const std::string& record);
  void on_quorum_gate(std::function<void()> resume);
  void on_compaction_wanted();

  // Bus-facing handlers.
  void on_stream_frame(std::uint32_t to, const ReplicationFrame& frame);
  void on_ack_frame(std::uint32_t to, const ReplicationFrame& frame);
  void on_replica_suspected(std::uint32_t replica);

  /// Frames to publish once the lock is released.
  using Outbox = std::vector<std::pair<bus::Topic, std::string>>;

  void beat();
  void elect_and_promote() SWB_EXCLUDES(mutex_);
  /// Streams a full snapshot install to `to` from the current leader.
  void push_install_to(std::uint32_t to) SWB_REQUIRES(mutex_);
  /// Starts the new epoch's stream at seq 0: every follower's ack and
  /// stall count reset, a snapshot install queued for every live one.
  /// Returns the queued installs for publish().
  [[nodiscard]] Outbox start_stream() SWB_REQUIRES(mutex_);
  /// Publishes `outbox` in order — outside the lock, the
  /// no-publish-under-lock contract.
  void publish(Outbox outbox) SWB_EXCLUDES(mutex_);
  /// Installs the base snapshot into every replica's journal + state
  /// locally (bootstrap only — no messaging).
  void bootstrap_install() SWB_EXCLUDES(mutex_);
  /// Re-derives the leader's digest and record count from its journal
  /// after a cold restart.
  void refold_leader_digest() SWB_REQUIRES(mutex_);
  [[nodiscard]] bool quorum_satisfied(std::uint64_t seq) const
      SWB_REQUIRES(mutex_);
  /// Pops every satisfied barrier (in order) and returns their resumes to
  /// run outside the lock.
  [[nodiscard]] std::vector<std::function<void()>> collect_released_barriers()
      SWB_REQUIRES(mutex_);

  ControlContext& context_;
  GlobalSwitchboard& global_;
  sim::DurableStore& store_;
  std::vector<SiteId> sites_;
  ReplicationConfig config_;
  std::uint32_t quorum_{0};
  std::unique_ptr<FailureDetector> detector_;

  /// One lock covers group state, per-replica states, and counters.
  /// Contract: bus publishes, GlobalSwitchboard calls (warm_failover,
  /// cold_start, compact_journal_now), and barrier resumes NEVER run
  /// under it — handlers mutate state under the lock, collect the actions,
  /// and perform them after release (same discipline as FailureDetector).
  mutable swb::Mutex mutex_;
  std::vector<Replica> replicas_ SWB_GUARDED_BY(mutex_);
  std::uint32_t leader_ SWB_GUARDED_BY(mutex_){0};
  bool started_ SWB_GUARDED_BY(mutex_){false};
  /// Suppresses streaming of the epoch-bump record warm_failover /
  /// cold_start append while a promotion is rebuilding the leader.
  bool promoting_ SWB_GUARDED_BY(mutex_){false};
  std::uint64_t stream_seq_ SWB_GUARDED_BY(mutex_){0};
  std::deque<Barrier> pending_ SWB_GUARDED_BY(mutex_);
  /// One replicated snapshot install in flight at a time (dedup).
  bool install_pending_ SWB_GUARDED_BY(mutex_){false};
  std::uint64_t install_seq_ SWB_GUARDED_BY(mutex_){0};
  std::set<std::uint32_t> install_acks_ SWB_GUARDED_BY(mutex_);
  /// Frames queued by push_install_to() under the lock, published by the
  /// caller after release (the no-publish-under-lock contract).
  Outbox install_outbox_ SWB_GUARDED_BY(mutex_);
  sim::EventHandle beat_event_ SWB_GUARDED_BY(mutex_){};
  bool beating_ SWB_GUARDED_BY(mutex_){false};

  std::uint64_t records_streamed_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t elections_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t cold_restarts_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t installs_sent_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t replicated_compactions_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t false_suspicions_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t divergences_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t barriers_released_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t barriers_dropped_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t barrier_wait_us_total_ SWB_GUARDED_BY(mutex_){0};
  std::string election_log_ SWB_GUARDED_BY(mutex_);
};

}  // namespace switchboard::control
