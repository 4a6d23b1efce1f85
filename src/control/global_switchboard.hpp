// Global Switchboard (Sections 3 and 4): the centralized controller.
//
// Chain creation follows Fig. 4: (1) resolve ingress/egress sites via the
// edge controllers; (2) compute a wide-area route (SB-DP against current
// loads) and allocate labels; run two-phase commit with the VNF
// controllers, recomputing with the rejecting site excluded when a
// participant votes abort; (3) publish routes + labels on the message bus
// (replicated to every Local Switchboard); (4-5) controllers allocate
// instances, Local Switchboards derive and install load-balancing rules
// and report readiness.  Dynamic route addition (Fig. 10) reuses the same
// machinery and rebalances route weights.
//
// Durability (DESIGN.md §13): the journaled state is one ControllerState.
// Every change — chain registration, 2PC begin/prepare/commit/abort,
// route retirement, pool capacity transitions — is applied to it and then,
// with enable_durability(), appended to a control::StateJournal; a
// monotonically increasing incarnation epoch rides on every route
// announcement and participant RPC.  After a crash-with-amnesia,
// cold_start() folds snapshot+log through ControllerState::apply(),
// rebuilds loads, re-drives prepared-but-uncommitted 2PC rounds,
// aborts begun-but-unprepared ones, reconciles committed capacity against
// the participants (releasing orphans), and bumps the epoch so stale
// commands from the previous incarnation are fenced everywhere.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bus/topic.hpp"
#include "common/result.hpp"
#include "control/context.hpp"
#include "control/controller_state.hpp"
#include "control/edge_controller.hpp"
#include "control/messages.hpp"
#include "control/state_journal.hpp"
#include "control/vnf_controller.hpp"
#include "te/te_engine.hpp"

namespace switchboard::control {

struct CreationEvent {
  std::string name;
  sim::SimTime at{0};
};

/// Summary of one recovery action (on_instance_down).
struct RecoveryReport {
  std::size_t affected_chains{0};
  /// Routes retired (tombstoned with weight 0, capacity released).
  std::size_t routes_removed{0};
  /// Chains whose last route died: a fresh route was requested for each.
  std::size_t replacements_requested{0};
  /// Admitted volume (forward + reverse stage traffic estimate) moved off
  /// the retired routes — onto rebalanced survivors or replacements.
  double rerouted_volume{0.0};
};

struct CreationReport {
  ChainId chain;
  RouteId route;
  dataplane::Labels labels;
  sim::SimTime started{0};
  sim::SimTime completed{0};
  std::vector<CreationEvent> events;

  [[nodiscard]] sim::Duration elapsed() const { return completed - started; }
};

/// Summary of one crash-with-amnesia recovery (cold_start()).  The replay
/// fields are final when cold_start() returns; the in-flight-resolution
/// and reconciliation fields settle after `replay_cost` of simulated time
/// (read them via last_cold_start() once the run settles).
struct ColdStartReport {
  std::uint64_t epoch{0};               // the new incarnation's epoch
  /// Journal records read (0 for a hot promotion, which reads none).
  std::size_t replayed_records{0};
  /// Records skipped because they did not decode or did not apply.
  std::size_t rejected_records{0};
  std::size_t chains_restored{0};
  std::size_t routes_restored{0};
  /// Prepared-but-uncommitted rounds re-driven to commit after replay.
  std::size_t redriven_commits{0};
  /// Begun-but-unprepared rounds aborted after replay.
  std::size_t aborted_inflight{0};
  /// (Chain, route) pairs found at participants with no journaled owner —
  /// their reservation was aborted or their committed capacity released.
  std::size_t orphans_released{0};
  /// Sweep + release + re-publish messages sent while reconciling.
  std::size_t reconciliation_messages{0};
  /// Simulated time charged for replaying the journal.
  sim::Duration replay_cost{0};
};

class GlobalSwitchboard {
 public:
  using CreationCallback = std::function<void(Result<CreationReport>)>;

  GlobalSwitchboard(ControlContext& context, SiteId home_site);

  [[nodiscard]] SiteId home_site() const { return home_site_; }
  /// The topic on which all route announcements are published; every
  /// Local Switchboard subscribes to it at start().
  [[nodiscard]] bus::Topic routes_topic() const {
    return bus::routes_topic(home_site_);
  }

  void register_edge_controller(EdgeController* controller);
  void register_vnf_controller(VnfController* controller);

  /// Creates and activates a chain (Fig. 4).  `done` fires when every
  /// involved site reported its rules installed; a name holding ';' or
  /// '\n' fails with kInvalidArgument.
  void create_chain(const ChainSpec& spec, CreationCallback done);

  /// Adds a wide-area route to an active chain (Fig. 10).  When
  /// `preferred_vnf_sites` is non-empty it pins the new route's VNF
  /// placement; otherwise SB-DP chooses.  Route weights rebalance to
  /// 1/N and all routes are re-published.
  void add_route(ChainId chain, const std::vector<SiteId>& preferred_vnf_sites,
                 CreationCallback done);

  /// Hard-precondition lookup: aborts (SWB_CHECK) on an unknown chain.
  [[nodiscard]] const ChainRecord& record(ChainId chain) const;
  /// Nullable lookup: nullptr when the chain was never created.
  [[nodiscard]] const ChainRecord* find_record(ChainId chain) const;
  /// The TE engine's loads: the committed routes' weighted traffic.
  [[nodiscard]] const te::Loads& loads() const { return te_.loads(); }
  [[nodiscard]] const te::DpOptions& dp_options() const {
    return te_.options();
  }

  /// Route-compute mode for new and replacement routes.  kSbDp runs the
  /// greedy DP against current loads (the default); kSbLp re-solves the
  /// global max-throughput LP (warm-started from the last optimal basis)
  /// and takes the chain's primary flow-decomposition path, falling back
  /// to SB-DP when the LP carries none of the chain's traffic.  2PC
  /// retries with excluded sites always use SB-DP — the LP formulation
  /// cannot express per-site exclusions.
  enum class TeMode { kSbDp, kSbLp };
  void set_te_mode(TeMode mode) { te_mode_ = mode; }
  [[nodiscard]] TeMode te_mode() const { return te_mode_; }

  /// Readiness callback target for Local Switchboards.
  void on_route_ready(ChainId chain, RouteId route, SiteId site);

  /// --- durability & crash-with-amnesia recovery --------------------------
  /// Starts writing through `journal` (not owned; must outlive this).  The
  /// current state is persisted immediately as the base snapshot.
  void enable_durability(StateJournal* journal);
  [[nodiscard]] bool durable() const { return journal_ != nullptr; }

  /// Reachability (fault injection).  A down coordinator schedules
  /// nothing, answers nothing, and ignores recovery triggers; in-flight
  /// continuations from the old incarnation are dropped by epoch guards.
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool up() const { return up_; }
  [[nodiscard]] std::uint64_t epoch() const { return state_.epoch; }
  /// The journaled state (derived weights and `active` included).
  [[nodiscard]] const ControllerState& state() const { return state_; }

  /// Crash-with-amnesia recovery: wipes all volatile state, folds
  /// snapshot+log through ControllerState::apply() — skipping and counting
  /// records that do not decode, name an unknown id (id_check()) or do not
  /// apply — bumps the epoch, then
  /// (after the journal's replay cost in simulated time) re-drives
  /// prepared in-flight 2PC rounds, aborts unprepared ones, reconciles
  /// every reachable participant (reconcile_participant), and re-publishes
  /// all routes under the new epoch.  Requires enable_durability().
  ColdStartReport cold_start();
  [[nodiscard]] const ColdStartReport& last_cold_start() const {
    return last_cold_start_;
  }

  /// --- replication hooks (DESIGN.md §18; driven by a ReplicaGroup) -------
  /// Observer of every journaled record, invoked right after the local
  /// append (the change is already applied) — the leader-side tap the
  /// replication stream rides on.
  void set_journal_observer(std::function<void(const std::string&)> observer);

  /// Quorum barrier: when set, the coordinator acknowledges a journaled
  /// state change (prep -> commit round, commit -> activation, pool
  /// transitions) only after the gate releases the given resume closure —
  /// the ReplicaGroup releases it once a quorum of replicas durably
  /// appended the record.  Resumes are epoch-guarded: a gate released
  /// after a failover no-ops.
  void set_quorum_gate(
      std::function<void(std::function<void()>)> gate);

  /// Compaction gate: when set, the journal's wants_snapshot() trigger is
  /// handed to the gate instead of compacting inline — the ReplicaGroup
  /// replicates the snapshot to followers first and calls
  /// compact_journal_now() once a quorum installed it (log truncation
  /// fenced on follower ack).
  void set_compaction_gate(std::function<void()> gate);

  /// Re-encodes the current state and compacts the journal immediately
  /// (re-encoding at call time, so records appended while a replicated
  /// snapshot install was in flight are never lost to truncation).
  void compact_journal_now();

  /// Full state as journal records — what a snapshot install streams to
  /// followers: the lines of state().snapshot().
  [[nodiscard]] std::vector<std::string> snapshot_state() const {
    return split_records(state_.snapshot());
  }

  /// The replay filter every recovery path passes to apply_line(): true
  /// when each id a record names is one this controller looks up — a
  /// chain, node, site or VNF of the network model, a VNF or edge service
  /// with a registered controller.  The chain and route of a 2PC round are
  /// checked by apply() against the state.
  [[nodiscard]] ControllerState::IdCheck id_check() const;

  /// Leader failover onto a hot standby: re-points the coordinator at the
  /// promoted replica's journal and adopts the state the standby built by
  /// applying every streamed record — the journal is not read and no
  /// replay cost is charged.  Promotion is an epoch bump plus the §13
  /// resolution sweep (re-drive prepared 2PC, abort unprepared,
  /// reconcile, re-publish), scheduled one tick out.
  ColdStartReport warm_failover(StateJournal* journal, ControllerState state);

  /// Participant sweep against the journal: every (chain, route) that
  /// `controller` holds reserved but uncommitted and that is neither in
  /// flight nor a route of its chain is aborted; every committed one the
  /// journal does not own is released.  Recovers the 2PC state of rounds
  /// given up on and routes retired while the controller was unreachable.
  /// Runs at cold start for every reachable controller and when a
  /// controller is restored while the coordinator is up.  Returns the
  /// number of pairs aborted or released.
  std::size_t reconcile_participant(VnfController& controller);

  /// A previously-failed VNF pool at `site` is back: restores the
  /// capacity zeroed by on_instance_down and re-announces the pool so
  /// Local Switchboards rebalance onto it.
  void on_instance_up(VnfId vnf, SiteId site);

  /// --- recovery (driven by the failure detector) -------------------------
  /// A VNF's instance pool at `site` died: zeroes the failed capacity,
  /// triggers the drain (weight-0 instance re-announcements), retires every
  /// route placing that VNF there (weight-0 route tombstones + committed
  /// capacity release + incremental load deltas), rebalances each affected
  /// chain's surviving routes to equal weights, and requests a replacement
  /// route for chains left with none.  Only affected chains are touched —
  /// audited by check_invariants()'s incremental-vs-rebuilt loads
  /// comparison.
  RecoveryReport on_instance_down(VnfId vnf, SiteId site);

  /// Audits the coordinator (aborts via SWB_CHECK on violation): chain ids
  /// and names are unique, every active chain's route weights sum to 1 and
  /// each route places one site per VNF stage, route ids stay below the
  /// allocator, pending activations reference known chains and still await
  /// at least one site, and every registered participant audits clean.
  void check_invariants() const;

 private:
  /// (vnf, site) placements a 2PC retry excludes: each voted abort.
  using Exclusions = std::set<std::pair<std::uint32_t, std::uint32_t>>;

  struct PendingActivation {
    ChainId chain;
    RouteId route;
    std::set<std::uint32_t> waiting_sites;
    CreationReport report;
    CreationCallback done;
  };

  /// One 2PC attempt as it moves through the route pipeline, from route
  /// computation to activation: route_and_commit fills `route`, and the
  /// prepare and commit rounds carry the whole attempt between events.
  struct Round {
    ChainId chain;
    RouteRecord route{};
    Exclusions excluded{};
    /// Route computations so far (0: the first; a prepare rejection
    /// recomputes, up to four in all).
    std::size_t attempt{0};
    /// Timeouts of the current prepare or commit round.
    std::size_t rpc_retry{0};
    CreationReport report;
    CreationCallback done;
  };

  /// The one entry into 2PC — for create_chain, add_route, the prepare-
  /// rejection retry and replace_route: after `route_compute`, takes the
  /// `preferred` placement (when non-empty) or compute_route(chain,
  /// excluded), builds a route of weight 1 / (committed routes + 1) under
  /// the allocator's next id, journals the 2PC intent (its BeginRecord
  /// advances the allocator) and opens the prepare round after one RPC
  /// round trip.  Attempt 0 reports "route_computed", a retry
  /// "route_recomputed".
  void route_and_commit(Round round, std::vector<SiteId> preferred = {});

  /// 2PC prepare round (fault-tolerant): votes are collected from every
  /// reachable participant; unreachable ones (down controllers) time out
  /// and the whole round retries with bounded exponential backoff —
  /// already-prepared participants dedup the re-delivered prepare.  After
  /// three timeouts (kMaxRpcRetries, global_switchboard.cpp) the round
  /// aborts (kUnavailable) and releases the partial reservations.
  void start_prepare_round(Round round);

  /// 2PC commit round with the same timeout/retry envelope; re-delivered
  /// commits are idempotent at the participant.  On retry exhaustion the
  /// route rolls back: reachable participants get abort (rejected-and-
  /// counted where already committed) + release; unreachable ones are
  /// left to reconcile_participant().
  void start_commit_round(Round round);

  /// Shared recovery walk: retires every active route matched by `doomed`
  /// (tombstone, release, negative load delta, pending-activation
  /// cancellation), rebalances survivors, requests replacements.
  RecoveryReport retire_routes(
      const std::function<bool(const ChainRecord&, const RouteRecord&)>&
          doomed);

  /// Computes and commits a fresh route for a chain whose last route was
  /// retired by recovery (completion is logged, not reported upward).
  void replace_route(ChainId chain);

  /// The route computation of route_and_commit.  In kSbLp mode with
  /// nothing excluded: the SB-LP refinement's primary path for the chain.
  /// Otherwise, or when the LP is not optimal or carries none of the
  /// chain: SB-DP through the TE engine, admitted only when the route can
  /// carry some of the chain right now (found, admissible fraction > 0).
  /// Returns one site per VNF stage, or nullopt when no route qualifies.
  [[nodiscard]] std::optional<std::vector<SiteId>> compute_route(
      ChainId chain, const Exclusions& excluded);

  void publish_routes(const ChainRecord& record);

  [[nodiscard]] RouteAnnouncement to_announcement(const ChainRecord& record,
                                                  const RouteRecord& route)
      const;
  [[nodiscard]] std::set<std::uint32_t> involved_sites(
      const ChainRecord& record, const RouteRecord& route) const;

  // --- durability internals ----------------------------------------------
  /// The one entry point for journaled changes: applies `change` to
  /// state_, then (when durable) appends its record, notifies the journal
  /// observer, and compacts when the journal asks (or defers to the
  /// compaction gate).  A snapshot cut here already holds the change.
  void apply_and_log(JournalRecord change);
  /// Runs `resume` behind the quorum gate when one is set, synchronously
  /// otherwise (single-controller mode keeps its exact pre-replication
  /// timing).  A resume released after the coordinator went down or
  /// restarted is dropped.
  void after_quorum(std::function<void()> resume);
  /// Schedules `fn` after `delay`; it is dropped when the coordinator went
  /// down or restarted meanwhile.  With after_quorum(), the only epoch
  /// guard: continuations re-find their chain by id.
  void later(sim::Duration delay, std::function<void()> fn);
  /// The registered, up controller of `vnf`; nullptr otherwise.
  [[nodiscard]] VnfController* reachable(VnfId vnf) const;
  /// Shared body of cold_start() and warm_failover(): adopt `state`,
  /// recompute weights, `active` and loads, bump the epoch, and schedule
  /// the resolution sweep after report.replay_cost (one tick at least).
  ColdStartReport restart(ControllerState state, ColdStartReport report);
  /// Post-replay phase: re-drive / abort in-flight rounds, reconcile
  /// participant capacity, re-publish routes under the new epoch.
  void resolve_inflight_and_reconcile();

  ControlContext& context_;
  SiteId home_site_;
  std::vector<EdgeController*> edge_controllers_;     // by EdgeServiceId
  std::vector<VnfController*> vnf_controllers_;       // by VnfId
  ControllerState state_;
  std::vector<PendingActivation> pending_;
  /// The only TE state: loads of the committed routes, cost cache, DP
  /// scratch and the SB-LP warm-start basis.
  te::TeEngine te_;
  TeMode te_mode_{TeMode::kSbDp};

  StateJournal* journal_{nullptr};
  /// Replication hooks (unset in single-controller mode; see DESIGN.md §18).
  std::function<void(const std::string&)> journal_observer_;
  std::function<void(std::function<void()>)> quorum_gate_;
  std::function<void()> compaction_gate_;
  bool up_{true};
  ColdStartReport last_cold_start_;
};

}  // namespace switchboard::control
