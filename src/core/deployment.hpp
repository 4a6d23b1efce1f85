// Deployment: wires a complete Switchboard installation over one network
// model — simulator, message bus, element registry, Global Switchboard,
// per-site Local Switchboards, edge controllers, and per-VNF controllers —
// and provides the data-plane packet walk used by examples and tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bus/message_bus.hpp"
#include "control/anycast.hpp"
#include "control/context.hpp"
#include "control/edge_controller.hpp"
#include "control/failure_detector.hpp"
#include "control/global_switchboard.hpp"
#include "control/local_switchboard.hpp"
#include "control/replication.hpp"
#include "control/state_journal.hpp"
#include "control/vnf_controller.hpp"
#include "model/network_model.hpp"
#include "sim/durable_store.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"

namespace switchboard::core {

struct DeploymentConfig {
  control::ControlTimings timings{};
  /// Site hosting Global Switchboard (default: site 0).
  SiteId controller_site{0};
  /// Latency a VNF instance adds to a packet (data-plane walk).
  double vnf_processing_ms{0.1};
  /// Acked + retransmitted wide-area delivery for control topics (health
  /// topics stay fire-and-forget either way).
  bool reliable_bus{false};
  sim::Duration bus_ack_timeout{sim::from_ms(250.0)};
  std::size_t bus_max_retransmits{3};
  /// Seed for the deployment's fault injector (deterministic runs).
  std::uint64_t fault_seed{0x5EEDFA17ULL};
  /// Heartbeat / failure-detector timing (enable_recovery()).
  control::FailureDetectorConfig detector{};
  /// Journal the Global Switchboard's state (DESIGN.md §13): the
  /// "controller:global" fault target becomes crash-with-amnesia —
  /// restore runs cold_start() from the journal instead of resuming
  /// in-memory state.
  bool durable_controller{false};
  control::JournalConfig journal{};
  /// Route-compute mode for the Global Switchboard (SB-DP or SB-LP).
  control::GlobalSwitchboard::TeMode te_mode{
      control::GlobalSwitchboard::TeMode::kSbDp};
  /// SB-ANYCAST-D (DESIGN.md §17): run an AnycastRouter beside every
  /// Local Switchboard and enable the inject_anycast() walk.  Routers
  /// subscribe at construction; announcements start via start_anycast().
  bool enable_anycast{false};
  control::AnycastConfig anycast{};
  /// Replicated controller (DESIGN.md §18): journals, quorum, detector
  /// timing, and repair policy for enable_replication().
  control::ReplicationConfig replication{};
};

class Deployment {
 public:
  /// Takes ownership of the model.  Every site gets a Local Switchboard;
  /// every VNF already in the model gets a controller.
  explicit Deployment(model::NetworkModel model, DeploymentConfig config = {});

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] model::NetworkModel& network_model() { return model_; }
  [[nodiscard]] bus::ProxyBus& bus() { return *bus_; }
  [[nodiscard]] control::ElementRegistry& elements() { return elements_; }
  [[nodiscard]] control::GlobalSwitchboard& global() { return *global_; }
  [[nodiscard]] control::LocalSwitchboard& local(SiteId site);
  [[nodiscard]] control::VnfController& vnf_controller(VnfId vnf);
  [[nodiscard]] control::EdgeController& edge_controller(EdgeServiceId id);
  [[nodiscard]] const DeploymentConfig& config() const { return config_; }
  [[nodiscard]] sim::FaultInjector& fault_injector() { return faults_; }
  [[nodiscard]] control::FailureDetector& failure_detector() {
    return *detector_;
  }
  /// Stable storage backing the controller journal (always present; only
  /// written when `durable_controller` is set).
  [[nodiscard]] sim::DurableStore& durable_store() { return durable_store_; }
  /// The controller journal, or nullptr without `durable_controller`.
  [[nodiscard]] control::StateJournal* state_journal() {
    return journal_.get();
  }

  /// Replicated controller (DESIGN.md §18): builds a ReplicaGroup of
  /// `replicas` controller incarnations — replica 0 at `controller_site`,
  /// replica r at site (controller_site + r) mod site_count — starts
  /// journal streaming + quorum gating + leader heartbeats, and registers
  /// the crash-with-amnesia fault targets "controller:replica<r>" plus the
  /// "controller:leader" alias (resolved to the current leader at fault
  /// FIRE time, so scripted chaos can always target whoever leads).
  /// Call once, before chain creation; mutually exclusive with
  /// `durable_controller` (the group owns the journals).  Replication
  /// implies a reliable bus for /ctl/ topics — requires `reliable_bus`.
  void enable_replication(std::uint32_t replicas);
  /// Stops replica heartbeats + the group's failure detector so the
  /// simulator can drain (parallel to stop_recovery()).
  void stop_replication();
  /// The replica group, or nullptr without enable_replication().
  [[nodiscard]] control::ReplicaGroup* replica_group() {
    return replication_.get();
  }

  /// The site's AnycastRouter; requires `enable_anycast`.
  [[nodiscard]] control::AnycastRouter& anycast_router(SiteId site);

  /// Starts/stops the periodic announcement floods on every router
  /// (requires `enable_anycast`).  Like heartbeats, announcements
  /// self-reschedule — call stop_anycast() before draining the simulator.
  void start_anycast();
  void stop_anycast();

  /// Registers an edge service and its controller.
  EdgeServiceId create_edge_service(std::string name);

  /// Creates controllers for VNFs added to the model after construction.
  void sync_vnf_controllers();

  // ---- failure injection + recovery -------------------------------------
  /// (Re-)registers every current site ("site:<s>"), VNF controller
  /// ("controller:vnf<f>"), and data-plane element ("element:<id>") as a
  /// crash/restore target of the fault injector.  Idempotent; call again
  /// after chain creation so late-created instances become targets.
  void register_fault_targets();

  /// Arms the recovery pipeline: registers fault targets, starts
  /// heartbeats on every Local Switchboard at the detector period, and
  /// starts the failure detector wired into Global Switchboard
  /// (element/site down -> drain + reroute).  Call after the chains under
  /// test are active; call stop_recovery() before draining the simulator
  /// to completion (heartbeats and sweeps self-reschedule forever).
  void enable_recovery();
  void stop_recovery();

  // ---- data-plane packet walk -------------------------------------------
  struct HopTrace {
    dataplane::ElementId element{dataplane::kNoElement};
    control::ElementType type{control::ElementType::kForwarder};
    double latency_ms{0.0};   // latency of reaching this element
  };

  struct WalkResult {
    bool delivered{false};
    double latency_ms{0.0};
    std::vector<HopTrace> path;
    std::string failure;

    /// The VNF instances the packet visited, in order.
    [[nodiscard]] std::vector<dataplane::ElementId> vnf_instances() const;
  };

  /// Drives one packet of `flow` through the chain's data plane, starting
  /// at the ingress edge (forward) or egress edge (reverse).  `flow` is
  /// always the *forward-direction* 5-tuple.
  WalkResult inject(ChainId chain, const dataplane::FiveTuple& flow,
                    dataplane::Direction direction =
                        dataplane::Direction::kForward,
                    std::uint16_t size_bytes = 64);

  /// Like inject(), but entering at an arbitrary edge instance — e.g. an
  /// edge stitched in later by attach_edge (mobility).
  WalkResult inject_from(ChainId chain, dataplane::ElementId edge_instance,
                         const dataplane::FiveTuple& flow,
                         dataplane::Direction direction =
                             dataplane::Direction::kForward,
                         std::uint16_t size_bytes = 64);

  /// SB-ANYCAST-D walk (DESIGN.md §17): drives one packet through the
  /// chain with per-stage steering answered by the AnycastRouters — no
  /// installed rules and no Global Switchboard involvement.  Chain
  /// knowledge comes from the starting site's router (learned from
  /// bus-replicated route announcements); loops are impossible by the
  /// hop-budget + visited-site annotation; steering routes around site
  /// partitions and stale table entries by re-asking with the refuted
  /// site excluded.  Requires `enable_anycast`.
  WalkResult inject_anycast(ChainId chain, const dataplane::FiveTuple& flow,
                            dataplane::Direction direction =
                                dataplane::Direction::kForward,
                            std::uint16_t size_bytes = 64);

 private:
  /// The walk behind inject() and inject_from(), on a chain record
  /// already found active: the packet enters at `edge_instance`.
  WalkResult walk(const control::ChainRecord& record,
                  dataplane::ElementId edge_instance,
                  const dataplane::FiveTuple& flow,
                  dataplane::Direction direction, std::uint16_t size_bytes);

  DeploymentConfig config_;
  model::NetworkModel model_;
  sim::Simulator sim_;
  sim::FaultInjector faults_;
  sim::DurableStore durable_store_;
  std::unique_ptr<control::StateJournal> journal_;
  control::ElementRegistry elements_;
  std::unique_ptr<bus::ProxyBus> bus_;
  std::unique_ptr<control::ControlContext> context_;
  std::unique_ptr<control::GlobalSwitchboard> global_;
  std::vector<std::unique_ptr<control::LocalSwitchboard>> locals_;
  std::vector<std::unique_ptr<control::AnycastRouter>> anycast_routers_;
  std::vector<std::unique_ptr<control::VnfController>> vnf_controllers_;
  std::vector<std::unique_ptr<control::EdgeController>> edge_controllers_;
  std::unique_ptr<control::FailureDetector> detector_;
  std::unique_ptr<control::ReplicaGroup> replication_;
  /// Leader pinned when the "controller:leader" alias target fires, so the
  /// paired restore revives the same replica the crash took down.
  std::uint32_t leader_victim_{0};
};

}  // namespace switchboard::core
