#include "core/deployment.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace switchboard::core {
namespace {

/// Per-message egress service time at the bus proxies.
constexpr sim::Duration kBusMessageService = sim::microseconds(100);
/// Egress buffer of each bus proxy, in messages.
constexpr std::size_t kBusEgressBuffer = 4096;

}  // namespace

Deployment::Deployment(model::NetworkModel model, DeploymentConfig config)
    : config_{config},
      model_{std::move(model)},
      faults_{sim_, config.fault_seed} {
  SWB_CHECK(!model_.sites().empty());
  faults_.set_site_count(model_.sites().size());

  bus::BusConfig bus_config;
  bus_config.site_count = model_.sites().size();
  bus_config.per_message_service = kBusMessageService;
  bus_config.egress_buffer = kBusEgressBuffer;
  bus_config.inter_site_delay = [this](SiteId a, SiteId b) {
    const double ms =
        model_.delay_ms(model_.site(a).node, model_.site(b).node);
    return sim::from_ms(ms);
  };
  bus_config.fault_hook = [this](SiteId from, SiteId to,
                                 const std::string& topic_path) {
    return faults_.on_message(from, to, topic_path);
  };
  bus_config.reliable_delivery = config_.reliable_bus;
  bus_config.ack_timeout = config_.bus_ack_timeout;
  bus_config.max_retransmits = config_.bus_max_retransmits;
  bus_ = std::make_unique<bus::ProxyBus>(sim_, bus_config);

  context_ = std::make_unique<control::ControlContext>(
      control::ControlContext{sim_, *bus_, model_, elements_,
                              config_.timings});

  global_ = std::make_unique<control::GlobalSwitchboard>(
      *context_, config_.controller_site);
  global_->set_te_mode(config_.te_mode);

  detector_ = std::make_unique<control::FailureDetector>(
      *context_, config_.controller_site, config_.detector);

  for (const model::CloudSite& site : model_.sites()) {
    auto local =
        std::make_unique<control::LocalSwitchboard>(*context_, site.id);
    local->set_ready_callback(
        [this](ChainId chain, RouteId route, SiteId at) {
          global_->on_route_ready(chain, route, at);
        });
    local->set_peer_lookup([this](SiteId at) -> control::LocalSwitchboard* {
      return at.value() < locals_.size() ? locals_[at.value()].get()
                                         : nullptr;
    });
    local->start(global_->routes_topic());
    locals_.push_back(std::move(local));
  }

  if (config_.enable_anycast) {
    SWB_CHECK_LE(model_.sites().size(), dataplane::kMaxAnycastSites)
        << "anycast visited-set bitmap cannot cover this many sites";
    for (const model::CloudSite& site : model_.sites()) {
      auto router = std::make_unique<control::AnycastRouter>(
          *context_, site.id, config_.anycast);
      // Chain knowledge rides the route announcements every site already
      // receives — the router needs no channel of its own to the
      // controller, which is what lets it outlive one.
      locals_[site.id.value()]->set_route_observer(
          [r = router.get()](const control::RouteAnnouncement& announcement) {
            r->learn_route(announcement);
          });
      router->start();
      anycast_routers_.push_back(std::move(router));
    }
  }

  sync_vnf_controllers();

  if (config_.durable_controller) {
    journal_ = std::make_unique<control::StateJournal>(durable_store_,
                                                       config_.journal);
    global_->enable_durability(journal_.get());
  }
}

control::LocalSwitchboard& Deployment::local(SiteId site) {
  SWB_CHECK(site.value() < locals_.size());
  return *locals_[site.value()];
}

control::AnycastRouter& Deployment::anycast_router(SiteId site) {
  SWB_CHECK(site.value() < anycast_routers_.size())
      << "anycast_router requires enable_anycast";
  return *anycast_routers_[site.value()];
}

void Deployment::start_anycast() {
  SWB_CHECK(!anycast_routers_.empty()) << "start_anycast without "
                                          "enable_anycast";
  for (auto& router : anycast_routers_) {
    router->start_announcing();
  }
}

void Deployment::stop_anycast() {
  for (auto& router : anycast_routers_) {
    router->stop_announcing();
  }
}

control::VnfController& Deployment::vnf_controller(VnfId vnf) {
  SWB_CHECK(vnf.value() < vnf_controllers_.size());
  return *vnf_controllers_[vnf.value()];
}

control::EdgeController& Deployment::edge_controller(EdgeServiceId id) {
  SWB_CHECK(id.value() < edge_controllers_.size());
  return *edge_controllers_[id.value()];
}

EdgeServiceId Deployment::create_edge_service(std::string name) {
  const EdgeServiceId id{
      static_cast<EdgeServiceId::underlying_type>(edge_controllers_.size())};
  auto controller = std::make_unique<control::EdgeController>(
      *context_, id, std::move(name));
  global_->register_edge_controller(controller.get());
  edge_controllers_.push_back(std::move(controller));
  return id;
}

void Deployment::sync_vnf_controllers() {
  for (const model::Vnf& vnf : model_.vnfs()) {
    if (vnf.id.value() < vnf_controllers_.size()) continue;
    auto controller =
        std::make_unique<control::VnfController>(*context_, vnf.id);
    global_->register_vnf_controller(controller.get());
    vnf_controllers_.push_back(std::move(controller));
  }
}

void Deployment::register_fault_targets() {
  for (const model::CloudSite& site : model_.sites()) {
    control::LocalSwitchboard* local = locals_[site.id.value()].get();
    control::AnycastRouter* router =
        site.id.value() < anycast_routers_.size()
            ? anycast_routers_[site.id.value()].get()
            : nullptr;
    faults_.register_target(
        "site:" + std::to_string(site.id.value()),
        [this, local, router, site_id = site.id](bool up) {
          local->set_up(up);
          // The site's anycast router crashes and restores with it: its
          // silence ages its entries out at every peer.
          if (router != nullptr) router->set_up(up);
          // Reliable-bus retransmits toward a crashed site stop instead of
          // retrying against silence until exhaustion.
          if (!up) bus_->abandon_retransmits_to(site_id);
        });
  }
  if (journal_ != nullptr) {
    // The durable controller loses all volatile state on restore and
    // recovers from the journal; the detector forgets its dedup history so
    // still-broken elements get re-reported to the fresh incarnation.
    faults_.register_amnesia_target(
        "controller:global", [this](bool up) { global_->set_up(up); },
        [this] {
          global_->cold_start();
          detector_->resync();
        });
  } else {
    faults_.register_target("controller:global",
                            [this](bool up) { global_->set_up(up); });
  }
  for (std::size_t f = 0; f < vnf_controllers_.size(); ++f) {
    control::VnfController* controller = vnf_controllers_[f].get();
    faults_.register_target(
        "controller:vnf" + std::to_string(f), [this, controller](bool up) {
          controller->set_up(up);
          // The coordinator may have given up on a round or retired a route
          // while this participant was unreachable.
          if (up && global_->up()) global_->reconcile_participant(*controller);
        });
  }
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    const auto id = static_cast<dataplane::ElementId>(i);
    faults_.register_target(
        "element:" + std::to_string(id),
        [this, id](bool up) { elements_.set_up(id, up); });
  }
}

void Deployment::enable_recovery() {
  register_fault_targets();
  detector_->set_element_down_callback(
      [this](dataplane::ElementId element, SiteId site) {
        const control::ElementInfo& info = elements_.info(element);
        if (info.type == control::ElementType::kVnfInstance) {
          global_->on_instance_down(info.vnf, site);
        }
      });
  // The VNFs with an instance at `site`, in id order.
  const auto vnfs_at = [this](SiteId site) {
    std::set<std::uint32_t> vnfs;
    for (const dataplane::ElementId element : elements_.elements_at(site)) {
      const control::ElementInfo& info = elements_.info(element);
      if (info.type == control::ElementType::kVnfInstance) {
        vnfs.insert(info.vnf.value());
      }
    }
    return vnfs;
  };
  detector_->set_site_down_callback([this, vnfs_at](SiteId site) {
    // A dead site takes every VNF pool it hosts with it; reroute each.
    for (const std::uint32_t vnf : vnfs_at(site)) {
      global_->on_instance_down(VnfId{vnf}, site);
    }
  });
  detector_->set_site_up_callback([this, vnfs_at](SiteId site) {
    // The site's heartbeats are back: restore every VNF pool it hosts so
    // capacity returns and routes can rebalance onto it.
    for (const std::uint32_t vnf : vnfs_at(site)) {
      global_->on_instance_up(VnfId{vnf}, site);
    }
  });
  for (const model::CloudSite& site : model_.sites()) {
    detector_->watch_site(site.id);
    locals_[site.id.value()]->start_heartbeats(config_.detector.period);
  }
  detector_->start();
}

void Deployment::stop_recovery() {
  detector_->stop();
  for (auto& local : locals_) {
    local->stop_heartbeats();
  }
}

void Deployment::enable_replication(std::uint32_t replicas) {
  SWB_CHECK(replication_ == nullptr) << "enable_replication called twice";
  SWB_CHECK(!config_.durable_controller)
      << "durable_controller and enable_replication are mutually "
         "exclusive: the replica group owns the journals";
  SWB_CHECK(config_.reliable_bus)
      << "replication streams over /ctl/ topics and needs the reliable bus";
  SWB_CHECK_GE(replicas, 1u);

  const std::size_t site_count = model_.sites().size();
  std::vector<SiteId> sites;
  sites.reserve(replicas);
  for (std::uint32_t r = 0; r < replicas; ++r) {
    sites.push_back(SiteId{static_cast<SiteId::underlying_type>(
        (config_.controller_site.value() + r) % site_count)});
  }
  replication_ = std::make_unique<control::ReplicaGroup>(
      *context_, *global_, durable_store_, std::move(sites),
      config_.replication);
  replication_->start();

  // Crash-with-amnesia targets: a crashed replica's process state is gone;
  // restore re-syncs it (follower: snapshot install from the live leader;
  // un-elected leader: cold_start from its own journal).  In-flight
  // retransmits toward the dead replica's stream are abandoned so the
  // reliable bus does not retry against silence until exhaustion.
  for (std::uint32_t r = 0; r < replication_->replica_count(); ++r) {
    const SiteId site = replication_->site_of(r);
    faults_.register_amnesia_target(
        "controller:replica" + std::to_string(r),
        [this, r, site](bool up) {
          if (up) return;   // restore goes through the reset path below
          replication_->crash_replica(r);
          bus_->abandon_retransmits_to(site,
                                       std::string{bus::kReplicationPrefix});
        },
        [this, r] {
          replication_->restore_replica(r);
          detector_->resync();
          replication_->detector().resync();
        });
  }
  // "controller:leader" resolves to whoever leads when the fault FIRES —
  // scripted chaos (ChaosSchedule) can kill successive leaders without
  // knowing election outcomes in advance.  The victim is pinned so the
  // paired restore revives the replica the crash actually took down.
  faults_.register_amnesia_target(
      "controller:leader",
      [this](bool up) {
        if (up) return;
        leader_victim_ = replication_->leader();
        replication_->crash_replica(leader_victim_);
        bus_->abandon_retransmits_to(replication_->site_of(leader_victim_),
                                     std::string{bus::kReplicationPrefix});
      },
      [this] {
        replication_->restore_replica(leader_victim_);
        detector_->resync();
        replication_->detector().resync();
      });
}

void Deployment::stop_replication() {
  if (replication_ != nullptr) replication_->stop();
}

std::vector<dataplane::ElementId> Deployment::WalkResult::vnf_instances()
    const {
  std::vector<dataplane::ElementId> instances;
  for (const HopTrace& hop : path) {
    if (hop.type == control::ElementType::kVnfInstance) {
      instances.push_back(hop.element);
    }
  }
  return instances;
}

Deployment::WalkResult Deployment::inject(ChainId chain,
                                          const dataplane::FiveTuple& flow,
                                          dataplane::Direction direction,
                                          std::uint16_t size_bytes) {
  const control::ChainRecord* found = global_->find_record(chain);
  if (found == nullptr || !found->active) {
    WalkResult result;
    result.failure = "chain not active";
    return result;
  }
  const control::ChainRecord& record = *found;
  // The walk starts at the edge instance on the sending side.
  const SiteId start_site = direction == dataplane::Direction::kForward
      ? record.ingress_site
      : record.egress_site;
  const EdgeServiceId edge_service =
      direction == dataplane::Direction::kForward
          ? record.spec.ingress_service
          : record.spec.egress_service;
  const dataplane::ElementId edge_instance =
      edge_controller(edge_service).ensure_edge_instance(start_site);
  return walk(record, edge_instance, flow, direction, size_bytes);
}

Deployment::WalkResult Deployment::inject_from(
    ChainId chain, dataplane::ElementId edge_instance,
    const dataplane::FiveTuple& flow, dataplane::Direction direction,
    std::uint16_t size_bytes) {
  const control::ChainRecord* found = global_->find_record(chain);
  if (found == nullptr || !found->active) {
    WalkResult result;
    result.failure = "chain not active";
    return result;
  }
  return walk(*found, edge_instance, flow, direction, size_bytes);
}

Deployment::WalkResult Deployment::walk(const control::ChainRecord& record,
                                        dataplane::ElementId edge_instance,
                                        const dataplane::FiveTuple& flow,
                                        dataplane::Direction direction,
                                        std::uint16_t size_bytes) {
  WalkResult result;
  // Both edges, the ingress and egress forwarders, and a forwarder plus
  // an instance per VNF: the walk never reallocates its path.
  result.path.reserve(2 * record.spec.vnfs.size() + 4);

  dataplane::Packet packet;
  packet.flow = direction == dataplane::Direction::kForward
      ? flow
      : flow.reversed();
  packet.labels = record.labels;
  packet.direction = direction;
  packet.size_bytes = size_bytes;
  packet.arrival_source = edge_instance;

  result.path.push_back(
      {edge_instance, control::ElementType::kEdgeInstance, 0.0});

  dataplane::ElementId current_forwarder =
      elements_.info(edge_instance).attached_forwarder;
  dataplane::ForwardAction action =
      elements_.forwarder(current_forwarder).process_from_attached(packet);
  result.path.push_back(
      {current_forwarder, control::ElementType::kForwarder, 0.0});

  for (int hops = 0; hops < 64; ++hops) {
    switch (action.type) {
      case dataplane::ActionType::kDrop: {
        result.failure = "dropped at forwarder " +
                         std::to_string(current_forwarder);
        return result;
      }
      case dataplane::ActionType::kSendToForwarder: {
        if (!elements_.info(action.element).up) {
          result.failure = "next-hop forwarder " +
                           std::to_string(action.element) + " is down";
          return result;
        }
        const SiteId from = elements_.info(current_forwarder).site;
        const SiteId to = elements_.info(action.element).site;
        const double hop_ms =
            model_.delay_ms(model_.site(from).node, model_.site(to).node);
        result.latency_ms += hop_ms;
        packet.arrival_source = current_forwarder;
        current_forwarder = action.element;
        result.path.push_back(
            {current_forwarder, control::ElementType::kForwarder, hop_ms});
        action =
            elements_.forwarder(current_forwarder).process_from_wire(packet);
        break;
      }
      case dataplane::ActionType::kDeliverToAttached: {
        const control::ElementInfo& info = elements_.info(action.element);
        if (!info.up) {
          // A crashed element processes nothing: the packet is lost until
          // the drain re-pins its flow onto a survivor.
          result.failure = "element " + std::to_string(action.element) +
                           " is down";
          return result;
        }
        if (info.type == control::ElementType::kEdgeInstance) {
          result.path.push_back(
              {action.element, control::ElementType::kEdgeInstance, 0.0});
          result.delivered = true;
          return result;
        }
        // A VNF instance: processing latency, then back to the forwarder.
        result.latency_ms += config_.vnf_processing_ms;
        result.path.push_back({action.element,
                               control::ElementType::kVnfInstance,
                               config_.vnf_processing_ms});
        packet.arrival_source = action.element;
        action = elements_.forwarder(current_forwarder)
                     .process_from_attached(packet);
        break;
      }
    }
  }
  result.failure = "hop limit exceeded (routing loop?)";
  return result;
}

Deployment::WalkResult Deployment::inject_anycast(
    ChainId chain, const dataplane::FiveTuple& flow,
    dataplane::Direction direction, std::uint16_t size_bytes) {
  WalkResult result;
  SWB_CHECK(!anycast_routers_.empty())
      << "inject_anycast requires enable_anycast";

  const bool forward = direction == dataplane::Direction::kForward;

  // The whole walk works off router state only: chain knowledge was
  // learned from bus-replicated route announcements, so a crashed or
  // partitioned-away Global Switchboard changes nothing here.
  dataplane::Packet packet;
  packet.flow = forward ? flow : flow.reversed();
  packet.direction = direction;
  packet.size_bytes = size_bytes;
  packet.anycast.hop_budget = config_.anycast.hop_budget;
  packet.anycast.stage = 1;

  // Stage order and endpoints come from the entry site's router.
  const control::AnycastRouter::ChainInfo* info = nullptr;
  for (const auto& router : anycast_routers_) {
    info = router->chain_info(chain);
    if (info != nullptr) break;
  }
  if (info == nullptr) {
    result.failure = "chain unknown to anycast routers";
    return result;
  }
  packet.labels = info->labels;
  const SiteId start = forward ? info->ingress_site : info->egress_site;
  const SiteId dest = forward ? info->egress_site : info->ingress_site;
  std::vector<VnfId> stages = info->vnfs;
  if (!forward) std::reverse(stages.begin(), stages.end());

  SiteId current = start;
  packet.anycast.mark_visited(current.value());
  const auto site_hop = [this, &result](SiteId site, double hop_ms) {
    // The path records the site's forwarder for wide-area hops; tests
    // and benches only depend on the VNF-instance subsequence.
    const std::vector<dataplane::ElementId> fwds =
        elements_.forwarders_at(site);
    if (!fwds.empty()) {
      result.path.push_back(
          {fwds.front(), control::ElementType::kForwarder, hop_ms});
    }
  };
  site_hop(current, 0.0);

  for (std::size_t i = 0; i < stages.size(); ++i) {
    const VnfId vnf = stages[i];
    std::ostringstream tag;
    tag << "chain=" << chain << " stage=" << packet.anycast.stage;
    // Refuted candidates this stage: partitioned-away or stale-lie sites
    // are excluded and the steering question re-asked.
    std::uint64_t excluded = 0;
    bool served = false;
    while (!served) {
      control::AnycastRouter& router = *anycast_routers_[current.value()];
      const std::optional<SiteId> next = router.next_site(
          vnf, current, packet.anycast.visited_sites | excluded, tag.str());
      if (!next) {
        std::ostringstream failure;
        failure << "no reachable live instance of vnf " << vnf
                << " for stage " << packet.anycast.stage;
        result.failure = failure.str();
        return result;
      }
      if (*next != current) {
        if (faults_.partitioned(current, *next)) {
          // The table still advertises a site the data plane cannot
          // reach: steer around it.
          excluded |= std::uint64_t{1} << next->value();
          continue;
        }
        if (packet.anycast.hop_budget == 0) {
          result.failure = "anycast hop budget exhausted";
          return result;
        }
        --packet.anycast.hop_budget;
        // next_site() may never return a visited site — the wire
        // annotation makes loops structurally impossible.
        SWB_CHECK(!packet.anycast.visited(next->value()))
            << "anycast steering revisited site " << *next;
        const double hop_ms = model_.delay_ms(model_.site(current).node,
                                              model_.site(*next).node);
        result.latency_ms += hop_ms;
        current = *next;
        packet.anycast.mark_visited(current.value());
        site_hop(current, hop_ms);
      }
      // At the chosen site the registry is ground truth.  A remote entry
      // may have lied (instances died since the last announcement heard);
      // the site's own router refutes itself via its fresh local view, so
      // re-asking from here steers onward without special casing.
      std::vector<dataplane::ElementId> live;
      for (const dataplane::ElementId id :
           elements_.vnf_instances_at(current, vnf)) {
        if (elements_.info(id).up) live.push_back(id);
      }
      if (live.empty()) continue;
      const std::uint64_t pick =
          dataplane::mix64(dataplane::flow_hash(packet.labels, packet.flow) ^
                           packet.anycast.stage);
      const dataplane::ElementId instance =
          live[pick % live.size()];
      result.latency_ms += config_.vnf_processing_ms;
      result.path.push_back({instance, control::ElementType::kVnfInstance,
                             config_.vnf_processing_ms});
      packet.arrival_source = instance;
      ++packet.anycast.stage;
      served = true;
    }
  }

  // Final segment to the chain's egress (ingress in reverse).  This hop is
  // destination-routed — the egress-site label, not an anycast choice — so
  // the visited check does not apply, but it still burns budget.
  if (current != dest) {
    if (faults_.partitioned(current, dest)) {
      result.failure = "egress site unreachable (partitioned)";
      return result;
    }
    if (packet.anycast.hop_budget == 0) {
      result.failure = "anycast hop budget exhausted";
      return result;
    }
    --packet.anycast.hop_budget;
    const double hop_ms =
        model_.delay_ms(model_.site(current).node, model_.site(dest).node);
    result.latency_ms += hop_ms;
    current = dest;
    site_hop(current, hop_ms);
  }
  result.delivered = true;
  return result;
}

}  // namespace switchboard::core
