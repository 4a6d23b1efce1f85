#include "control/local_switchboard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::control {
namespace {

/// Upserts an announcement list by element id.
template <typename T, typename IdFn>
void upsert(std::vector<T>& list, const T& item, IdFn id_of) {
  for (T& existing : list) {
    if (id_of(existing) == id_of(item)) {
      existing = item;
      return;
    }
  }
  list.push_back(item);
}

/// The one liveness rule (DESIGN.md §12): an element or a route announced
/// at weight 0 is dead.
bool live(double weight) { return weight > 0; }

/// Adds `element` to a weighted choice unless it is dead — a dead element
/// never enters a choice (WeightedChoice requires positive weights).
void add_live(dataplane::WeightedChoice& choice, dataplane::ElementId element,
              double weight) {
  if (live(weight)) choice.add(element, weight);
}

/// The pool whose forwarders follow stage `stage` of `route` (stage 0 is
/// the ingress): the next VNF at its site, or the egress edge after the
/// last VNF.
std::pair<VnfId, SiteId> next_forwarders(const RouteAnnouncement& route,
                                         std::size_t stage) {
  if (stage < route.hops.size()) {
    return {route.hops[stage].vnf, route.hops[stage].site};
  }
  return {ControlContext::edge_marker(), route.egress_site};
}

/// Whether at least one announcement arrived on `topic`.
template <typename Map>
bool announced(const Map& by_path, const bus::Topic& topic) {
  const auto it = by_path.find(topic.path);
  return it != by_path.end() && !it->second.empty();
}

}  // namespace

LocalSwitchboard::LocalSwitchboard(ControlContext& context, SiteId site)
    : context_{context}, site_{site} {}

void LocalSwitchboard::set_ready_callback(ReadyCallback callback) {
  ready_callback_ = std::move(callback);
}

void LocalSwitchboard::set_peer_lookup(PeerLookup lookup) {
  peer_lookup_ = std::move(lookup);
}

void LocalSwitchboard::set_route_observer(RouteObserver observer) {
  route_observer_ = std::move(observer);
}

void LocalSwitchboard::start(const bus::Topic& routes_topic) {
  context_.bus.subscribe(site_, routes_topic, [this](const bus::Message& m) {
    const auto route = parse_route(m.payload);
    if (route.has_value()) {
      handle_route(*route);
    } else {
      SB_LOG(kWarn) << "local-sb site " << site_ << ": bad route payload";
    }
  });
}

LocalSwitchboard::PerChain& LocalSwitchboard::chain_state(
    const RouteAnnouncement& announcement) {
  PerChain& pc = chains_[announcement.chain.value()];
  pc.chain = announcement.chain;
  pc.labels =
      dataplane::Labels{announcement.chain_label, announcement.egress_label};
  pc.ingress_site = announcement.ingress_site;
  pc.egress_site = announcement.egress_site;
  return pc;
}

void LocalSwitchboard::subscribe_instances(PerChain& pc, VnfId vnf,
                                           SiteId site) {
  const bus::Topic topic = bus::instances_topic(
      pc.chain, pc.labels.egress_site, vnf, site);
  if (!pc.subscribed.insert(topic.path).second) return;
  const ChainId chain = pc.chain;
  context_.bus.subscribe(
      site_, topic, [this, chain, path = topic.path](const bus::Message& m) {
        const auto announcement = parse_instance(m.payload);
        if (!announcement.has_value()) return;
        PerChain& state = chains_[chain.value()];
        upsert(state.instances[path], *announcement,
               [](const InstanceAnnouncement& a) { return a.instance; });
        // Weight 0 announces a dead instance: invalidate the pinned flow
        // entries on its fronting forwarder so the next packet of each
        // flow re-pins onto a survivor (drain).
        if (announcement->weight <= 0 &&
            context_.elements.exists(announcement->forwarder) &&
            context_.elements.info(announcement->forwarder).site == site_) {
          context_.elements.forwarder(announcement->forwarder)
              .drain_element(announcement->instance);
        }
        reconcile(state);
      });
}

void LocalSwitchboard::subscribe_forwarders(PerChain& pc, VnfId vnf,
                                            SiteId site) {
  const bus::Topic topic = bus::forwarders_topic(
      pc.chain, pc.labels.egress_site, vnf, site);
  if (!pc.subscribed.insert(topic.path).second) return;
  const ChainId chain = pc.chain;
  context_.bus.subscribe(
      site_, topic,
      [this, chain, vnf, site, path = topic.path](const bus::Message& m) {
        const auto announcement = parse_forwarder(m.payload);
        if (!announcement.has_value()) return;
        PerChain& state = chains_[chain.value()];
        upsert(state.forwarders[path], *announcement,
               [](const ForwarderAnnouncement& a) { return a.forwarder; });
        // Weight 0 retracts a next-hop forwarder (it died, or everything
        // behind it did): drop the pinned next-hop choices referencing it
        // on every local forwarder so flows re-pin.
        if (announcement->weight <= 0) {
          for (const dataplane::ElementId local :
               context_.elements.forwarders_at(site_)) {
            context_.elements.forwarder(local).drain_element(
                announcement->forwarder);
          }
        }
        reconcile(state);
        if (vnf == ControlContext::edge_marker() && site != site_) {
          handle_new_edge_forwarder(state, site, *announcement);
        }
      });
}

void LocalSwitchboard::handle_new_edge_forwarder(
    PerChain& pc, SiteId edge_site, const ForwarderAnnouncement& announcement) {
  // On-demand edge addition, remote side (Table 2 steps 4-6): this site
  // hosts the first VNF of some route; a forwarder at a *new* edge site
  // appeared; configure the return path (rule + tunnel endpoint) and tell
  // the initiating Local Switchboard.
  if (edge_site == pc.ingress_site) return;   // the original ingress
  if (edge_site == pc.egress_site) return;    // the egress edge, not mobility
  bool hosts_first_vnf = false;
  for (const RouteAnnouncement& route : pc.routes) {
    if (live(route.weight) && !route.hops.empty() &&
        route.hops.front().site == site_) {
      hosts_first_vnf = true;
      break;
    }
  }
  if (!hosts_first_vnf) return;
  if (!pc.return_paths_configured.insert(announcement.forwarder).second) {
    return;   // already configured for this edge forwarder
  }

  const sim::SimTime received = context_.sim.now();
  const ChainId chain = pc.chain;
  context_.sim.schedule(
      context_.timings.controller_processing,
      [this, chain, edge_site, received] {
        const sim::SimTime started = context_.sim.now();
        context_.sim.schedule(
            context_.timings.tunnel_setup + context_.timings.rule_install,
            [this, chain, edge_site, received, started] {
              const sim::SimTime finished = context_.sim.now();
              if (!peer_lookup_) return;
              LocalSwitchboard* peer = peer_lookup_(edge_site);
              if (peer == nullptr) return;
              context_.sim.schedule(
                  context_.timings.controller_rpc,
                  [peer, chain, received, started, finished] {
                    peer->on_return_path_configured(chain, received, started,
                                                    finished);
                  });
            });
      });
}

void LocalSwitchboard::handle_route(const RouteAnnouncement& announcement) {
  // Epoch fence: once any announcement from incarnation N arrived, older
  // incarnations are dead to this site — their commands may contradict
  // state the restarted controller already rebuilt.
  if (announcement.epoch < max_route_epoch_) {
    ++stale_routes_rejected_;
    SB_LOG(kDebug) << "local-sb site " << site_ << ": fenced route "
                   << announcement.route << " from stale epoch "
                   << announcement.epoch << " (highest " << max_route_epoch_
                   << ")";
    return;
  }
  max_route_epoch_ = announcement.epoch;
  PerChain& pc = chain_state(announcement);
  upsert(pc.routes, announcement,
         [](const RouteAnnouncement& r) { return r.route; });
  if (route_observer_) route_observer_(announcement);

  // Set up this site's subscriptions.
  for (const RouteAnnouncement& route : pc.routes) {
    for (std::size_t i = 0; i < route.hops.size(); ++i) {
      const RouteHop& hop = route.hops[i];
      if (hop.site != site_) continue;
      subscribe_instances(pc, hop.vnf, site_);
      const auto [next_vnf, next_site] = next_forwarders(route, i + 1);
      subscribe_forwarders(pc, next_vnf, next_site);
      // Mobility: the first VNF's site listens for edge forwarders
      // appearing at any site (on-demand edge addition, Section 6).
      if (i == 0) {
        for (const model::CloudSite& any_site : context_.model.sites()) {
          subscribe_forwarders(pc, ControlContext::edge_marker(),
                               any_site.id);
        }
      }
    }
    if (pc.ingress_site == site_) {
      subscribe_instances(pc, ControlContext::edge_marker(), site_);
      // A chain with no VNFs forwards straight to the egress edge (the
      // demo's "default chain", Section 2).
      const auto [first_vnf, first_site] = next_forwarders(route, 0);
      subscribe_forwarders(pc, first_vnf, first_site);
    }
    if (pc.egress_site == site_) {
      subscribe_instances(pc, ControlContext::edge_marker(), site_);
    }
  }
  reconcile(pc);
}

void LocalSwitchboard::install_rule(const PerChain& pc,
                                    dataplane::ElementId forwarder,
                                    Fronted& fronted) {
  // Next-hop forwarders, merged across live routes: a forwarder that
  // several routes reach is one candidate weighted by the sum of its
  // route.weight x announcement weight, in first-seen order.
  std::vector<std::pair<dataplane::ElementId, double>> next;
  const auto add_next = [&](const RouteAnnouncement& route,
                            std::size_t stage) {
    const auto [vnf, site] = next_forwarders(route, stage);
    const auto it = pc.forwarders.find(
        bus::forwarders_topic(pc.chain, pc.labels.egress_site, vnf, site)
            .path);
    if (it == pc.forwarders.end()) return;
    for (const ForwarderAnnouncement& ann : it->second) {
      const double weight = route.weight * ann.weight;
      if (!live(weight)) continue;
      const auto same = std::find_if(next.begin(), next.end(),
                                     [&](const auto& candidate) {
                                       return candidate.first == ann.forwarder;
                                     });
      if (same == next.end()) {
        next.emplace_back(ann.forwarder, weight);
      } else {
        same->second += weight;
      }
    }
  };
  for (const RouteAnnouncement& route : pc.routes) {
    if (!live(route.weight)) continue;
    if (fronted.vnf.valid()) {
      // The stages this forwarder serves in this route.
      for (std::size_t i = 0; i < route.hops.size(); ++i) {
        if (route.hops[i].site == site_ && route.hops[i].vnf == fronted.vnf) {
          add_next(route, i + 1);
        }
      }
    } else if (pc.ingress_site == site_) {
      add_next(route, 0);   // the ingress edge forwarder
    }
  }
  for (const auto& [element, weight] : next) {
    fronted.rule.next_forwarders.add(element, weight);
  }
  context_.elements.forwarder(forwarder).rules().install(
      pc.labels, std::move(fronted.rule));
}

void LocalSwitchboard::reconcile(PerChain& pc) {
  // One walk over the local instance announcements, grouped by the
  // forwarder fronting them (one forwarder fronts one service per site).
  // Dead instances keep their attachment wiring (the element may come
  // back) but stay out of the rule; an edge instance is a choice only at
  // the egress.
  std::map<dataplane::ElementId, Fronted> fronted;
  for (const auto& [path, announcements] : pc.instances) {
    for (const InstanceAnnouncement& ann : announcements) {
      if (!context_.elements.exists(ann.instance)) continue;
      const ElementInfo& info = context_.elements.info(ann.instance);
      if (info.site != site_ || info.type == ElementType::kForwarder) {
        continue;
      }
      Fronted& f = fronted[ann.forwarder];
      f.weight += ann.weight;
      context_.elements.forwarder(ann.forwarder)
          .register_attachment(ann.instance, pc.labels);
      if (info.type == ElementType::kVnfInstance) f.vnf = info.vnf;
      if (f.vnf.valid() || pc.egress_site == site_) {
        add_live(f.rule.vnf_instances, ann.instance, ann.weight);
      }
    }
  }
  for (auto& [forwarder, f] : fronted) install_rule(pc, forwarder, f);

  // Publish forwarder announcements for fronted services whose aggregate
  // weight changed (weight = sum of fronted instance weights, Sec. 5.2).
  // A drop to 0 must publish too: upstream sites drain their pinned
  // next-forwarder choices on a weight-0 announcement.  The map default
  // (last = 0) keeps forwarders that never had live instances silent.
  for (const auto& [forwarder, f] : fronted) {
    auto& last = pc.published_weight[forwarder];
    if (std::abs(last - f.weight) < 1e-12) continue;
    last = f.weight;
    ForwarderAnnouncement announcement;
    announcement.forwarder = forwarder;
    announcement.weight = f.weight;
    const bus::Topic topic = bus::forwarders_topic(
        pc.chain, pc.labels.egress_site,
        f.vnf.valid() ? f.vnf : ControlContext::edge_marker(), site_);
    context_.sim.schedule(
        context_.timings.controller_processing,
        [this, topic, announcement] {
          context_.bus.publish(topic, serialize(announcement));
        });
  }

  // Route readiness.  Every site hears every route, so the edge-instance
  // topic is built only where this site is the chain's ingress or egress.
  const bool edge_announced =
      (pc.ingress_site == site_ || pc.egress_site == site_) &&
      announced(pc.instances,
                bus::instances_topic(pc.chain, pc.labels.egress_site,
                                     ControlContext::edge_marker(), site_));
  const auto next_announced = [&](const RouteAnnouncement& route,
                                  std::size_t stage) {
    const auto [vnf, site] = next_forwarders(route, stage);
    return announced(pc.forwarders, bus::forwarders_topic(
                                        pc.chain, pc.labels.egress_site, vnf,
                                        site));
  };
  for (const RouteAnnouncement& route : pc.routes) {
    if (pc.ready_routes.count(route.route.value()) != 0) continue;
    bool ready = true;
    bool involved = false;
    for (std::size_t i = 0; i < route.hops.size() && ready; ++i) {
      const RouteHop& hop = route.hops[i];
      if (hop.site != site_) continue;
      involved = true;
      ready = announced(pc.instances,
                        bus::instances_topic(pc.chain, pc.labels.egress_site,
                                             hop.vnf, site_)) &&
              next_announced(route, i + 1);
    }
    if (pc.ingress_site == site_) {
      involved = true;
      ready = ready && edge_announced && next_announced(route, 0);
    }
    if (pc.egress_site == site_) {
      involved = true;
      ready = ready && edge_announced;
    }
    if (involved && ready) {
      pc.ready_routes.insert(route.route.value());
      if (ready_callback_) {
        const ChainId chain = pc.chain;
        const RouteId route_id = route.route;
        context_.sim.schedule(
            context_.timings.rule_install + context_.timings.tunnel_setup,
            [this, chain, route_id] { ready_callback_(chain, route_id, site_); });
      }
    }
  }
}

void LocalSwitchboard::attach_edge(
    ChainId chain, dataplane::ElementId edge_instance,
    std::function<void(Result<EdgeAdditionTrace>)> done) {
  const auto it = chains_.find(chain.value());
  if (it == chains_.end() || it->second.routes.empty()) {
    context_.sim.schedule(0, [done = std::move(done)] {
      done(Result<EdgeAdditionTrace>{ErrorCode::kNotFound,
                                     "chain has no replicated routes"});
    });
    return;
  }
  PerChain& pc = it->second;

  // Step 1 (0 ms): pick the route with the least latency from this edge
  // site to the egress.
  const NodeId here = context_.model.site(site_).node;
  const RouteAnnouncement* best = nullptr;
  double best_latency = std::numeric_limits<double>::infinity();
  for (const RouteAnnouncement& route : pc.routes) {
    if (!live(route.weight) || route.hops.empty()) continue;
    double latency = context_.model.delay_ms(
        here, context_.model.site(route.hops.front().site).node);
    for (std::size_t i = 0; i + 1 < route.hops.size(); ++i) {
      latency += context_.model.delay_ms(
          context_.model.site(route.hops[i].site).node,
          context_.model.site(route.hops[i + 1].site).node);
    }
    latency += context_.model.delay_ms(
        context_.model.site(route.hops.back().site).node,
        context_.model.site(route.egress_site).node);
    if (latency < best_latency) {
      best_latency = latency;
      best = &route;
    }
  }
  if (best == nullptr) {
    context_.sim.schedule(0, [done = std::move(done)] {
      done(Result<EdgeAdditionTrace>{ErrorCode::kNotFound,
                                     "no usable route for chain"});
    });
    return;
  }

  PendingEdgeAddition pending;
  pending.chain = chain;
  pending.edge_instance = edge_instance;
  pending.edge_forwarder =
      context_.elements.info(edge_instance).attached_forwarder;
  pending.target_site = best->hops.front().site;
  pending.trace.started = context_.sim.now();
  pending.trace.site_chosen = context_.sim.now();
  pending.done = std::move(done);
  pending_edges_.push_back(std::move(pending));
  const std::size_t index = pending_edges_.size() - 1;

  // Step 2: receive the first VNF's forwarder info (bus-replicated state;
  // retained messages serve late subscribers).
  const VnfId first_vnf = best->hops.front().vnf;
  const SiteId first_site = best->hops.front().site;
  const bus::Topic topic = bus::forwarders_topic(
      pc.chain, pc.labels.egress_site, first_vnf, first_site);
  const dataplane::Labels labels = pc.labels;
  context_.bus.subscribe(
      site_, topic,
      [this, index, labels](const bus::Message& m) {
        const auto announcement = parse_forwarder(m.payload);
        if (!announcement.has_value()) return;
        if (index >= pending_edges_.size()) return;
        PendingEdgeAddition& p = pending_edges_[index];
        if (p.local_configured) return;
        dataplane::LoadBalanceRule rule;
        add_live(rule.next_forwarders, announcement->forwarder,
                 announcement->weight);
        if (rule.next_forwarders.empty()) return;   // a retracted forwarder
        p.trace.forwarder_info_received = context_.sim.now();

        // Step 3: configure the edge forwarder's data plane.
        context_.elements.forwarder(p.edge_forwarder)
            .register_attachment(p.edge_instance, labels);
        context_.sim.schedule(
            context_.timings.rule_install,
            [this, index, labels, rule = std::move(rule)]() mutable {
              if (index >= pending_edges_.size()) return;
              PendingEdgeAddition& p2 = pending_edges_[index];
              context_.elements.forwarder(p2.edge_forwarder)
                  .rules()
                  .install(labels, std::move(rule));
              p2.trace.edge_configured = context_.sim.now();
              p2.local_configured = true;

              // Publish our edge forwarder so the first VNF's Local SB
              // configures the return path (steps 4-6).
              ForwarderAnnouncement mine;
              mine.forwarder = p2.edge_forwarder;
              mine.weight = 1.0;
              const bus::Topic my_topic = bus::forwarders_topic(
                  p2.chain, labels.egress_site,
                  ControlContext::edge_marker(), site_);
              context_.bus.publish(my_topic, serialize(mine));
              maybe_finish_edge_addition(p2);
            });
      });
}

void LocalSwitchboard::on_return_path_configured(ChainId chain,
                                                 sim::SimTime received,
                                                 sim::SimTime started,
                                                 sim::SimTime finished) {
  for (PendingEdgeAddition& pending : pending_edges_) {
    if (pending.chain != chain || pending.remote_configured) continue;
    pending.trace.remote_received = received;
    pending.trace.remote_config_started = started;
    pending.trace.remote_config_finished = finished;
    pending.remote_configured = true;
    maybe_finish_edge_addition(pending);
    return;
  }
}

void LocalSwitchboard::maybe_finish_edge_addition(
    PendingEdgeAddition& pending) {
  if (!pending.local_configured || !pending.remote_configured) return;
  if (!pending.done) return;
  auto done = std::move(pending.done);
  pending.done = nullptr;
  done(Result<EdgeAdditionTrace>{pending.trace});
}

void LocalSwitchboard::start_heartbeats(sim::Duration period) {
  SWB_CHECK(period > 0) << "heartbeat period must be positive";
  heartbeat_period_ = period;
  if (heartbeats_on_) return;
  heartbeats_on_ = true;
  publish_heartbeat();
}

void LocalSwitchboard::stop_heartbeats() {
  heartbeats_on_ = false;
  if (heartbeat_event_.valid()) {
    context_.sim.cancel(heartbeat_event_);
    heartbeat_event_ = sim::EventHandle{};
  }
}

void LocalSwitchboard::publish_heartbeat() {
  if (!heartbeats_on_) return;
  // A crashed Local Switchboard stays silent (that silence IS the site-down
  // signal) but keeps ticking so heartbeats resume on restore.
  if (up_) {
    Heartbeat beat;
    beat.site = site_;
    beat.seq = ++heartbeat_seq_;
    for (const dataplane::ElementId element : context_.elements.elements_at(site_)) {
      if (!context_.elements.info(element).up) {
        beat.down_elements.push_back(element);
      }
    }
    context_.bus.publish(bus::health_topic(site_), serialize(beat));
  }
  heartbeat_event_ = context_.sim.schedule(heartbeat_period_,
                                           [this] { publish_heartbeat(); });
}

}  // namespace switchboard::control
