#include "control/global_switchboard.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::control {
GlobalSwitchboard::GlobalSwitchboard(ControlContext& context, SiteId home_site)
    : context_{context}, home_site_{home_site}, te_{context.model} {
  state_.epoch = 1;   // bumped by every restart
}

void GlobalSwitchboard::register_edge_controller(EdgeController* controller) {
  SWB_CHECK(controller != nullptr);
  if (edge_controllers_.size() <= controller->id().value()) {
    edge_controllers_.resize(controller->id().value() + 1, nullptr);
  }
  edge_controllers_[controller->id().value()] = controller;
}

void GlobalSwitchboard::register_vnf_controller(VnfController* controller) {
  SWB_CHECK(controller != nullptr);
  if (vnf_controllers_.size() <= controller->vnf().value()) {
    vnf_controllers_.resize(controller->vnf().value() + 1, nullptr);
  }
  vnf_controllers_[controller->vnf().value()] = controller;
}

const ChainRecord& GlobalSwitchboard::record(ChainId chain) const {
  const ChainRecord* found = find_record(chain);
  SWB_CHECK(found != nullptr) << "unknown chain " << chain.value();
  return *found;
}

const ChainRecord* GlobalSwitchboard::find_record(ChainId chain) const {
  return state_.find_chain(chain);
}

RouteAnnouncement GlobalSwitchboard::to_announcement(
    const ChainRecord& record, const RouteRecord& route) const {
  RouteAnnouncement announcement;
  announcement.chain = record.id;
  announcement.route = route.id;
  announcement.chain_label = record.labels.chain;
  announcement.egress_label = record.labels.egress_site;
  announcement.ingress_site = record.ingress_site;
  announcement.egress_site = record.egress_site;
  announcement.weight = route.weight;
  announcement.epoch = state_.epoch;
  for (std::size_t z = 1; z <= record.spec.vnfs.size(); ++z) {
    announcement.hops.push_back(RouteHop{z, record.spec.vnfs[z - 1],
                                         route.vnf_sites[z - 1]});
  }
  return announcement;
}

std::set<std::uint32_t> GlobalSwitchboard::involved_sites(
    const ChainRecord& record, const RouteRecord& route) const {
  std::set<std::uint32_t> sites;
  sites.insert(record.ingress_site.value());
  sites.insert(record.egress_site.value());
  for (const SiteId site : route.vnf_sites) sites.insert(site.value());
  return sites;
}

void GlobalSwitchboard::publish_routes(const ChainRecord& record) {
  for (const RouteRecord& route : record.routes) {
    context_.bus.publish(routes_topic(),
                         serialize(to_announcement(record, route)));
  }
}

void GlobalSwitchboard::create_chain(const ChainSpec& spec,
                                     CreationCallback done) {
  if (!journal_safe_name(spec.name)) {
    context_.sim.schedule(0, [done = std::move(done)] {
      done(Result<CreationReport>{ErrorCode::kInvalidArgument,
                                  "chain name holds ';' or a newline"});
    });
    return;
  }
  CreationReport report;
  report.started = context_.sim.now();
  report.events.push_back({"spec_received", context_.sim.now()});

  // Fig. 4 step 1: obtain ingress/egress sites from the edge controllers
  // (parallel RPC round trip + controller processing).
  later(2 * context_.timings.controller_rpc +
            context_.timings.controller_processing,
        [this, spec, report, done = std::move(done)]() mutable {
    if (spec.ingress_service.value() >= edge_controllers_.size() ||
        edge_controllers_[spec.ingress_service.value()] == nullptr ||
        spec.egress_service.value() >= edge_controllers_.size() ||
        edge_controllers_[spec.egress_service.value()] == nullptr) {
      done(Result<CreationReport>{ErrorCode::kUnavailable,
                                  "edge service not registered"});
      return;
    }
    const auto ingress =
        edge_controllers_[spec.ingress_service.value()]->resolve_site(
            spec.ingress_node);
    const auto egress =
        edge_controllers_[spec.egress_service.value()]->resolve_site(
            spec.egress_node);
    if (!ingress.ok() || !egress.ok()) {
      done(Result<CreationReport>{ErrorCode::kNotFound,
                                  "cannot resolve ingress/egress site"});
      return;
    }
    report.events.push_back({"sites_resolved", context_.sim.now()});

    // Register the chain in the network model.
    model::Chain chain;
    chain.name = spec.name;
    chain.ingress = spec.ingress_node;
    chain.egress = spec.egress_node;
    chain.vnfs = spec.vnfs;
    chain.forward_traffic.assign(spec.vnfs.size() + 1, spec.forward_traffic);
    chain.reverse_traffic.assign(spec.vnfs.size() + 1, spec.reverse_traffic);
    const ChainId chain_id = context_.model.add_chain(std::move(chain));

    const dataplane::Labels labels{1000 + chain_id.value(),
                                   egress.value().value()};
    apply_and_log(
        ChainRecord{chain_id, spec, labels, *ingress, *egress, {}, false});
    report.chain = chain_id;
    report.labels = labels;

    // Fig. 4 step 2: compute the wide-area route and run 2PC.
    route_and_commit(Round{.chain = chain_id,
                           .report = std::move(report),
                           .done = std::move(done)});
  });
}

namespace {

// The 2PC timeout envelope: an unreachable controller never replies, so
// the coordinator waits kRpcTimeout plus a backoff that starts at
// kRpcRetryBackoff and doubles per retry, and aborts the transaction after
// kMaxRpcRetries timeouts.
constexpr sim::Duration kRpcTimeout = sim::from_ms(200.0);
constexpr sim::Duration kRpcRetryBackoff = sim::from_ms(50.0);
constexpr std::size_t kMaxRpcRetries = 3;

/// Wait before 2PC retry `rpc_retry` (0-based, below kMaxRpcRetries).
sim::Duration retry_delay(std::size_t rpc_retry) {
  return kRpcTimeout + (kRpcRetryBackoff << rpc_retry);
}

}  // namespace

void GlobalSwitchboard::route_and_commit(Round round,
                                         std::vector<SiteId> preferred) {
  later(context_.timings.route_compute,
        [this, round = std::move(round),
         preferred = std::move(preferred)]() mutable {
    const ChainRecord& rec = record(round.chain);
    std::optional<std::vector<SiteId>> vnf_sites;
    if (preferred.empty()) {
      vnf_sites = compute_route(round.chain, round.excluded);
    } else if (preferred.size() == rec.spec.vnfs.size()) {
      vnf_sites = std::move(preferred);
    } else {
      round.done(Result<CreationReport>{ErrorCode::kInvalidArgument,
                                        "preferred sites must cover every "
                                        "VNF in the chain"});
      return;
    }
    round.report.events.push_back(
        {round.attempt == 0 ? "route_computed" : "route_recomputed",
         context_.sim.now()});
    if (!vnf_sites) {
      round.done(Result<CreationReport>{ErrorCode::kInfeasible,
                                        "no feasible wide-area route"});
      return;
    }
    // The new route takes an equal share of the chain's traffic.  Its id is
    // the allocator's next; the BeginRecord below advances the allocator.
    round.route = RouteRecord{RouteId{state_.next_route_id},
                              std::move(*vnf_sites),
                              1.0 / static_cast<double>(rec.routes.size() + 1)};
    round.report.route = round.route.id;
    // Journal the 2PC intent before any participant hears about it: after
    // a crash anywhere in the round, recovery knows this (chain, route,
    // sites) begun and can re-drive or abort it.
    apply_and_log(
        BeginRecord{round.chain, round.route.id, round.route.vnf_sites});

    // Two-phase commit, prepare round: parallel RPCs to each VNF
    // controller (round trip + processing).
    round.rpc_retry = 0;
    later(2 * context_.timings.controller_rpc +
              context_.timings.controller_processing,
          [this, round = std::move(round)]() mutable {
            start_prepare_round(std::move(round));
          });
  });
}

void GlobalSwitchboard::start_prepare_round(Round round) {
  const ChainRecord& rec = record(round.chain);
  const model::Chain& chain = context_.model.chain(round.chain);

  // Parallel prepares: collect a vote from every reachable participant; a
  // down controller answers nothing and leaves a timeout.  Re-delivered
  // prepares on a later retry are deduplicated per (chain, route, stage).
  bool all_prepared = true;
  bool timed_out = false;
  std::pair<std::uint32_t, std::uint32_t> rejected{0, 0};
  std::set<std::uint32_t> prepared_vnfs;
  for (std::size_t z = 1; z <= rec.spec.vnfs.size(); ++z) {
    const VnfId vnf = rec.spec.vnfs[z - 1];
    const SiteId site = round.route.vnf_sites[z - 1];
    SWB_CHECK(vnf.value() < vnf_controllers_.size() &&
              vnf_controllers_[vnf.value()] != nullptr)
        << "vnf " << vnf.value() << " has no registered controller";
    VnfController* controller = reachable(vnf);
    if (controller == nullptr) {
      timed_out = true;
      continue;
    }
    const double load =
        context_.model.vnf(vnf).load_per_unit *
        (chain.stage_traffic(z) + chain.stage_traffic(z + 1)) *
        round.route.weight;
    if (controller->prepare(round.chain, round.route.id, site, load, z,
                            state_.epoch)) {
      prepared_vnfs.insert(vnf.value());
    } else {
      all_prepared = false;
      rejected = {vnf.value(), site.value()};
      break;
    }
  }
  // Releases the reservations made so far and journals the abort.
  const auto abort_round = [&] {
    for (const std::uint32_t vnf : prepared_vnfs) {
      vnf_controllers_[vnf]->abort(round.chain, round.route.id, state_.epoch);
    }
    apply_and_log(AbortRecord{round.chain, round.route.id});
  };

  if (!all_prepared) {
    // Recompute with the rejecting placement excluded (Section 3, chain
    // creation).
    abort_round();
    round.excluded.insert(rejected);
    round.report.events.push_back({"route_rejected", context_.sim.now()});
    if (round.attempt + 1 >= 4) {
      round.done(Result<CreationReport>{
          ErrorCode::kResourceExhausted,
          "2PC: no feasible route after repeated rejections"});
      return;
    }
    ++round.attempt;
    route_and_commit(std::move(round));
    return;
  }

  if (timed_out) {
    // Some participant never answered.  The timeout clock runs from round
    // entry; the round retries with bounded exponential backoff.
    round.report.events.push_back({"prepare_timeout", context_.sim.now()});
    if (round.rpc_retry >= kMaxRpcRetries) {
      SB_LOG(kWarn) << "2pc: prepare for chain " << round.chain << " route "
                    << round.route.id << " gave up after " << round.rpc_retry
                    << " retries";
      abort_round();
      round.done(Result<CreationReport>{
          ErrorCode::kUnavailable,
          "2PC prepare: participant unreachable after retries"});
      return;
    }
    // The backoff is read before the capture below moves the round.
    const sim::Duration backoff = retry_delay(round.rpc_retry++);
    later(backoff, [this, round = std::move(round)]() mutable {
      start_prepare_round(std::move(round));
    });
    return;
  }
  round.report.events.push_back({"prepared", context_.sim.now()});

  // Every participant voted yes: journal it so a crash from here on
  // re-drives the commit round instead of aborting (participants may have
  // already committed by then; re-commits are idempotent).
  apply_and_log(PrepRecord{round.chain, round.route.id});

  // Commit round — behind the quorum barrier: with replication on, the
  // prep record must be durable on a quorum before any participant hears
  // commit, or a failed-over leader could abort a round whose
  // participants already committed.
  round.rpc_retry = 0;
  after_quorum([this, round = std::move(round)]() mutable {
    later(context_.timings.controller_rpc +
              context_.timings.controller_processing,
          [this, round = std::move(round)]() mutable {
            start_commit_round(std::move(round));
          });
  });
}

void GlobalSwitchboard::start_commit_round(Round round) {
  ChainRecord* rec = state_.find_chain(round.chain);
  SWB_CHECK(rec != nullptr);

  // Commits to reachable participants; re-delivery on retry is idempotent
  // (kCommitted -> kCommitted, no reservations left to move).
  bool timed_out = false;
  for (const VnfId vnf : rec->spec.vnfs) {
    VnfController* controller = reachable(vnf);
    if (controller == nullptr) {
      timed_out = true;
      continue;
    }
    controller->commit(round.chain, round.route.id, rec->labels.egress_site,
                       state_.epoch);
  }

  if (timed_out) {
    round.report.events.push_back({"commit_timeout", context_.sim.now()});
    if (round.rpc_retry >= kMaxRpcRetries) {
      // Roll the route back: reachable participants get abort (rejected-
      // and-counted where already committed) and release their committed
      // capacity; unreachable ones are reconciled when they come back
      // (reconcile_participant: the journal no longer owns the round).
      SB_LOG(kWarn) << "2pc: commit for chain " << round.chain << " route "
                    << round.route.id << " gave up after " << round.rpc_retry
                    << " retries";
      // Journal the abort and make it quorum-durable BEFORE releasing the
      // participants: an abort the standbys never saw would make a
      // failed-over leader re-drive this prepared round against
      // participants that already rolled back.
      apply_and_log(AbortRecord{round.chain, round.route.id});
      after_quorum([this, round = std::move(round)]() mutable {
        for (const VnfId vnf : record(round.chain).spec.vnfs) {
          if (VnfController* controller = reachable(vnf)) {
            controller->abort(round.chain, round.route.id, state_.epoch);
            controller->release(round.chain, round.route.id, state_.epoch);
          }
        }
        round.done(Result<CreationReport>{
            ErrorCode::kUnavailable,
            "2PC commit: participant unreachable after retries"});
      });
      return;
    }
    // The backoff is read before the capture below moves the round.
    const sim::Duration backoff = retry_delay(round.rpc_retry++);
    later(backoff, [this, round = std::move(round)]() mutable {
      start_commit_round(std::move(round));
    });
    return;
  }
  round.report.events.push_back({"committed", context_.sim.now()});

  // The round is durable-committed from this point: replay re-applies the
  // route and recovery re-drives participant commits if needed.  The
  // commit moves the route into the chain before its record is appended,
  // so a snapshot cut by the append (or while the quorum barrier below is
  // pending) already holds it.
  apply_and_log(CommitRecord{round.chain, round.route.id});
  // Route weights rebalance equally (Fig. 10: the new route takes
  // an even share of new connections).  The engine's loads take the
  // per-route weight deltas instead of a full rebuild over every
  // active chain.
  const model::Chain& chain = context_.model.chain(round.chain);
  const double weight = 1.0 / static_cast<double>(rec->routes.size());
  const bool was_active = rec->active;
  rec->active = true;
  for (std::size_t i = 0; i < rec->routes.size(); ++i) {
    RouteRecord& r = rec->routes[i];
    const bool is_new = i + 1 == rec->routes.size();
    const double previous = was_active && !is_new ? r.weight : 0.0;
    te_.add_route_load(chain, r.vnf_sites, weight - previous);
    r.weight = weight;
  }

  // Acknowledgment — behind the quorum barrier: routes are published,
  // edge instances announced, readiness tracked, and `done` armed only
  // once a quorum of replicas has the commit record durable.
  after_quorum([this, round = std::move(round)]() mutable {
    const ChainRecord& committed = record(round.chain);
    publish_routes(committed);
    round.report.events.push_back({"routes_published", context_.sim.now()});

    // Edge controllers allocate + announce instances (Fig. 4 step 4).
    edge_controllers_[committed.spec.ingress_service.value()]
        ->announce_edge_instance(round.chain, committed.labels.egress_site,
                                 committed.ingress_site);
    edge_controllers_[committed.spec.egress_service.value()]
        ->announce_edge_instance(round.chain, committed.labels.egress_site,
                                 committed.egress_site);

    // Track readiness of every involved site.
    pending_.push_back(PendingActivation{
        round.chain, round.route.id, involved_sites(committed, round.route),
        std::move(round.report), std::move(round.done)});
#ifndef NDEBUG
    check_invariants();
#endif
  });
}

void GlobalSwitchboard::add_route(ChainId chain,
                                  const std::vector<SiteId>& preferred_vnf_sites,
                                  CreationCallback done) {
  const ChainRecord* rec = find_record(chain);
  if (rec == nullptr || !rec->active) {
    context_.sim.schedule(0, [done = std::move(done)] {
      done(Result<CreationReport>{ErrorCode::kNotFound,
                                  "chain not active"});
    });
    return;
  }

  CreationReport report;
  report.started = context_.sim.now();
  report.chain = chain;
  report.labels = rec->labels;
  report.events.push_back({"route_requested", context_.sim.now()});
  route_and_commit(Round{.chain = chain,
                         .report = std::move(report),
                         .done = std::move(done)},
                   preferred_vnf_sites);
}

void GlobalSwitchboard::check_invariants() const {
  // Structure (ids, allocator, stage counts, rounds) is the state's own
  // audit; weights and `active` are derived here.  Names are a human label
  // with no uniqueness contract (specs may leave them empty).
  state_.check_invariants();
  for (const ChainRecord& record : state_.chains) {
    double weight_sum = 0.0;
    for (const RouteRecord& route : record.routes) {
      SWB_CHECK(route.weight > 0.0 && route.weight <= 1.0 + 1e-9)
          << "chain " << record.id.value() << " route " << route.id.value()
          << " weight " << route.weight;
      weight_sum += route.weight;
    }
    if (record.active) {
      SWB_CHECK(!record.routes.empty())
          << "active chain " << record.id.value() << " has no routes";
      SWB_CHECK_LE(std::abs(weight_sum - 1.0), 1e-6)
          << "chain " << record.id.value() << " route weights sum to "
          << weight_sum;
      for (const VnfId vnf : record.spec.vnfs) {
        SWB_CHECK(vnf.value() < vnf_controllers_.size() &&
                  vnf_controllers_[vnf.value()] != nullptr)
            << "active chain " << record.id.value()
            << " uses unregistered vnf " << vnf.value();
      }
    }
  }

  for (const PendingActivation& pending : pending_) {
    const ChainRecord* record = find_record(pending.chain);
    SWB_CHECK(record != nullptr)
        << "pending activation for unknown chain " << pending.chain.value();
    // Drained activations are erased in on_route_ready, so a lingering
    // empty waiting set means a completion was lost.
    SWB_CHECK(!pending.waiting_sites.empty())
        << "pending activation for chain " << pending.chain.value()
        << " route " << pending.route.value() << " awaits no site";
    const bool route_known =
        std::any_of(record->routes.begin(), record->routes.end(),
                    [&](const RouteRecord& r) { return r.id == pending.route; });
    SWB_CHECK(route_known) << "pending activation for unknown route "
                           << pending.route.value();
  }

  for (const VnfController* controller : vnf_controllers_) {
    if (controller != nullptr) controller->check_invariants();
  }
  // The engine's loads are the sum of the committed routes' weight deltas;
  // they must match those routes re-accumulated from scratch.  (The
  // engine's own check_invariants() audits the DP routing it tracks, which
  // is empty here.)
  te_.loads().check_invariants();
  te::Loads rebuilt{context_.model};
  for (const ChainRecord& record : state_.chains) {
    if (!record.active) continue;
    for (const RouteRecord& route : record.routes) {
      rebuilt.add_route(context_.model.chain(record.id), route.vnf_sites,
                        route.weight);
    }
  }
  te_.loads().check_matches(rebuilt);
}

RecoveryReport GlobalSwitchboard::on_instance_down(VnfId vnf, SiteId site) {
  if (!up_) return RecoveryReport{};   // a dead coordinator reacts to nothing
  SB_LOG(kInfo) << "recovery: vnf " << vnf << " down at site " << site;
  // Remember the healthy capacity (first report only — a site death fans
  // out one report per pool, and repeats must not save the zeroed value)
  // so on_instance_up can undo the zeroing, across crashes.
  if (state_.dead_pools.count({vnf.value(), site.value()}) == 0) {
    const double capacity = context_.model.vnf(vnf).capacity_at(site);
    if (capacity > 0.0) apply_and_log(PoolDownRecord{vnf, site, capacity});
  }
  // The dead pool contributes no capacity until restored: route
  // computation (replacements and future chains) avoids the site, and a
  // participant prepare there votes abort.
  context_.model.set_vnf_site_capacity(vnf, site, 0.0);
  te_.invalidate_cost_cache();   // cached compute costs saw the old capacity
  // The recovery actions — the drain trigger (weight-0 instance
  // re-announcements that invalidate pinned flows) and the route
  // retirements — wait on the quorum barrier: a failed-over leader must
  // know the pool transition it is retiring routes for.  Without a gate
  // this runs synchronously and the report is returned to the caller;
  // behind a gate the report is empty (the actions settle later — the
  // detector's post-failover resync re-reports still-down pools, so a
  // dropped barrier self-heals).
  auto actions = [this, vnf, site]() -> RecoveryReport {
    if (VnfController* controller = reachable(vnf)) {
      controller->reannounce_instances(site);
    }
    return retire_routes(
        [vnf, site](const ChainRecord& record, const RouteRecord& route) {
          for (std::size_t z = 0; z < route.vnf_sites.size(); ++z) {
            if (record.spec.vnfs[z] == vnf && route.vnf_sites[z] == site) {
              return true;
            }
          }
          return false;
        });
  };
  if (quorum_gate_ == nullptr) return actions();
  after_quorum(actions);
  return RecoveryReport{};
}

std::optional<std::vector<SiteId>> GlobalSwitchboard::compute_route(
    ChainId chain_id, const Exclusions& excluded) {
  if (te_mode_ == TeMode::kSbLp && excluded.empty()) {
    te::LpRoutingOptions options;
    options.objective = te::LpObjective::kMaxThroughput;
    const te::LpRoutingResult lp = te_.refine_with_lp(options);
    if (lp.optimal()) {
      auto sites = te::primary_route_sites(context_.model, lp.routing,
                                           chain_id);
      if (sites) return sites;
    }
  }
  std::function<bool(VnfId, SiteId)> allowed;
  if (!excluded.empty()) {
    allowed = [&excluded](VnfId vnf, SiteId site) {
      return excluded.count({vnf.value(), site.value()}) == 0;
    };
  }
  const te::SingleRoute route =
      te_.find_route(context_.model.chain(chain_id), allowed);
  if (!route.found || route.admissible_fraction <= 0) return std::nullopt;
  // route.sites holds the ingress and egress endpoints too.
  return std::vector<SiteId>(route.sites.begin() + 1, route.sites.end() - 1);
}

RecoveryReport GlobalSwitchboard::retire_routes(
    const std::function<bool(const ChainRecord&, const RouteRecord&)>&
        doomed) {
  RecoveryReport report;
  for (ChainRecord& record : state_.chains) {
    if (!record.active) continue;
    std::vector<RouteRecord> removed;
    for (const RouteRecord& route : record.routes) {
      if (doomed(record, route)) removed.push_back(route);
    }
    if (removed.empty()) continue;
    ++report.affected_chains;
    const model::Chain& chain = context_.model.chain(record.id);

    for (const RouteRecord& route : removed) {
      ++report.routes_removed;
      report.rerouted_volume +=
          route.weight *
          (record.spec.forward_traffic + record.spec.reverse_traffic);

      // Weight-0 tombstone: Local Switchboards keep the route record (its
      // id may linger in flow pinnings) but stop steering traffic onto it.
      RouteAnnouncement tombstone = to_announcement(record, route);
      tombstone.weight = 0.0;
      context_.bus.publish(routes_topic(), serialize(tombstone));

      // Return the committed 2PC capacity at every reachable participant;
      // unreachable ones are reconciled when they come back
      // (reconcile_participant: the journal no longer owns the route).
      for (const VnfId vnf : record.spec.vnfs) {
        if (VnfController* controller = reachable(vnf)) {
          controller->release(record.id, route.id, state_.epoch);
        }
      }
      // Retiring drops the route from record.routes before the record is
      // appended, so a snapshot cut here no longer holds it.
      apply_and_log(RetireRecord{record.id, route.id});
      te_.add_route_load(chain, route.vnf_sites, -route.weight);

      // A failure racing activation: complete the waiting creation with an
      // error instead of leaving it stranded forever.
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].chain != record.id || pending_[i].route != route.id) {
          continue;
        }
        CreationCallback stranded = std::move(pending_[i].done);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        if (stranded) {
          stranded(Result<CreationReport>{
              ErrorCode::kUnavailable,
              "route retired by failure recovery during activation"});
        }
        break;
      }
    }

    if (!record.routes.empty()) {
      // Survivors split the chain's traffic evenly again; only the
      // affected chain's load deltas are applied (incremental re-solve).
      const double weight = 1.0 / static_cast<double>(record.routes.size());
      for (RouteRecord& route : record.routes) {
        te_.add_route_load(chain, route.vnf_sites, weight - route.weight);
        route.weight = weight;
      }
      publish_routes(record);
    } else {
      // The failure took the chain's last route: deactivate and request a
      // replacement through the normal compute + 2PC pipeline.
      record.active = false;
      ++report.replacements_requested;
      replace_route(record.id);
    }
  }
  SB_LOG(kInfo) << "recovery: " << report.routes_removed
                << " route(s) retired across " << report.affected_chains
                << " chain(s), " << report.replacements_requested
                << " replacement(s) requested";
#ifndef NDEBUG
  check_invariants();
#endif
  return report;
}

void GlobalSwitchboard::replace_route(ChainId chain) {
  CreationReport report;
  report.started = context_.sim.now();
  report.chain = chain;
  report.labels = record(chain).labels;
  report.events.push_back({"replacement_requested", context_.sim.now()});
  route_and_commit(Round{
      .chain = chain,
      .report = std::move(report),
      .done = [chain](Result<CreationReport> result) {
        if (result.ok()) {
          SB_LOG(kInfo) << "recovery: replacement route active for chain "
                        << chain;
        } else {
          SB_LOG(kWarn) << "recovery: replacement route failed for chain "
                        << chain << ": " << result.error().message;
        }
      }});
}

void GlobalSwitchboard::on_route_ready(ChainId chain, RouteId route,
                                       SiteId site) {
  if (!up_) return;   // readiness from the old incarnation is re-derived
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PendingActivation& pending = pending_[i];
    if (pending.chain != chain || pending.route != route) continue;
    pending.waiting_sites.erase(site.value());
    pending.report.events.push_back(
        {"site_" + std::to_string(site.value()) + "_ready",
         context_.sim.now()});
    if (!pending.waiting_sites.empty()) return;
    pending.report.completed = context_.sim.now();
    pending.report.events.push_back({"activated", context_.sim.now()});
    CreationCallback done = std::move(pending.done);
    CreationReport report = std::move(pending.report);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
#ifndef NDEBUG
    check_invariants();
#endif
    if (done) done(Result<CreationReport>{std::move(report)});
    return;
  }
}

// --- durability & crash-with-amnesia recovery ----------------------------

void GlobalSwitchboard::enable_durability(StateJournal* journal) {
  SWB_CHECK(journal != nullptr) << "enable_durability(nullptr)";
  journal_ = journal;
  // Persist the current state as the base snapshot so a crash before the
  // first journaled change still recovers the epoch and any pre-existing
  // chains.
  journal_->write_snapshot(state_.snapshot());
}

void GlobalSwitchboard::apply_and_log(JournalRecord change) {
  std::string line;
  if (journal_ != nullptr) line = encode_record(change);
  const Status applied = state_.apply(std::move(change));
  SWB_CHECK(applied.ok()) << "live change does not apply: "
                          << applied.error().message;
  if (journal_ == nullptr) return;
  journal_->append(line);
  // The replication stream taps every append, in order, right here.
  if (journal_observer_) journal_observer_(line);
  if (journal_->wants_snapshot()) {
    if (compaction_gate_) {
      // Replicated mode: the snapshot is first installed on a quorum of
      // followers; the gate calls compact_journal_now() on their ack.
      compaction_gate_();
    } else {
      journal_->write_snapshot(state_.snapshot());
    }
  }
}

void GlobalSwitchboard::set_journal_observer(
    std::function<void(const std::string&)> observer) {
  journal_observer_ = std::move(observer);
}

void GlobalSwitchboard::set_quorum_gate(
    std::function<void(std::function<void()>)> gate) {
  quorum_gate_ = std::move(gate);
}

void GlobalSwitchboard::set_compaction_gate(std::function<void()> gate) {
  compaction_gate_ = std::move(gate);
}

void GlobalSwitchboard::after_quorum(std::function<void()> resume) {
  if (quorum_gate_ == nullptr) {
    resume();   // single-controller mode: no barrier, identical timing
    return;
  }
  quorum_gate_([this, ep = state_.epoch, resume = std::move(resume)] {
    if (!up_ || ep != state_.epoch) return;   // a failover dropped it
    resume();
  });
}

void GlobalSwitchboard::later(sim::Duration delay, std::function<void()> fn) {
  context_.sim.schedule(delay, [this, ep = state_.epoch, fn = std::move(fn)] {
    if (!up_ || ep != state_.epoch) return;   // the scheduling incarnation died
    fn();
  });
}

VnfController* GlobalSwitchboard::reachable(VnfId vnf) const {
  if (vnf.value() >= vnf_controllers_.size()) return nullptr;
  VnfController* controller = vnf_controllers_[vnf.value()];
  return controller != nullptr && controller->up() ? controller : nullptr;
}

ControllerState::IdCheck GlobalSwitchboard::id_check() const {
  return [this](const JournalRecord& record) {
    const model::NetworkModel& model = context_.model;
    const auto node = [&](NodeId id) {
      return id.value() < model.topology().node_count();
    };
    const auto site = [&](SiteId id) {
      return id.value() < model.sites().size();
    };
    const auto vnf = [&](VnfId id) {
      return id.value() < model.vnfs().size() &&
             id.value() < vnf_controllers_.size() &&
             vnf_controllers_[id.value()] != nullptr;
    };
    const auto edge = [&](EdgeServiceId id) {
      return id.value() < edge_controllers_.size() &&
             edge_controllers_[id.value()] != nullptr;
    };
    return std::visit(
        [&](const auto& r) {
          using R = std::decay_t<decltype(r)>;
          if constexpr (std::is_same_v<R, ChainRecord>) {
            return r.id.value() < model.chains().size() &&
                   edge(r.spec.ingress_service) && node(r.spec.ingress_node) &&
                   edge(r.spec.egress_service) && node(r.spec.egress_node) &&
                   std::all_of(r.spec.vnfs.begin(), r.spec.vnfs.end(), vnf) &&
                   site(r.ingress_site) && site(r.egress_site);
          } else if constexpr (std::is_same_v<R, BeginRecord>) {
            return std::all_of(r.vnf_sites.begin(), r.vnf_sites.end(), site);
          } else if constexpr (std::is_same_v<R, PoolDownRecord> ||
                               std::is_same_v<R, PoolUpRecord>) {
            return vnf(r.vnf) && site(r.site);
          } else {
            return true;   // no id, or a round's (chain, route) pair
          }
        },
        record);
  };
}

void GlobalSwitchboard::compact_journal_now() {
  if (journal_ == nullptr) return;
  // Re-encode at call time: records appended while the replicated install
  // was in flight are part of the state by now, so truncation loses
  // nothing.
  journal_->write_snapshot(state_.snapshot());
}

ColdStartReport GlobalSwitchboard::cold_start() {
  SWB_CHECK(journal_ != nullptr) << "cold_start requires enable_durability";
  SB_LOG(kInfo) << "durability: cold start from journal '"
                << journal_->config().name << "'";
  // Amnesia: the state is rebuilt from the journal alone.  A record that
  // does not decode, names an id this controller cannot look up, or does
  // not apply is skipped and counted; replay goes on with the rest.
  ControllerState replayed;
  ColdStartReport report;
  const ControllerState::IdCheck known = id_check();
  for (const auto& lines :
       {journal_->snapshot_records(), journal_->log_records()}) {
    report.replayed_records += lines.size();
    report.rejected_records += replayed.apply_lines(lines, known);
  }
  report.replay_cost = static_cast<sim::Duration>(report.replayed_records) *
                       journal_->config().replay_cost_per_record;
  return restart(std::move(replayed), report);
}

ColdStartReport GlobalSwitchboard::warm_failover(StateJournal* journal,
                                                 ControllerState state) {
  SWB_CHECK(journal != nullptr);
  journal_ = journal;
  SB_LOG(kInfo) << "replication: warm failover onto journal '"
                << journal_->config().name << "'";
  // The promoted standby applied every record as it arrived: its state is
  // adopted as is — nothing is read back and no replay cost is charged.
  return restart(std::move(state), ColdStartReport{});
}

ColdStartReport GlobalSwitchboard::restart(ControllerState state,
                                           ColdStartReport report) {
  // Every volatile structure of the old incarnation is forgotten.
  state_ = std::move(state);
  pending_.clear();

  // Derived values: weights rebalance to the same 1/N the live path
  // maintains, a chain is active iff it has routes, and the engine's loads
  // are rebuilt from every active route, in chain then route order.
  te_.reset_loads();
  for (ChainRecord& record : state_.chains) {
    record.active = !record.routes.empty();
    if (record.routes.empty()) continue;
    const model::Chain& chain = context_.model.chain(record.id);
    const double weight = 1.0 / static_cast<double>(record.routes.size());
    for (RouteRecord& route : record.routes) {
      route.weight = weight;
      te_.add_route_load(chain, route.vnf_sites, weight);
    }
    report.routes_restored += record.routes.size();
  }
  report.chains_restored = state_.chains.size();

  // The new incarnation outranks everything the journal has seen; persist
  // the bump so a second crash recovers a still-higher epoch.
  up_ = true;
  apply_and_log(EpochRecord{state_.epoch + 1});
  report.epoch = state_.epoch;
  last_cold_start_ = report;

  // Charge the replay as simulated downtime, then resolve what the crash
  // interrupted and reconcile the participants.
  later(std::max<sim::Duration>(sim::Duration{1}, report.replay_cost),
        [this] { resolve_inflight_and_reconcile(); });
  SB_LOG(kInfo) << "durability: replayed " << report.replayed_records
                << " record(s) (" << report.rejected_records
                << " rejected), " << report.chains_restored << " chain(s), "
                << report.routes_restored << " route(s), new epoch "
                << state_.epoch;
  return report;
}

void GlobalSwitchboard::resolve_inflight_and_reconcile() {
  // Resolve every 2PC round the crash interrupted.  Prepared rounds hold
  // unanimous votes, so commit is the only outcome that cannot strand a
  // participant reservation; unprepared rounds abort (no participant may
  // have heard anything, and an abort for an unknown round is a no-op).
  const auto inflight = state_.inflight;   // resolution mutates it
  for (const auto& [key, round] : inflight) {
    const ChainId chain{key.first};
    const RouteId route_id{key.second};
    if (round.prepared) {
      ++last_cold_start_.redriven_commits;
      SB_LOG(kInfo) << "durability: re-driving commit for chain " << chain
                    << " route " << route_id;
      CreationReport report;
      report.started = context_.sim.now();
      report.chain = chain;
      report.route = route_id;
      start_commit_round(Round{
          .chain = chain,
          .route = RouteRecord{route_id, round.vnf_sites, 1.0},
          .report = std::move(report),
          .done = [chain, route_id](Result<CreationReport> result) {
            if (result.ok()) {
              SB_LOG(kInfo) << "durability: re-driven commit active for "
                            << "chain " << chain << " route " << route_id;
            } else {
              SB_LOG(kWarn) << "durability: re-driven commit failed for "
                            << "chain " << chain << " route " << route_id
                            << ": " << result.error().message;
            }
          }});
    } else {
      ++last_cold_start_.aborted_inflight;
      // A round only begins for a known chain.
      for (const VnfId vnf : record(chain).spec.vnfs) {
        if (VnfController* controller = reachable(vnf)) {
          controller->abort(chain, route_id, state_.epoch);
          ++last_cold_start_.reconciliation_messages;
        }
      }
      apply_and_log(AbortRecord{chain, route_id});
    }
  }

  // Reconciliation sweep: every reachable participant drops the 2PC state
  // the journal does not own — rounds aborted or routes retired whose
  // abort or release the crash swallowed.
  for (VnfController* controller : vnf_controllers_) {
    if (controller == nullptr || !controller->up()) continue;
    const std::size_t orphans = reconcile_participant(*controller);
    last_cold_start_.orphans_released += orphans;
    // The sweep query itself, then one abort or release per orphan.
    last_cold_start_.reconciliation_messages += 1 + orphans;
  }

  // Re-publish every active chain under the new epoch so the Local
  // Switchboards' fences advance and any stale-incarnation announcement
  // still in flight is rejected on arrival.
  for (const ChainRecord& record : state_.chains) {
    if (!record.active) continue;
    publish_routes(record);
    last_cold_start_.reconciliation_messages += record.routes.size();
  }
#ifndef NDEBUG
  check_invariants();
#endif
}

std::size_t GlobalSwitchboard::reconcile_participant(
    VnfController& controller) {
  const auto owned = [this](ChainId chain, RouteId route_id) {
    if (state_.inflight.count({chain.value(), route_id.value()}) > 0) {
      return true;
    }
    const ChainRecord* rec = find_record(chain);
    return rec != nullptr &&
           std::any_of(rec->routes.begin(), rec->routes.end(),
                       [&](const RouteRecord& r) { return r.id == route_id; });
  };
  std::size_t orphans = 0;
  for (const auto& [chain, route_id] : controller.pending_routes()) {
    if (owned(chain, route_id)) continue;
    SB_LOG(kInfo) << "reconcile: aborting orphaned reservation for chain "
                  << chain << " route " << route_id << " at vnf "
                  << controller.vnf();
    controller.abort(chain, route_id, state_.epoch);
    ++orphans;
  }
  for (const auto& [chain, route_id] : controller.committed_routes()) {
    if (owned(chain, route_id)) continue;
    SB_LOG(kInfo) << "reconcile: releasing orphaned capacity for chain "
                  << chain << " route " << route_id << " at vnf "
                  << controller.vnf();
    controller.release(chain, route_id, state_.epoch);
    ++orphans;
  }
  return orphans;
}

void GlobalSwitchboard::on_instance_up(VnfId vnf, SiteId site) {
  if (!up_) return;
  const auto it = state_.dead_pools.find({vnf.value(), site.value()});
  if (it == state_.dead_pools.end()) return;   // never seen down, or up
  SB_LOG(kInfo) << "recovery: vnf " << vnf << " back up at site " << site
                << ", restoring capacity " << it->second;
  context_.model.set_vnf_site_capacity(vnf, site, it->second);
  te_.invalidate_cost_cache();
  apply_and_log(PoolUpRecord{vnf, site});
  // Re-announce the pool so Local Switchboards rebalance onto it — behind
  // the quorum barrier, like the pool-down drain.
  after_quorum([this, vnf, site] {
    if (VnfController* controller = reachable(vnf)) {
      controller->reannounce_instances(site);
    }
  });
}

}  // namespace switchboard::control
