#include "control/vnf_controller.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::control {
namespace {

std::pair<std::uint32_t, std::uint32_t> key(ChainId chain, RouteId route) {
  return {chain.value(), route.value()};
}

/// The (chain, route) keys of a reservation map.
template <typename ReservationMap>
std::vector<std::pair<ChainId, RouteId>> route_keys(
    const ReservationMap& reservations) {
  std::vector<std::pair<ChainId, RouteId>> routes;
  routes.reserve(reservations.size());
  for (const auto& [chain_route, held] : reservations) {
    routes.emplace_back(ChainId{chain_route.first},
                        RouteId{chain_route.second});
  }
  return routes;
}

}  // namespace

VnfController::VnfController(ControlContext& context, VnfId vnf)
    : context_{context},
      vnf_{vnf},
      committed_load_(context.model.sites().size(), 0.0),
      pending_load_(context.model.sites().size(), 0.0) {}

bool VnfController::fenced(std::uint64_t epoch, const char* verb) {
  if (epoch < highest_epoch_) {
    ++stale_commands_rejected_;
    SB_LOG(kDebug) << "vnf " << vnf_ << ": fenced stale " << verb
                   << " from epoch " << epoch << " (highest "
                   << highest_epoch_ << ")";
    return true;
  }
  highest_epoch_ = epoch;
  return false;
}

bool VnfController::prepare(ChainId chain, RouteId route, SiteId site,
                            double load, std::size_t stage,
                            std::uint64_t epoch) {
  SWB_CHECK(load >= 0);
  SWB_CHECK(site.value() < committed_load_.size());
  // A fenced prepare is a no vote: the stale coordinator's round must die.
  if (fenced(epoch, "prepare")) return false;

  // Idempotent re-delivery: a (chain, route, stage) already reserved here
  // is a repeat of a prepare whose answer the coordinator missed — say
  // yes again without reserving twice.
  if (const auto it = pending_.find(key(chain, route)); it != pending_.end()) {
    for (const Reservation& r : it->second) {
      if (r.stage == stage) {
        SB_LOG(kDebug) << "vnf " << vnf_ << ": duplicate prepare for chain "
                       << chain << " route " << route << " stage " << stage;
        return true;
      }
    }
  }

  const double capacity = context_.model.vnf(vnf_).capacity_at(site);
  const double in_use =
      committed_load_[site.value()] + pending_load_[site.value()];
  if (in_use + load > capacity + 1e-9) {
    // Vote abort: resource shortage at this site.  Recording kAborted makes
    // a later commit of this route at this participant an illegal
    // transition — the coordinator must never commit past a no vote.
    two_phase_.transition(chain, route, TwoPhaseState::kAborted);
    return false;
  }
  two_phase_.transition(chain, route, TwoPhaseState::kPrepared);
  pending_load_[site.value()] += load;
  pending_[key(chain, route)].push_back(Reservation{site, load, stage});
  return true;
}

void VnfController::commit(ChainId chain, RouteId route,
                           std::uint32_t egress_label, std::uint64_t epoch) {
  if (fenced(epoch, "commit")) return;
  // A commit racing an abort (or a duplicated commit after one) finds
  // kAborted: the reservation is gone, so there is nothing to allocate —
  // reject-and-count, don't crash.  kIdle still dies below: a commit for
  // a route never prepared here is a coordinator bug, and the matrix
  // check is the loud failure we want.
  if (two_phase_.state(chain, route) == TwoPhaseState::kAborted) {
    const bool applied =
        two_phase_.try_transition(chain, route, TwoPhaseState::kCommitted);
    SWB_CHECK(!applied);
    SB_LOG(kDebug) << "vnf " << vnf_ << ": late commit for aborted chain "
                   << chain << " route " << route << " rejected";
    return;
  }
  // Legal only after a yes vote (kPrepared) or as an idempotent re-commit
  // (a chain using this VNF at two stages commits once per stage); a
  // commit while kIdle aborts here.
  two_phase_.transition(chain, route, TwoPhaseState::kCommitted);
  const auto it = pending_.find(key(chain, route));
  if (it == pending_.end()) return;
  for (const Reservation& r : it->second) {
    pending_load_[r.site.value()] -= r.load;
    committed_load_[r.site.value()] += r.load;

    // Publish the allocation (Fig. 4 step 4).
    const dataplane::ElementId instance = ensure_instance(r.site);
    announced_.insert({chain.value(), egress_label, r.site.value()});
    publish_instance(chain, egress_label, r.site, instance);
  }
  // Keep the reservations: release() needs them to return capacity when
  // the recovery path retires the route.
  auto& committed = committed_[key(chain, route)];
  committed.insert(committed.end(), it->second.begin(), it->second.end());
  pending_.erase(it);
}

void VnfController::abort(ChainId chain, RouteId route, std::uint64_t epoch) {
  if (fenced(epoch, "abort")) return;
  // Message duplication / coordinator retries make a late abort of an
  // already-committed route reachable: rejecting it (counted by the
  // tracker) protects the committed capacity accounting.  All other
  // illegal aborts still crash via the matrix below.
  if (two_phase_.state(chain, route) == TwoPhaseState::kCommitted) {
    const bool applied =
        two_phase_.try_transition(chain, route, TwoPhaseState::kAborted);
    SWB_CHECK(!applied);
    SB_LOG(kDebug) << "vnf " << vnf_ << ": late abort for committed chain "
                   << chain << " route " << route << " rejected";
    return;
  }
  // Legal from kIdle (abort of a route never seen here), kPrepared, or
  // kAborted (repeat).
  two_phase_.transition(chain, route, TwoPhaseState::kAborted);
  const auto it = pending_.find(key(chain, route));
  if (it == pending_.end()) return;
  for (const Reservation& r : it->second) {
    pending_load_[r.site.value()] -= r.load;
  }
  pending_.erase(it);
}

void VnfController::release(ChainId chain, RouteId route,
                            std::uint64_t epoch) {
  if (fenced(epoch, "release")) return;
  const auto it = committed_.find(key(chain, route));
  if (it == committed_.end()) return;
  for (const Reservation& r : it->second) {
    committed_load_[r.site.value()] -= r.load;
  }
  committed_.erase(it);
}

std::vector<std::pair<ChainId, RouteId>> VnfController::pending_routes()
    const {
  return route_keys(pending_);
}

std::vector<std::pair<ChainId, RouteId>> VnfController::committed_routes()
    const {
  return route_keys(committed_);
}

double VnfController::allocated(SiteId site) const {
  SWB_CHECK(site.value() < committed_load_.size());
  return committed_load_[site.value()] + pending_load_[site.value()];
}

double VnfController::headroom(SiteId site) const {
  return context_.model.vnf(vnf_).capacity_at(site) - allocated(site);
}

void VnfController::publish_instance(ChainId chain,
                                     std::uint32_t egress_label, SiteId site,
                                     dataplane::ElementId instance) {
  InstanceAnnouncement announcement;
  announcement.instance = instance;
  const ElementInfo& info = context_.elements.info(instance);
  announcement.forwarder = info.attached_forwarder;
  announcement.weight = info.up ? info.weight : 0.0;
  const bus::Topic topic = bus::instances_topic(chain, egress_label, vnf_,
                                                site);
  context_.sim.schedule(context_.timings.controller_processing,
                        [this, topic, announcement] {
                          context_.bus.publish(topic,
                                               serialize(announcement));
                        });
}

std::vector<dataplane::ElementId> VnfController::scale_instances(
    SiteId site, std::size_t count) {
  std::vector<dataplane::ElementId> created;
  const auto existing = context_.elements.vnf_instances_at(site, vnf_);
  if (existing.size() >= count) return created;

  // All instances of a VNF at a site share the VNF's forwarder (Fig. 5);
  // bootstrap via ensure_instance if none exists yet.
  const dataplane::ElementId first = ensure_instance(site);
  const dataplane::ElementId forwarder =
      context_.elements.info(first).attached_forwarder;
  while (context_.elements.vnf_instances_at(site, vnf_).size() < count) {
    created.push_back(context_.elements.create_vnf_instance(
        site, vnf_, forwarder, /*weight=*/1.0,
        context_.model.vnf(vnf_).capacity_at(site)));
  }
  reannounce_instances(site);
  return created;
}

void VnfController::reannounce_instances(SiteId site) {
  // Announce the whole pool, current weights (0 when down), on every
  // committed chain topic at the site so Local Switchboards rebuild their
  // weighted rules.
  for (const auto& [chain_raw, egress_label, site_raw] : announced_) {
    if (site_raw != site.value()) continue;
    const ChainId chain{chain_raw};
    for (const dataplane::ElementId instance :
         context_.elements.vnf_instances_at(site, vnf_)) {
      publish_instance(chain, egress_label, site, instance);
    }
  }
}

void VnfController::check_invariants() const {
  SWB_CHECK_EQ(committed_load_.size(), pending_load_.size());
  for (std::size_t s = 0; s < committed_load_.size(); ++s) {
    SWB_CHECK(std::isfinite(committed_load_[s])) << "site " << s;
    SWB_CHECK(std::isfinite(pending_load_[s])) << "site " << s;
    SWB_CHECK_GE(committed_load_[s], -1e-9) << "site " << s;
    SWB_CHECK_GE(pending_load_[s], -1e-9) << "site " << s;
  }
  // Each site's pending load is exactly the sum of outstanding
  // reservations there — a mismatch means a reservation was dropped or
  // double-released on some commit/abort path.
  std::vector<double> expected(pending_load_.size(), 0.0);
  for (const auto& [chain_route, reservations] : pending_) {
    SWB_CHECK(!reservations.empty())
        << "empty reservation list for chain " << chain_route.first
        << " route " << chain_route.second;
    // kAborted is transiently legal here: a no vote at a later stage of an
    // already-prepared route leaves the earlier reservation parked until
    // the coordinator's abort() releases it.  kIdle or kCommitted with
    // live reservations means a bookkeeping path leaked.
    const TwoPhaseState state = two_phase_.state(ChainId{chain_route.first},
                                                 RouteId{chain_route.second});
    SWB_CHECK(state == TwoPhaseState::kPrepared ||
              state == TwoPhaseState::kAborted)
        << "reservations for chain " << chain_route.first << " route "
        << chain_route.second << " held in state " << to_string(state);
    for (const Reservation& r : reservations) {
      SWB_CHECK_LT(r.site.value(), expected.size());
      SWB_CHECK(std::isfinite(r.load) && r.load >= 0.0);
      expected[r.site.value()] += r.load;
    }
  }
  for (std::size_t s = 0; s < pending_load_.size(); ++s) {
    SWB_CHECK_LE(std::abs(pending_load_[s] - expected[s]),
                 1e-6 * std::max(1.0, expected[s]))
        << "site " << s << " pending load drifted from its reservations";
  }
  // Mirror audit for the committed side: committed load per site equals
  // the sum of committed reservations (release() and commit() are the
  // only writers).
  std::vector<double> committed_expected(committed_load_.size(), 0.0);
  for (const auto& [chain_route, reservations] : committed_) {
    SWB_CHECK_EQ(
        static_cast<int>(two_phase_.state(ChainId{chain_route.first},
                                          RouteId{chain_route.second})),
        static_cast<int>(TwoPhaseState::kCommitted))
        << "committed reservations for chain " << chain_route.first
        << " route " << chain_route.second << " not in kCommitted";
    for (const Reservation& r : reservations) {
      SWB_CHECK_LT(r.site.value(), committed_expected.size());
      committed_expected[r.site.value()] += r.load;
    }
  }
  for (std::size_t s = 0; s < committed_load_.size(); ++s) {
    SWB_CHECK_LE(std::abs(committed_load_[s] - committed_expected[s]),
                 1e-6 * std::max(1.0, committed_expected[s]))
        << "site " << s << " committed load drifted from its reservations";
  }
  // Every kPrepared pair holds reservations (prepare() records both
  // atomically), so the prepared population cannot exceed the pending map.
  SWB_CHECK_LE(two_phase_.count(TwoPhaseState::kPrepared), pending_.size());
  two_phase_.check_invariants();
}

dataplane::ElementId VnfController::ensure_instance(SiteId site) {
  const auto existing = context_.elements.vnf_instances_at(site, vnf_);
  if (!existing.empty()) return existing.front();
  // Each service gets its own forwarder at a site: a forwarder fronting
  // two different services of the same chain could not disambiguate which
  // next hop a returning packet needs (rules are keyed by labels only).
  const dataplane::ElementId forwarder =
      context_.elements.create_forwarder(site);
  return context_.elements.create_vnf_instance(
      site, vnf_, forwarder, /*weight=*/1.0,
      /*capacity=*/context_.model.vnf(vnf_).capacity_at(site));
}

}  // namespace switchboard::control
