#include "control/anycast.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::control {

AnycastRouter::AnycastRouter(ControlContext& context, SiteId site,
                             AnycastConfig config)
    : context_{context}, site_{site}, config_{config} {
  SWB_CHECK(config_.announce_period > 0) << "announce period must be positive";
  SWB_CHECK_GE(config_.stale_after_periods, 1U);
  SWB_CHECK_GE(config_.hop_budget, 1U);
}

void AnycastRouter::start() {
  if (started_) return;
  started_ = true;
  for (const model::CloudSite& peer : context_.model.sites()) {
    if (peer.id == site_) continue;
    context_.bus.subscribe(
        site_, bus::anycast_topic(peer.id, site_),
        [this, from = peer.id](const bus::Message& m) {
          const auto announcement = parse_anycast(m.payload);
          if (announcement.has_value()) {
            on_announcement(from, *announcement);
          } else {
            SB_LOG(kWarn) << "anycast site " << site_
                          << ": bad announcement payload";
          }
        });
  }
}

void AnycastRouter::start_announcing() {
  SWB_CHECK(started_) << "start() the router before announcing";
  if (announcing_) return;
  announcing_ = true;
  publish_announcement();
}

void AnycastRouter::stop_announcing() {
  announcing_ = false;
  if (announce_event_.valid()) {
    context_.sim.cancel(announce_event_);
    announce_event_ = sim::EventHandle{};
  }
}

void AnycastRouter::publish_announcement() {
  if (!announcing_) return;
  // A crashed router stays silent (its peers age its entries out) but
  // keeps ticking so announcements resume on restore.
  if (up_) {
    const AnycastAnnouncement announcement = local_announcement();
    record("announce seq=" + std::to_string(announcement.seq));
    flood(announcement, /*except=*/site_);
  }
  announce_event_ = context_.sim.schedule(config_.announce_period,
                                          [this] { publish_announcement(); });
}

AnycastAnnouncement AnycastRouter::local_announcement() {
  AnycastAnnouncement announcement;
  announcement.origin = site_;
  announcement.seq = ++seq_;
  for (const model::Vnf& vnf : context_.model.vnfs()) {
    const std::vector<dataplane::ElementId> pool =
        context_.elements.vnf_instances_at(site_, vnf.id);
    if (pool.empty()) continue;   // nothing allocated here (yet)
    AnycastVnfEntry entry;
    entry.vnf = vnf.id;
    for (const dataplane::ElementId id : pool) {
      const ElementInfo& info = context_.elements.info(id);
      if (!info.up) continue;
      ++entry.live_instances;
      entry.residual_capacity +=
          info.capacity > 0.0 ? info.capacity : info.weight;
    }
    announcement.entries.push_back(entry);
  }
  return announcement;
}

void AnycastRouter::flood(const AnycastAnnouncement& announcement,
                          SiteId except) {
  const bool relaying = announcement.origin != site_;
  for (const model::CloudSite& peer : context_.model.sites()) {
    if (peer.id == site_ || peer.id == except ||
        peer.id == announcement.origin) {
      continue;
    }
    AnycastAnnouncement copy = announcement;
    copy.path_delay_ms += context_.model.delay_ms(
        context_.model.site(site_).node, context_.model.site(peer.id).node);
    context_.bus.publish(bus::anycast_topic(site_, peer.id), serialize(copy));
    if (relaying) {
      ++refloods_;
    } else {
      ++announcements_sent_;
    }
  }
}

void AnycastRouter::on_announcement(SiteId from_neighbor,
                                    const AnycastAnnouncement& announcement) {
  // A crashed router processes nothing; the entries it misses while down
  // are refreshed by the first flood after restore.
  if (!up_) return;
  if (announcement.origin == site_) return;   // an echo of our own flood
  PeerState& state = table_[announcement.origin.value()];
  if (announcement.seq <= state.seq) {
    // Split horizon + dedup: an (origin, seq) we already accepted arrived
    // over another flooding path.  Dropping it here is what terminates the
    // flood on cyclic site graphs.
    ++duplicates_dropped_;
    return;
  }
  state.seq = announcement.seq;
  state.heard = context_.sim.now();
  state.path_delay_ms = announcement.path_delay_ms;
  state.pools.clear();
  std::ostringstream pools;
  for (const AnycastVnfEntry& entry : announcement.entries) {
    state.pools[entry.vnf.value()] =
        AnycastPoolView{entry.live_instances, entry.residual_capacity};
    pools << " f" << entry.vnf.value() << "=" << entry.live_instances;
  }
  ++announcements_received_;
  record("recv origin=" + std::to_string(announcement.origin.value()) +
         " seq=" + std::to_string(announcement.seq) + " via=" +
         std::to_string(from_neighbor.value()) + pools.str());
  flood(announcement, /*except=*/from_neighbor);
}

void AnycastRouter::learn_route(const RouteAnnouncement& announcement) {
  ChainInfo& info = chains_[announcement.chain.value()];
  info.chain = announcement.chain;
  info.labels =
      dataplane::Labels{announcement.chain_label, announcement.egress_label};
  info.ingress_site = announcement.ingress_site;
  info.egress_site = announcement.egress_site;
  for (const RouteHop& hop : announcement.hops) {
    SWB_CHECK_GE(hop.stage, std::size_t{1});
    if (hop.stage > info.vnfs.size()) info.vnfs.resize(hop.stage);
    info.vnfs[hop.stage - 1] = hop.vnf;
  }
  record("learn chain=" + std::to_string(announcement.chain.value()) +
         " route=" + std::to_string(announcement.route.value()));
}

const AnycastRouter::ChainInfo* AnycastRouter::chain_info(
    ChainId chain) const {
  const auto it = chains_.find(chain.value());
  return it == chains_.end() ? nullptr : &it->second;
}

bool AnycastRouter::entry_fresh(const PeerState& state) const {
  return context_.sim.now() - state.heard <= stale_after();
}

std::optional<AnycastPoolView> AnycastRouter::pool_view(SiteId site,
                                                        VnfId vnf) const {
  if (site == site_) {
    // Local liveness reads the registry directly — the same ground truth
    // the site's heartbeats export to the FailureDetector.
    AnycastPoolView view;
    for (const dataplane::ElementId id :
         context_.elements.vnf_instances_at(site_, vnf)) {
      const ElementInfo& info = context_.elements.info(id);
      if (!info.up) continue;
      ++view.live_instances;
      view.residual_capacity +=
          info.capacity > 0.0 ? info.capacity : info.weight;
    }
    return view;
  }
  const auto it = table_.find(site.value());
  if (it == table_.end() || !entry_fresh(it->second)) return std::nullopt;
  const auto pool = it->second.pools.find(vnf.value());
  if (pool == it->second.pools.end()) return std::nullopt;
  return pool->second;
}

std::optional<SiteId> AnycastRouter::next_site(VnfId vnf, SiteId here,
                                               std::uint64_t visited_mask,
                                               const std::string& tag) {
  struct Candidate {
    double delay_ms;
    double residual;
    std::uint32_t site;
  };
  std::vector<Candidate> candidates;
  const NodeId here_node = context_.model.site(here).node;
  for (const model::CloudSite& site : context_.model.sites()) {
    const std::uint32_t s = site.id.value();
    // The visited-set is the loop guard: a packet never re-enters a site
    // it left.  The current site's own bit is exempt — serving the next
    // stage locally is not a revisit.
    if (site.id != here && s < dataplane::kMaxAnycastSites &&
        (visited_mask & (std::uint64_t{1} << s)) != 0) {
      continue;
    }
    const std::optional<AnycastPoolView> view = pool_view(site.id, vnf);
    if (!view.has_value() || view->live_instances == 0) continue;
    candidates.push_back(
        Candidate{context_.model.delay_ms(here_node, site.node),
                  view->residual_capacity, s});
  }
  // Nearest live instance wins; residual capacity breaks delay ties
  // (load-aware), site id breaks exact ties (deterministic).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.delay_ms != b.delay_ms) return a.delay_ms < b.delay_ms;
              if (a.residual != b.residual) return a.residual > b.residual;
              return a.site < b.site;
            });
  std::ostringstream line;
  line << "steer " << tag << " vnf=" << vnf.value() << " here="
       << here.value() << " cands=" << candidates.size() << " -> ";
  if (candidates.empty()) {
    line << "none";
    record(line.str());
    return std::nullopt;
  }
  line << candidates.front().site;
  record(line.str());
  return SiteId{candidates.front().site};
}

void AnycastRouter::record(std::string line) {
  const sim::SimTime now = context_.sim.now();
  SWB_CHECK_GE(now, last_trace_at_);
  last_trace_at_ = now;
  trace_.push_back("t=" + std::to_string(now) + " s" +
                   std::to_string(site_.value()) + " " + std::move(line));
}

std::string AnycastRouter::trace_string() const {
  std::string out;
  for (const std::string& line : trace_) {
    out += line;
    out += '\n';
  }
  return out;
}

std::uint64_t AnycastRouter::trace_digest() const {
  // FNV-1a from a seed one digit short of its offset basis
  // (14695981039346656037); pinned trace digests depend on this seed.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const std::string& line : trace_) {
    for (const char c : line) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    hash ^= static_cast<unsigned char>('\n');
    hash *= 1099511628211ULL;
  }
  return hash;
}

void AnycastRouter::check_invariants() const {
  for (const auto& [origin, state] : table_) {
    SWB_CHECK(origin != site_.value())
        << "anycast table holds an entry for its own site";
    SWB_CHECK_LE(state.heard, context_.sim.now());
    SWB_CHECK_GE(state.seq, std::uint64_t{1});
    SWB_CHECK_GE(state.path_delay_ms, 0.0);
  }
  for (const auto& [id, info] : chains_) {
    SWB_CHECK_EQ(info.chain.value(), id);
    for (const VnfId vnf : info.vnfs) {
      SWB_CHECK_LT(vnf.value(), context_.model.vnfs().size())
          << "learned chain references an unknown VNF";
    }
  }
  SWB_CHECK_LE(last_trace_at_, context_.sim.now());
}

}  // namespace switchboard::control
