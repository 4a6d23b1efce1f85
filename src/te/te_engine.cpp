#include "te/te_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "te/evaluator.hpp"

namespace switchboard::te {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

// --- DpScratch -------------------------------------------------------------

void DpScratch::ensure_sized(const model::NetworkModel& model) {
  const std::size_t links = model.topology().link_count();
  const std::size_t sites = model.sites().size();
  const std::size_t vnf_sites = model.vnfs().size() * sites;
  if (link_demand.size() != links) link_demand.assign(links, 0.0);
  if (site_demand.size() != sites) site_demand.assign(sites, 0.0);
  if (vnf_site_demand.size() != vnf_sites) {
    vnf_site_demand.assign(vnf_sites, 0.0);
  }
}

// --- EdgeCostCache ---------------------------------------------------------

void EdgeCostCache::bind(const model::NetworkModel& model,
                         const Loads& loads) {
  const std::size_t n = model.topology().node_count();
  const std::size_t site_count = model.sites().size();
  const std::size_t vnf_sites = model.vnfs().size() * site_count;
  // A version that went backwards means `loads` is a different object that
  // happens to live at a previously-bound address.
  const bool rebound = model_ != &model || loads_ != &loads ||
                       loads.version() < bound_version_;
  const bool resized = n != n_ || site_count != site_count_ ||
                       pair_.size() != n * n ||
                       vnf_site_.size() != vnf_sites;
  model_ = &model;
  loads_ = &loads;
  bound_version_ = std::max(bound_version_, loads.version());
  if (rebound || resized) {
    n_ = n;
    site_count_ = site_count;
    pair_.assign(n * n, Entry{});
    vnf_site_.assign(vnf_sites, Entry{});
    bound_version_ = loads.version();
  }
}

void EdgeCostCache::invalidate() {
  for (Entry& entry : pair_) entry = Entry{entry.value, 0, 0};
  for (Entry& entry : vnf_site_) entry = Entry{entry.value, 0, 0};
}

double EdgeCostCache::edge_cost(const model::NetworkModel& model,
                                const Loads& loads, const DpOptions& options,
                                NodeId n1, NodeId n2, VnfId dst_vnf,
                                SiteId dst_site) {
  SWB_DCHECK(model_ == &model && loads_ == &loads);
  // Mirrors stage_edge_cost() term by term so results stay bit-identical.
  double cost = model.delay_ms(n1, n2);
  if (!std::isfinite(cost)) return kInf;
  if (!options.use_utilization_costs) return cost;

  if (n1 != n2) {
    cost += kNetworkCostWeight * network_term(model, loads, n1, n2);
  }
  if (dst_vnf.valid()) {
    cost += kComputeCostWeight * compute_term(loads, dst_vnf, dst_site);
  }
  return cost;
}

double EdgeCostCache::network_term(const model::NetworkModel& model,
                                   const Loads& loads, NodeId n1, NodeId n2) {
  Entry& entry =
      pair_[static_cast<std::size_t>(n1.value()) * n_ + n2.value()];
  const std::uint64_t version = loads.version();
  // Fast path: validated once already since the last loads mutation.
  if (entry.stamp != 0 && entry.checked == version) {
    ++hits_;
    return entry.value;
  }
  const std::span<const net::LinkShare> shares =
      model.routing().link_shares(n1, n2);

  // Valid iff no link of the pair's footprint changed since the stamp.
  bool valid = entry.stamp != 0;
  if (valid) {
    const std::vector<std::uint64_t>& epochs = loads.link_epochs();
    for (const net::LinkShare& share : shares) {
      if (epochs[share.link.value()] > entry.stamp) {
        valid = false;
        break;
      }
    }
  }
  if (valid) {
    ++hits_;
    entry.checked = version;
    return entry.value;
  }
  ++misses_;
  const UtilizationCost& phi = fortz_thorup();
  double network = 0.0;
  for (const net::LinkShare& share : shares) {
    network += share.fraction *
               phi(std::max(0.0, loads.link_utilization(share.link)));
  }
  entry.value = network;
  entry.stamp = version;
  entry.checked = version;
  return network;
}

double EdgeCostCache::compute_term(const Loads& loads, VnfId f, SiteId s) {
  Entry& entry =
      vnf_site_[static_cast<std::size_t>(f.value()) * site_count_ +
                s.value()];
  if (entry.stamp != 0 && loads.vnf_site_epoch(f, s) <= entry.stamp) {
    ++hits_;
    return entry.value;
  }
  ++misses_;
  entry.value =
      fortz_thorup()(std::max(0.0, loads.vnf_site_utilization(f, s)));
  entry.stamp = loads.version();
  return entry.value;
}

// --- TeEngine --------------------------------------------------------------

TeEngine::TeEngine(const model::NetworkModel& model, DpOptions options)
    : model_{model}, options_{std::move(options)}, loads_{model} {}

const DpResult& TeEngine::solve() {
  loads_.reset();
  cache_.invalidate();   // the model may have changed under us
  result_ = DpResult{};
  result_.routing.resize(model_.chains().size());
  routed_fraction_.assign(model_.chains().size(), kUntracked);

  const TeContext ctx{&cache_, &scratch_};
  for (const model::Chain& chain : model_.chains()) {
    result_.routing.init_chain(chain.id, chain.stage_count());
    result_.demand_volume += chain.total_traffic();
    const double routed =
        route_chain_dp(model_, chain, loads_, result_.routing, options_, ctx);
    routed_fraction_[chain.id.value()] = routed;
    result_.routed_volume += routed * chain.total_traffic();
    if (routed >= 1.0 - 1e-9) {
      ++result_.fully_routed_chains;
    } else if (routed <= 1e-9) {
      ++result_.unrouted_chains;
    }
  }
  return result_;
}

double TeEngine::route_tracked_chain(ChainId c) {
  loads_.grow_to_model();
  const model::Chain& chain = model_.chain(c);
  const TeContext ctx{&cache_, &scratch_};
  const double routed =
      route_chain_dp(model_, chain, loads_, result_.routing, options_, ctx);
  routed_fraction_[c.value()] = routed;
  return routed;
}

double TeEngine::add_chain(ChainId c) {
  SWB_CHECK(c.valid() && c.value() < model_.chains().size());
  if (routed_fraction_.size() < model_.chains().size()) {
    routed_fraction_.resize(model_.chains().size(), kUntracked);
  }
  SWB_CHECK(!tracks_chain(c)) << "chain " << c << " already routed";
  if (result_.routing.chain_count() < model_.chains().size()) {
    result_.routing.resize(model_.chains().size());
  }
  result_.routing.init_chain(c, model_.chain(c).stage_count());
  const double routed = route_tracked_chain(c);
  refresh_summary();
  return routed;
}

void TeEngine::remove_chain(ChainId c) {
  SWB_CHECK(tracks_chain(c)) << "chain " << c << " not routed";
  loads_.grow_to_model();
  const model::Chain& chain = model_.chain(c);
  for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
    for (const StageFlow& flow : result_.routing.flows(c, z)) {
      loads_.add_stage_flow(chain, z, flow.src, flow.dst, -flow.fraction);
    }
  }
  result_.routing.clear_chain(c);
  routed_fraction_[c.value()] = kUntracked;
  refresh_summary();
}

double TeEngine::reroute_chain(ChainId c) {
  remove_chain(c);
  return add_chain(c);
}

SingleRoute TeEngine::find_route(
    const model::Chain& chain,
    const std::function<bool(VnfId, SiteId)>& allowed) {
  loads_.grow_to_model();
  const TeContext ctx{&cache_, &scratch_};
  if (!allowed) {
    return find_single_route(model_, chain, loads_, options_, 1.0, ctx);
  }
  DpOptions options = options_;
  options.site_allowed = allowed;
  return find_single_route(model_, chain, loads_, options, 1.0, ctx);
}

void TeEngine::add_route_load(const model::Chain& chain,
                              const std::vector<SiteId>& vnf_sites,
                              double weight_delta) {
  if (weight_delta == 0.0) return;
  loads_.grow_to_model();
  loads_.add_route(chain, vnf_sites, weight_delta);
}

std::size_t TeEngine::on_link_capacity_changed(LinkId link) {
  cache_.invalidate();   // utilizations shifted under every cached term
  std::vector<ChainId> affected;
  for (const model::Chain& chain : model_.chains()) {
    if (!tracks_chain(chain.id)) continue;
    if (routed_fraction_[chain.id.value()] < 1.0 - 1e-9 ||
        chain_crosses_link(chain.id, link)) {
      affected.push_back(chain.id);
    }
  }
  return reroute_affected(affected);
}

std::size_t TeEngine::on_vnf_site_capacity_changed(VnfId f, SiteId s) {
  cache_.invalidate();
  std::vector<ChainId> affected;
  for (const model::Chain& chain : model_.chains()) {
    if (!tracks_chain(chain.id)) continue;
    if (routed_fraction_[chain.id.value()] < 1.0 - 1e-9 ||
        chain_places_vnf_at(chain.id, f, s)) {
      affected.push_back(chain.id);
    }
  }
  return reroute_affected(affected);
}

std::size_t TeEngine::reroute_affected(const std::vector<ChainId>& affected) {
  // Free every affected chain's resources first, then re-route in id
  // order — the same order a full re-solve would visit them.
  for (const ChainId c : affected) remove_chain(c);
  for (const ChainId c : affected) {
    result_.routing.init_chain(c, model_.chain(c).stage_count());
    route_tracked_chain(c);
  }
  refresh_summary();
  return affected.size();
}

void TeEngine::refresh_summary() {
  result_.demand_volume = 0.0;
  result_.routed_volume = 0.0;
  result_.fully_routed_chains = 0;
  result_.unrouted_chains = 0;
  // Accumulate in chain-id order: the same term order as solve(), so the
  // sums match a full solve bit for bit when the fractions do.
  for (const model::Chain& chain : model_.chains()) {
    if (!tracks_chain(chain.id)) continue;
    const double routed = routed_fraction_[chain.id.value()];
    result_.demand_volume += chain.total_traffic();
    result_.routed_volume += routed * chain.total_traffic();
    if (routed >= 1.0 - 1e-9) {
      ++result_.fully_routed_chains;
    } else if (routed <= 1e-9) {
      ++result_.unrouted_chains;
    }
  }
}

bool TeEngine::tracks_chain(ChainId c) const {
  return c.valid() && c.value() < routed_fraction_.size() &&
         routed_fraction_[c.value()] != kUntracked;
}

bool TeEngine::chain_crosses_link(ChainId c, LinkId link) const {
  const model::Chain& chain = model_.chain(c);
  for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
    for (const StageFlow& flow : result_.routing.flows(c, z)) {
      if (flow.src == flow.dst) continue;
      for (const net::LinkShare& share :
           model_.routing().link_shares(flow.src, flow.dst)) {
        if (share.link == link) return true;
      }
      // Reverse-direction stage traffic crosses the opposite pair.
      for (const net::LinkShare& share :
           model_.routing().link_shares(flow.dst, flow.src)) {
        if (share.link == link) return true;
      }
    }
  }
  return false;
}

bool TeEngine::chain_places_vnf_at(ChainId c, VnfId f, SiteId s) const {
  const model::Chain& chain = model_.chain(c);
  const NodeId site_node = model_.site(s).node;
  for (std::size_t z = 1; z < chain.stage_count(); ++z) {
    if (chain.vnfs[z - 1] != f) continue;
    for (const StageFlow& flow : result_.routing.flows(c, z)) {
      if (flow.dst == site_node) return true;
    }
  }
  return false;
}

void TeEngine::check_invariants(double tolerance) const {
  loads_.grow_to_model();
  loads_.check_invariants(tolerance);
  result_.routing.check_invariants(tolerance);
  // The incrementally-maintained loads must match the loads re-accumulated
  // from the routing solution (drift here means a remove/re-add desynced).
  loads_.check_matches(accumulate_loads(model_, result_.routing), tolerance);
}

const LpRoutingResult& TeEngine::refine_with_lp(LpRoutingOptions options) {
  if (options.warm_start == nullptr && !warm_basis_.empty()) {
    // Replay the last optimal basis.  solve_simplex validates the
    // dimensions itself, so a model-shape change degrades to a cold solve
    // instead of an error.
    options.warm_start = &warm_basis_;
  }
  lp_result_ = solve_lp_routing(model_, options);
  if (lp_result_.optimal()) warm_basis_ = lp_result_.basis;
  return lp_result_;
}

}  // namespace switchboard::te
