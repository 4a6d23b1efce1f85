#include "te/te_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

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
  // Term by term the uncached edge cost of the test reference, so the
  // results stay bit-identical to it.
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

SingleRoute TeEngine::find_route(
    const model::Chain& chain,
    const std::function<bool(VnfId, SiteId)>& allowed) {
  loads_.grow_to_model();
  if (!allowed) {
    return find_single_route(model_, chain, loads_, options_, cache_,
                             scratch_);
  }
  DpOptions options = options_;
  options.site_allowed = allowed;
  return find_single_route(model_, chain, loads_, options, cache_, scratch_);
}

void TeEngine::add_route_load(const model::Chain& chain,
                              const std::vector<SiteId>& vnf_sites,
                              double weight_delta) {
  if (weight_delta == 0.0) return;
  loads_.grow_to_model();
  loads_.add_route(chain, vnf_sites, weight_delta);
}

LpRoutingResult TeEngine::refine_with_lp(LpRoutingOptions options) {
  if (options.warm_start == nullptr && !warm_basis_.empty()) {
    // Replay the last optimal basis.  solve_simplex validates the
    // dimensions itself, so a model-shape change degrades to a cold solve
    // instead of an error.
    options.warm_start = &warm_basis_;
  }
  LpRoutingResult result = solve_lp_routing(model_, options);
  if (result.optimal()) warm_basis_ = result.basis;
  return result;
}

}  // namespace switchboard::te
