#include "te/dp_routing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "te/te_engine.hpp"

namespace switchboard::te {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Residual re-routing rounds per chain.
constexpr std::size_t kMaxRoutesPerChain = 8;
/// Smallest admissible fraction of a chain per route.
constexpr double kMinFraction = 1e-4;

/// Full-chain DP (Eq. 8) or greedy per-hop (ONEHOP ablation).  On success
/// leaves the route in scratch.route_nodes / scratch.route_sites
/// (position 0 = ingress, position stage_count() = egress).
bool find_route(const model::NetworkModel& model, const Loads& loads,
                const model::Chain& chain, const DpOptions& opt,
                DpScratch& scratch, EdgeCostCache& cache) {
  const std::size_t stages = chain.stage_count();
  scratch.route_nodes.clear();
  scratch.route_sites.clear();

  // Per stage z (1..K+1), candidate destinations with positive headroom
  // (same order as model.stage_destinations: VNF deployment order).
  if (scratch.dests.size() < stages + 1) scratch.dests.resize(stages + 1);
  for (std::size_t z = 1; z <= stages; ++z) {
    auto& dests = scratch.dests[z];
    dests.clear();
    if (z == stages) {
      dests.push_back(model::StageEndpoint{chain.egress, SiteId{}});
    } else {
      const VnfId f = chain.vnfs[z - 1];
      for (const model::VnfDeployment& dep : model.vnf(f).deployments) {
        if (opt.site_allowed && !opt.site_allowed(f, dep.site)) continue;
        if (loads.vnf_site_headroom(f, dep.site) <= 0.0) continue;
        if (loads.site_headroom(dep.site) <= 0.0) continue;
        dests.push_back(
            model::StageEndpoint{model.site(dep.site).node, dep.site});
      }
    }
    if (dests.empty()) return false;   // no feasible site for some VNF
  }

  if (opt.per_hop) {
    // Greedy: from the current node, take the cheapest next endpoint.
    scratch.route_nodes.push_back(chain.ingress);
    scratch.route_sites.push_back(SiteId{});
    NodeId current = chain.ingress;
    for (std::size_t z = 1; z <= stages; ++z) {
      const auto& dests = scratch.dests[z];
      const VnfId dst_vnf = z < stages ? chain.vnfs[z - 1] : VnfId{};
      double best = kInf;
      std::size_t best_i = dests.size();
      for (std::size_t i = 0; i < dests.size(); ++i) {
        const model::StageEndpoint& ep = dests[i];
        const double c = cache.edge_cost(model, loads, opt, current, ep.node,
                                         dst_vnf, ep.site);
        if (c < best) {
          best = c;
          best_i = i;
        }
      }
      if (best_i == dests.size()) return false;
      current = dests[best_i].node;
      scratch.route_nodes.push_back(current);
      scratch.route_sites.push_back(dests[best_i].site);
    }
    return true;
  }

  // Holistic DP over the whole chain.
  // cost[z][i]: least cost of reaching dests[z][i]; prev[z][i]: argmin.
  if (scratch.cost.size() < stages + 1) {
    scratch.cost.resize(stages + 1);
    scratch.prev.resize(stages + 1);
  }
  const model::StageEndpoint start{chain.ingress, SiteId{}};

  for (std::size_t z = 1; z <= stages; ++z) {
    const auto& dests = scratch.dests[z];
    const model::StageEndpoint* sources = &start;
    std::size_t source_count = 1;
    if (z > 1) {
      sources = scratch.dests[z - 1].data();
      source_count = scratch.dests[z - 1].size();
    }
    const VnfId dst_vnf = z < stages ? chain.vnfs[z - 1] : VnfId{};
    scratch.cost[z].assign(dests.size(), kInf);
    scratch.prev[z].assign(dests.size(), 0);
    for (std::size_t i = 0; i < dests.size(); ++i) {
      const model::StageEndpoint& to = dests[i];
      for (std::size_t j = 0; j < source_count; ++j) {
        const double base = z == 1 ? 0.0 : scratch.cost[z - 1][j];
        if (!std::isfinite(base)) continue;
        const double c = base + cache.edge_cost(model, loads, opt,
                                                sources[j].node, to.node,
                                                dst_vnf, to.site);
        if (c < scratch.cost[z][i]) {
          scratch.cost[z][i] = c;
          scratch.prev[z][i] = j;
        }
      }
    }
  }

  // Egress stage has exactly one destination.
  SWB_DCHECK(scratch.dests[stages].size() == 1);
  if (!std::isfinite(scratch.cost[stages][0])) return false;

  // Reconstruct back-to-front.
  scratch.route_nodes.assign(stages + 1, NodeId{});
  scratch.route_sites.assign(stages + 1, SiteId{});
  scratch.route_nodes[stages] = chain.egress;
  std::size_t index = 0;
  for (std::size_t z = stages; z >= 1; --z) {
    const std::size_t source_index = scratch.prev[z][index];
    if (z == 1) {
      scratch.route_nodes[0] = chain.ingress;
    } else {
      scratch.route_nodes[z - 1] = scratch.dests[z - 1][source_index].node;
      scratch.route_sites[z - 1] = scratch.dests[z - 1][source_index].site;
    }
    index = source_index;
  }
  return true;
}

/// Largest fraction of the chain the route can carry against residual
/// capacity (links under MLU, sites, VNF-site deployments).  Uses the
/// scratch demand accumulators (left zeroed on return).
double max_admissible_fraction(const model::NetworkModel& model,
                               const Loads& loads, const model::Chain& chain,
                               const std::vector<NodeId>& route_nodes,
                               const std::vector<SiteId>& route_sites,
                               double remaining, DpScratch& scratch) {
  const std::size_t stages = chain.stage_count();
  scratch.ensure_sized(model);
  SWB_DCHECK(scratch.touched_links.empty());

  // Per-unit-fraction loads this route imposes, aggregated per resource
  // (a link or a site can appear in several stages of the same chain).
  const std::size_t site_count = model.sites().size();
  const auto accumulate = [](std::vector<double>& demand,
                             std::vector<std::size_t>& touched,
                             std::size_t index, double amount) {
    double& slot = demand[index];
    if (slot == 0.0) touched.push_back(index);
    slot += amount;
  };

  for (std::size_t z = 1; z <= stages; ++z) {
    const NodeId n1 = route_nodes[z - 1];
    const NodeId n2 = route_nodes[z];
    const double w = chain.forward_traffic[z - 1];
    const double v = chain.reverse_traffic[z - 1];
    if (n1 != n2) {
      if (w != 0.0) {
        for (const net::LinkShare& share :
             model.routing().link_shares(n1, n2)) {
          accumulate(scratch.link_demand, scratch.touched_links,
                     share.link.value(), w * share.fraction);
        }
      }
      if (v != 0.0) {
        for (const net::LinkShare& share :
             model.routing().link_shares(n2, n1)) {
          accumulate(scratch.link_demand, scratch.touched_links,
                     share.link.value(), v * share.fraction);
        }
      }
    }
    if (z < stages) {
      const VnfId f = chain.vnfs[z - 1];
      const SiteId s = route_sites[z];
      const double load =
          model.vnf(f).load_per_unit * (w + v + chain.forward_traffic[z] +
                                        chain.reverse_traffic[z]);
      accumulate(scratch.vnf_site_demand, scratch.touched_vnf_sites,
                 static_cast<std::size_t>(f.value()) * site_count + s.value(),
                 load);
      accumulate(scratch.site_demand, scratch.touched_sites, s.value(), load);
    }
  }

  double fraction = remaining;
  for (const std::size_t link_raw : scratch.touched_links) {
    const double demand = scratch.link_demand[link_raw];
    scratch.link_demand[link_raw] = 0.0;
    if (demand <= 0) continue;
    const double headroom = loads.link_headroom(
        LinkId{static_cast<LinkId::underlying_type>(link_raw)});
    fraction = std::min(fraction, std::max(0.0, headroom) / demand);
  }
  for (const std::size_t site_raw : scratch.touched_sites) {
    const double demand = scratch.site_demand[site_raw];
    scratch.site_demand[site_raw] = 0.0;
    if (demand <= 0) continue;
    const double headroom = loads.site_headroom(
        SiteId{static_cast<SiteId::underlying_type>(site_raw)});
    fraction = std::min(fraction, std::max(0.0, headroom) / demand);
  }
  for (const std::size_t key : scratch.touched_vnf_sites) {
    const double demand = scratch.vnf_site_demand[key];
    scratch.vnf_site_demand[key] = 0.0;
    if (demand <= 0) continue;
    const VnfId f{static_cast<VnfId::underlying_type>(key / site_count)};
    const SiteId s{static_cast<SiteId::underlying_type>(key % site_count)};
    const double headroom = loads.vnf_site_headroom(f, s);
    fraction = std::min(fraction, std::max(0.0, headroom) / demand);
  }
  scratch.touched_links.clear();
  scratch.touched_sites.clear();
  scratch.touched_vnf_sites.clear();
  return fraction;
}

/// Routes `chain` against `loads` (the cache is bound to them): appends
/// its flows to `routing`, adds them to `loads`, and returns the fraction
/// admitted in [0, 1].
double route_chain_dp(const model::NetworkModel& model,
                      const model::Chain& chain, Loads& loads,
                      ChainRouting& routing, const DpOptions& options,
                      EdgeCostCache& cache, DpScratch& scratch) {
  double remaining = 1.0;
  for (std::size_t round = 0;
       round < kMaxRoutesPerChain && remaining > kMinFraction; ++round) {
    if (!find_route(model, loads, chain, options, scratch, cache)) break;
    const double fraction =
        max_admissible_fraction(model, loads, chain, scratch.route_nodes,
                                scratch.route_sites, remaining, scratch);
    if (fraction <= kMinFraction) break;
    for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
      routing.add_flow(chain.id, z, scratch.route_nodes[z - 1],
                       scratch.route_nodes[z], fraction);
      loads.add_stage_flow(chain, z, scratch.route_nodes[z - 1],
                           scratch.route_nodes[z], fraction);
    }
    remaining -= fraction;
  }
  return 1.0 - remaining;
}

}  // namespace

const UtilizationCost& fortz_thorup() {
  static const UtilizationCost cost;
  return cost;
}

SingleRoute find_single_route(const model::NetworkModel& model,
                              const model::Chain& chain, const Loads& loads,
                              const DpOptions& options, EdgeCostCache& cache,
                              DpScratch& scratch) {
  cache.bind(model, loads);
  SingleRoute route;
  if (!find_route(model, loads, chain, options, scratch, cache)) return route;
  route.admissible_fraction =
      max_admissible_fraction(model, loads, chain, scratch.route_nodes,
                              scratch.route_sites, 1.0, scratch);
  route.nodes = scratch.route_nodes;
  route.sites = scratch.route_sites;
  route.found = true;
  return route;
}

SingleRoute find_single_route(const model::NetworkModel& model,
                              const model::Chain& chain, const Loads& loads,
                              const DpOptions& options) {
  EdgeCostCache cache;
  DpScratch scratch;
  return find_single_route(model, chain, loads, options, cache, scratch);
}

DpResult solve_dp_routing(const model::NetworkModel& model,
                          const DpOptions& options) {
  Loads loads{model};
  EdgeCostCache cache;
  DpScratch scratch;
  cache.bind(model, loads);

  DpResult result;
  result.routing.resize(model.chains().size());
  for (const model::Chain& chain : model.chains()) {
    result.routing.init_chain(chain.id, chain.stage_count());
    result.demand_volume += chain.total_traffic();
    const double routed = route_chain_dp(model, chain, loads, result.routing,
                                         options, cache, scratch);
    result.routed_volume += routed * chain.total_traffic();
    if (routed >= 1.0 - 1e-9) {
      ++result.fully_routed_chains;
    } else if (routed <= 1e-9) {
      ++result.unrouted_chains;
    }
  }
  return result;
}

}  // namespace switchboard::te
