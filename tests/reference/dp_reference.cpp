#include "reference/dp_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace switchboard::te {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Residual re-routing rounds per chain (as in the library).
constexpr std::size_t kMaxRoutesPerChain = 8;
/// Smallest admissible fraction of a chain per route (as in the library).
constexpr double kMinFraction = 1e-4;

/// Full-chain DP (Eq. 8) or greedy per-hop (ONEHOP ablation) into
/// `route.nodes` / `route.sites` (position 0 = ingress, position
/// stage_count() = egress); false when some stage has no feasible site.
bool search(const model::NetworkModel& model, const Loads& loads,
            const model::Chain& chain, const DpOptions& opt,
            SingleRoute& route) {
  const std::size_t stages = chain.stage_count();
  std::vector<std::vector<model::StageEndpoint>> dests(stages + 1);
  for (std::size_t z = 1; z <= stages; ++z) {
    if (z == stages) {
      dests[z].push_back(model::StageEndpoint{chain.egress, SiteId{}});
    } else {
      const VnfId f = chain.vnfs[z - 1];
      for (const model::VnfDeployment& dep : model.vnf(f).deployments) {
        if (opt.site_allowed && !opt.site_allowed(f, dep.site)) continue;
        if (loads.vnf_site_headroom(f, dep.site) <= 0.0) continue;
        if (loads.site_headroom(dep.site) <= 0.0) continue;
        dests[z].push_back(
            model::StageEndpoint{model.site(dep.site).node, dep.site});
      }
    }
    if (dests[z].empty()) return false;
  }

  if (opt.per_hop) {
    route.nodes.push_back(chain.ingress);
    route.sites.push_back(SiteId{});
    NodeId current = chain.ingress;
    for (std::size_t z = 1; z <= stages; ++z) {
      const VnfId dst_vnf = z < stages ? chain.vnfs[z - 1] : VnfId{};
      double best = kInf;
      std::size_t best_i = dests[z].size();
      for (std::size_t i = 0; i < dests[z].size(); ++i) {
        const model::StageEndpoint& ep = dests[z][i];
        const double c = stage_edge_cost(model, loads, opt, current, ep.node,
                                         dst_vnf, ep.site);
        if (c < best) {
          best = c;
          best_i = i;
        }
      }
      if (best_i == dests[z].size()) return false;
      current = dests[z][best_i].node;
      route.nodes.push_back(current);
      route.sites.push_back(dests[z][best_i].site);
    }
    return true;
  }

  // cost[z][i]: least cost of reaching dests[z][i]; prev[z][i]: argmin.
  std::vector<std::vector<double>> cost(stages + 1);
  std::vector<std::vector<std::size_t>> prev(stages + 1);
  const model::StageEndpoint start{chain.ingress, SiteId{}};
  for (std::size_t z = 1; z <= stages; ++z) {
    const std::vector<model::StageEndpoint> sources =
        z == 1 ? std::vector<model::StageEndpoint>{start} : dests[z - 1];
    const VnfId dst_vnf = z < stages ? chain.vnfs[z - 1] : VnfId{};
    cost[z].assign(dests[z].size(), kInf);
    prev[z].assign(dests[z].size(), 0);
    for (std::size_t i = 0; i < dests[z].size(); ++i) {
      const model::StageEndpoint& to = dests[z][i];
      for (std::size_t j = 0; j < sources.size(); ++j) {
        const double base = z == 1 ? 0.0 : cost[z - 1][j];
        if (!std::isfinite(base)) continue;
        const double c = base + stage_edge_cost(model, loads, opt,
                                                sources[j].node, to.node,
                                                dst_vnf, to.site);
        if (c < cost[z][i]) {
          cost[z][i] = c;
          prev[z][i] = j;
        }
      }
    }
  }
  SWB_CHECK(dests[stages].size() == 1);
  if (!std::isfinite(cost[stages][0])) return false;

  route.nodes.assign(stages + 1, NodeId{});
  route.sites.assign(stages + 1, SiteId{});
  route.nodes[stages] = chain.egress;
  route.nodes[0] = chain.ingress;
  std::size_t index = 0;
  for (std::size_t z = stages; z >= 2; --z) {
    index = prev[z][index];
    route.nodes[z - 1] = dests[z - 1][index].node;
    route.sites[z - 1] = dests[z - 1][index].site;
  }
  return true;
}

/// Largest fraction of the chain `route` can carry against residual
/// capacity (links under MLU, sites, VNF-site deployments), capped at
/// `remaining`.  Demands accumulate in stage order, as in the library.
double admissible_fraction(const model::NetworkModel& model,
                           const Loads& loads, const model::Chain& chain,
                           const SingleRoute& route, double remaining) {
  const std::size_t stages = chain.stage_count();
  const std::size_t site_count = model.sites().size();
  std::vector<double> link_demand(model.topology().link_count(), 0.0);
  std::vector<double> site_demand(site_count, 0.0);
  std::vector<double> vnf_site_demand(model.vnfs().size() * site_count, 0.0);
  for (std::size_t z = 1; z <= stages; ++z) {
    const NodeId n1 = route.nodes[z - 1];
    const NodeId n2 = route.nodes[z];
    const double w = chain.forward_traffic[z - 1];
    const double v = chain.reverse_traffic[z - 1];
    if (n1 != n2) {
      if (w != 0.0) {
        for (const net::LinkShare& share :
             model.routing().link_shares(n1, n2)) {
          link_demand[share.link.value()] += w * share.fraction;
        }
      }
      if (v != 0.0) {
        for (const net::LinkShare& share :
             model.routing().link_shares(n2, n1)) {
          link_demand[share.link.value()] += v * share.fraction;
        }
      }
    }
    if (z < stages) {
      const VnfId f = chain.vnfs[z - 1];
      const SiteId s = route.sites[z];
      const double load =
          model.vnf(f).load_per_unit * (w + v + chain.forward_traffic[z] +
                                        chain.reverse_traffic[z]);
      vnf_site_demand[static_cast<std::size_t>(f.value()) * site_count +
                      s.value()] += load;
      site_demand[s.value()] += load;
    }
  }

  double fraction = remaining;
  const auto cap = [&fraction](double headroom, double demand) {
    if (demand > 0) {
      fraction = std::min(fraction, std::max(0.0, headroom) / demand);
    }
  };
  for (std::size_t l = 0; l < link_demand.size(); ++l) {
    cap(loads.link_headroom(LinkId{static_cast<LinkId::underlying_type>(l)}),
        link_demand[l]);
  }
  for (std::size_t s = 0; s < site_count; ++s) {
    cap(loads.site_headroom(SiteId{static_cast<SiteId::underlying_type>(s)}),
        site_demand[s]);
  }
  for (std::size_t key = 0; key < vnf_site_demand.size(); ++key) {
    if (vnf_site_demand[key] <= 0) continue;
    const VnfId f{static_cast<VnfId::underlying_type>(key / site_count)};
    const SiteId s{static_cast<SiteId::underlying_type>(key % site_count)};
    cap(loads.vnf_site_headroom(f, s), vnf_site_demand[key]);
  }
  return fraction;
}

}  // namespace

double stage_edge_cost(const model::NetworkModel& model, const Loads& loads,
                       const DpOptions& options, NodeId n1, NodeId n2,
                       VnfId dst_vnf, SiteId dst_site) {
  double cost = model.delay_ms(n1, n2);
  if (!std::isfinite(cost)) return kInf;
  if (!options.use_utilization_costs) return cost;

  const UtilizationCost& phi = fortz_thorup();
  if (n1 != n2) {
    double network = 0.0;
    for (const net::LinkShare& share : model.routing().link_shares(n1, n2)) {
      network += share.fraction *
                 phi(std::max(0.0, loads.link_utilization(share.link)));
    }
    cost += kNetworkCostWeight * network;
  }
  if (dst_vnf.valid()) {
    cost += kComputeCostWeight *
            phi(std::max(0.0, loads.vnf_site_utilization(dst_vnf, dst_site)));
  }
  return cost;
}

SingleRoute find_single_route_reference(const model::NetworkModel& model,
                                        const model::Chain& chain,
                                        const Loads& loads,
                                        const DpOptions& options) {
  SingleRoute route;
  if (!search(model, loads, chain, options, route)) return SingleRoute{};
  route.admissible_fraction =
      admissible_fraction(model, loads, chain, route, 1.0);
  route.found = true;
  return route;
}

DpResult solve_dp_routing_reference(const model::NetworkModel& model,
                                    const DpOptions& options) {
  DpResult result;
  result.routing.resize(model.chains().size());
  Loads loads{model};
  for (const model::Chain& chain : model.chains()) {
    result.routing.init_chain(chain.id, chain.stage_count());
    result.demand_volume += chain.total_traffic();
    double remaining = 1.0;
    for (std::size_t round = 0;
         round < kMaxRoutesPerChain && remaining > kMinFraction; ++round) {
      SingleRoute route;
      if (!search(model, loads, chain, options, route)) break;
      const double fraction =
          admissible_fraction(model, loads, chain, route, remaining);
      if (fraction <= kMinFraction) break;
      for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
        result.routing.add_flow(chain.id, z, route.nodes[z - 1],
                                route.nodes[z], fraction);
        loads.add_stage_flow(chain, z, route.nodes[z - 1], route.nodes[z],
                             fraction);
      }
      remaining -= fraction;
    }
    const double routed = 1.0 - remaining;
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
