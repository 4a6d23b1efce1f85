#include "te/capacity_planning.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "lp/mip.hpp"
#include "te/dp_routing.hpp"
#include "te/evaluator.hpp"
#include "te/lp_routing_detail.hpp"

namespace switchboard::te {
namespace {

/// Capacity of a newly planned deployment: the mean capacity of the VNF's
/// existing deployments (1 when it has none).
double mean_capacity(const model::Vnf& vnf) {
  if (vnf.deployments.empty()) return 1.0;
  double total = 0.0;
  for (const model::VnfDeployment& d : vnf.deployments) total += d.capacity;
  return total / static_cast<double>(vnf.deployments.size());
}

/// DP-routes the whole model and returns the traffic-weighted mean latency
/// (+inf if nothing could be routed).
double score_mean_latency(const model::NetworkModel& model) {
  const DpResult dp_result = solve_dp_routing(model);
  const RoutingMetrics metrics = evaluate(model, dp_result.routing);
  if (metrics.carried_volume <= 0) {
    return std::numeric_limits<double>::infinity();
  }
  return metrics.mean_latency_ms;
}

/// Demand volume of the chains that traverse a VNF (planning priority).
double vnf_demand(const model::NetworkModel& model, VnfId vnf) {
  double total = 0.0;
  for (const model::Chain& chain : model.chains()) {
    for (const VnfId f : chain.vnfs) {
      if (f == vnf) {
        total += chain.total_traffic();
        break;
      }
    }
  }
  return total;
}

std::vector<SiteId> candidate_sites(const model::NetworkModel& model,
                                    const model::Vnf& vnf) {
  std::vector<SiteId> sites;
  for (const model::CloudSite& site : model.sites()) {
    if (!vnf.deployed_at(site.id)) sites.push_back(site.id);
  }
  return sites;
}

}  // namespace

CloudPlanResult plan_cloud_capacity(const model::NetworkModel& model,
                                    double budget,
                                    const LpRoutingOptions& options) {
  SWB_CHECK(budget >= 0);
  LpRoutingOptions planning_options = options;
  planning_options.objective = LpObjective::kMaxUniformScale;
  planning_options.cloud_capacity_budget = budget;
  const LpRoutingResult lp = solve_lp_routing(model, planning_options);
  CloudPlanResult result;
  result.status = lp.status;
  if (!lp.optimal()) return result;
  result.alpha = lp.alpha;
  result.extra_site_capacity = lp.extra_site_capacity;
  return result;
}

void apply_capacity_increase(model::NetworkModel& model,
                             const std::vector<double>& extra_per_site) {
  SWB_CHECK(extra_per_site.size() == model.sites().size());
  for (const model::CloudSite& site : model.sites()) {
    const double extra = extra_per_site[site.id.value()];
    if (extra <= 0) continue;
    const double old_capacity = site.compute_capacity;
    const double growth =
        old_capacity > 0 ? (old_capacity + extra) / old_capacity : 1.0;
    model.set_site_capacity(site.id, old_capacity + extra);
    // Each VNF share at the site grows with the site.
    for (const model::Vnf& vnf : model.vnfs()) {
      const double cap = vnf.capacity_at(site.id);
      if (cap > 0) {
        model.set_vnf_site_capacity(vnf.id, site.id, cap * growth);
      }
    }
  }
}

std::vector<double> uniform_allocation(const model::NetworkModel& model,
                                       double budget) {
  const std::size_t n = model.sites().size();
  SWB_CHECK(n > 0);
  return std::vector<double>(n, budget / static_cast<double>(n));
}

VnfPlacementResult plan_vnf_placement_greedy(
    model::NetworkModel& model, const VnfPlacementOptions& options) {
  VnfPlacementResult result;
  result.new_sites.resize(model.vnfs().size());
  result.latency_before_ms = score_mean_latency(model);

  // Plan heavier-demand VNFs first: their placement moves the most traffic.
  std::vector<VnfId> order;
  order.reserve(model.vnfs().size());
  for (const model::Vnf& vnf : model.vnfs()) order.push_back(vnf.id);
  std::sort(order.begin(), order.end(), [&](VnfId a, VnfId b) {
    return vnf_demand(model, a) > vnf_demand(model, b);
  });

  for (const VnfId vnf_id : order) {
    const double capacity = mean_capacity(model.vnf(vnf_id));
    for (std::size_t slot = 0; slot < options.new_sites_per_vnf; ++slot) {
      const auto candidates = candidate_sites(model, model.vnf(vnf_id));
      if (candidates.empty()) break;
      SiteId best_site;
      double best_latency = std::numeric_limits<double>::infinity();
      for (const SiteId site : candidates) {
        model.deploy_vnf(vnf_id, site, capacity);
        const double latency = score_mean_latency(model);
        model.undeploy_vnf(vnf_id, site);
        if (latency < best_latency) {
          best_latency = latency;
          best_site = site;
        }
      }
      if (!best_site.valid()) break;
      model.deploy_vnf(vnf_id, best_site, capacity);
      result.new_sites[vnf_id.value()].push_back(best_site);
    }
  }
  result.latency_after_ms = score_mean_latency(model);
  return result;
}

VnfPlacementResult plan_vnf_placement_random(
    model::NetworkModel& model, const VnfPlacementOptions& options,
    Rng& rng) {
  VnfPlacementResult result;
  result.new_sites.resize(model.vnfs().size());
  result.latency_before_ms = score_mean_latency(model);

  for (const model::Vnf& vnf : model.vnfs()) {
    const VnfId vnf_id = vnf.id;
    const double capacity = mean_capacity(model.vnf(vnf_id));
    for (std::size_t slot = 0; slot < options.new_sites_per_vnf; ++slot) {
      const auto candidates = candidate_sites(model, model.vnf(vnf_id));
      if (candidates.empty()) break;
      const SiteId site = candidates[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
      model.deploy_vnf(vnf_id, site, capacity);
      result.new_sites[vnf_id.value()].push_back(site);
    }
  }
  result.latency_after_ms = score_mean_latency(model);
  return result;
}

std::vector<SiteId> plan_single_vnf_mip(model::NetworkModel& model,
                                        VnfId vnf, std::size_t new_sites,
                                        double new_site_capacity) {
  using lp::Relation;
  using lp::Term;
  using lp::VarIndex;

  // Temporarily deploy the VNF at every candidate site, build the routing
  // LP over the enlarged S_f, then gate the new sites with binaries w_s
  // (Section 4.3's MIP); candidate deployments are removed before return.
  const auto candidates = candidate_sites(model, model.vnf(vnf));
  for (const SiteId site : candidates) {
    model.deploy_vnf(vnf, site, new_site_capacity);
  }

  LpRoutingOptions lp_options;
  lp_options.objective = LpObjective::kMinLatency;
  detail::BuiltLp built = detail::build_routing_lp(model, lp_options);

  // One binary per candidate site.
  std::vector<VarIndex> w_vars;
  std::vector<Term> count_terms;
  w_vars.reserve(candidates.size());
  for (const SiteId site : candidates) {
    const VarIndex w = built.problem.add_variable(
        0.0, "w_site" + std::to_string(site.value()));
    // solve_mip clamps binaries to [0, 1] via bounds itself; no row needed.
    count_terms.push_back({w, 1.0});
    w_vars.push_back(w);
  }
  built.problem.add_constraint(Relation::kLessEqual,
                               static_cast<double>(new_sites),
                               std::move(count_terms), "site_budget");

  // Gate: any routing variable whose destination is (vnf, candidate site)
  // must be zero unless that site is opened.
  for (const model::Chain& chain : model.chains()) {
    const auto& stage_vars = built.vars[chain.id.value()];
    for (std::size_t z = 1; z < chain.stage_count(); ++z) {
      if (chain.vnfs[z - 1] != vnf) continue;
      const detail::StageVars& sv = stage_vars[z - 1];
      for (std::size_t j = 0; j < sv.dests.size(); ++j) {
        const SiteId site = sv.dests[j].site;
        const auto it = std::find(candidates.begin(), candidates.end(), site);
        if (it == candidates.end()) continue;
        const VarIndex w =
            w_vars[static_cast<std::size_t>(it - candidates.begin())];
        for (std::size_t i = 0; i < sv.sources.size(); ++i) {
          built.problem.add_constraint(Relation::kLessEqual, 0.0,
                                       {{sv.var(i, j), 1.0}, {w, -1.0}});
        }
      }
    }
  }

  const lp::MipSolution mip = lp::solve_mip(built.problem, w_vars);

  // Restore the model's deployment state.
  for (const SiteId site : candidates) {
    model.undeploy_vnf(vnf, site);
  }

  std::vector<SiteId> chosen;
  if (!mip.optimal()) return chosen;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (mip.values[w_vars[k]] > 0.5) chosen.push_back(candidates[k]);
  }
  return chosen;
}

}  // namespace switchboard::te
