// Capacity-planning problems of Section 4.2/4.3.
//
// Cloud capacity planning: given a budget A of additional compute capacity,
// decide the per-site allocation a_s that maximizes the uniform traffic
// growth factor alpha (LP; see LpRoutingOptions::cloud_capacity_budget).
// The paper's baseline spreads A uniformly across sites (Fig. 13b).
//
// VNF capacity planning: given y_f new deployment sites for each VNF,
// choose sites minimizing aggregate chain latency.  The paper formulates a
// MIP; this module provides both the exact MIP (small instances) and the
// greedy what-if planner used for the Fig. 13c comparison, plus the random
// baseline.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "model/network_model.hpp"
#include "te/lp_routing.hpp"

namespace switchboard::te {

struct CloudPlanResult {
  lp::SolveStatus status{lp::SolveStatus::kIterationLimit};
  double alpha{0.0};
  std::vector<double> extra_site_capacity;   // per site
};

/// LP-optimal allocation of `budget` extra capacity across sites.
[[nodiscard]] CloudPlanResult plan_cloud_capacity(
    const model::NetworkModel& model, double budget,
    const LpRoutingOptions& options = {});

/// Applies a per-site capacity increase to the model, scaling each VNF's
/// per-site capacity proportionally (capacity at a site is divided among
/// its VNFs, so growing the site grows each share).
void apply_capacity_increase(model::NetworkModel& model,
                             const std::vector<double>& extra_per_site);

/// The uniform baseline: budget / |S| everywhere.
[[nodiscard]] std::vector<double> uniform_allocation(
    const model::NetworkModel& model, double budget);

// ---------------------------------------------------------------- VNF plan

struct VnfPlacementResult {
  /// new_sites[v] lists sites newly chosen for VNF with id v (possibly
  /// empty for VNFs not planned).
  std::vector<std::vector<SiteId>> new_sites;
  double latency_before_ms{0.0};
  double latency_after_ms{0.0};
};

struct VnfPlacementOptions {
  std::size_t new_sites_per_vnf{1};   // y_f, identical for all planned VNFs
};

/// Greedy what-if planner: for each VNF (heaviest demand first) and each of
/// its y_f new slots, tries every non-hosting site, scores the model by the
/// DP router's mean latency, and keeps the best.  Each new deployment gets
/// the mean capacity of the VNF's existing ones.  Mutates `model` by adding
/// the chosen deployments.
[[nodiscard]] VnfPlacementResult plan_vnf_placement_greedy(
    model::NetworkModel& model, const VnfPlacementOptions& options);

/// Random baseline: picks y_f non-hosting sites uniformly at random.
/// Mutates `model` accordingly.
[[nodiscard]] VnfPlacementResult plan_vnf_placement_random(
    model::NetworkModel& model, const VnfPlacementOptions& options, Rng& rng);

/// Exact MIP placement for a *single* VNF on a small model: binary w_{fs}
/// gates the routing variables of chains that use the VNF.  Returns the
/// chosen sites.  The model is mutated only transiently (candidate
/// deployments are added for LP construction and removed before return).
/// Intended for small instances and for validating the greedy planner.
[[nodiscard]] std::vector<SiteId> plan_single_vnf_mip(
    model::NetworkModel& model, VnfId vnf, std::size_t new_sites,
    double new_site_capacity);

}  // namespace switchboard::te
