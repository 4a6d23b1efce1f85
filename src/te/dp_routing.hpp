// SB-DP: Switchboard's dynamic-programming chain router (Section 4.4).
//
// For one chain, the algorithm builds the table
//     E(z+1, s) = min_{s'} E(z, s') + cost(s', z, s)          (Eq. 8)
// where cost combines propagation latency, Fortz-Thorup network-utilization
// cost along the underlay path, and compute-utilization cost of the entered
// VNF.  If the least-cost route cannot carry the whole chain (resource
// headroom), the routed fraction is admitted, loads updated, and the
// algorithm repeats on residual capacity until the chain is fully routed or
// no capacity remains.
//
// Every DP runs through an EdgeCostCache and a DpScratch (te/te_engine.hpp):
// the TE engine keeps one of each across the controller's queries, the
// free functions below build fresh ones per call.  The uncached DP the
// cache must match bit for bit is the test reference
// (tests/reference/dp_reference.hpp).
//
// Two ablation switches reproduce the paper's Figure 13a variants:
//   * use_utilization_costs = false  ->  DP-LATENCY
//   * per_hop = true                 ->  ONEHOP
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/cost.hpp"
#include "model/network_model.hpp"
#include "te/loads.hpp"
#include "te/routing_solution.hpp"

namespace switchboard::te {

class EdgeCostCache;   // te/te_engine.hpp
struct DpScratch;      // te/te_engine.hpp

/// Weight (ms-equivalents) of one unit of Fortz-Thorup network cost.
inline constexpr double kNetworkCostWeight = 10.0;
/// Weight (ms-equivalents) of one unit of compute-utilization cost.
inline constexpr double kComputeCostWeight = 10.0;

/// The Fortz-Thorup penalty (default breakpoints) that both utilization
/// terms of the edge cost (EdgeCostCache::edge_cost) apply.
[[nodiscard]] const UtilizationCost& fortz_thorup();

struct DpOptions {
  /// false reproduces the DP-LATENCY ablation (latency-only cost).
  bool use_utilization_costs{true};
  /// true reproduces the ONEHOP ablation (greedy per-hop instead of DP).
  bool per_hop{false};
  /// Optional predicate excluding (vnf, site) placements — used by Global
  /// Switchboard to recompute after a two-phase-commit rejection.
  std::function<bool(VnfId, SiteId)> site_allowed{};
};

/// One concrete route through a chain: node/site per stage endpoint
/// (position 0 = ingress node, position stage_count() = egress node;
/// sites are invalid at those two positions).
struct SingleRoute {
  std::vector<NodeId> nodes;
  std::vector<SiteId> sites;
  /// Largest fraction of the chain admissible on this route right now.
  double admissible_fraction{0.0};
  bool found{false};
};

/// Computes the least-cost route for one chain against `loads` without
/// admitting any traffic, through `cache` (bound to `loads` here) and
/// `scratch`.
[[nodiscard]] SingleRoute find_single_route(const model::NetworkModel& model,
                                            const model::Chain& chain,
                                            const Loads& loads,
                                            const DpOptions& options,
                                            EdgeCostCache& cache,
                                            DpScratch& scratch);

/// The same query on a fresh cache and scratch.
[[nodiscard]] SingleRoute find_single_route(const model::NetworkModel& model,
                                            const model::Chain& chain,
                                            const Loads& loads,
                                            const DpOptions& options);

struct DpResult {
  ChainRouting routing;
  double routed_volume{0.0};     // total stage-traffic volume admitted
  double demand_volume{0.0};
  std::size_t fully_routed_chains{0};
  std::size_t unrouted_chains{0};   // chains with zero admitted traffic
};

/// Routes every chain in the model in order, sharing one load state: the
/// library's only whole-model SB-DP solve.
[[nodiscard]] DpResult solve_dp_routing(const model::NetworkModel& model,
                                        const DpOptions& options = {});

}  // namespace switchboard::te
