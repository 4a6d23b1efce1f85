// SB-LP: the linear-programming chain-routing optimizer (Section 4.3).
//
// Builds the paper's LP over variables x_{c z n1 n2} with three selectable
// objectives:
//   * kMinLatency      — Eq. 3 subject to full routing of all demand,
//   * kMaxThroughput   — per-chain carried fraction t_c <= 1, maximize
//                        carried volume (used in the Fig. 12a/b comparison),
//   * kMaxUniformScale — one shared factor alpha multiplying all demand,
//                        maximize alpha (the cloud-capacity-planning core).
// Constraints: ingress/egress coupling, flow conservation (Eq. 5), VNF and
// site compute capacity (Eq. 4), and the MLU bound on every link (Eq. 6-7).
#pragma once

#include <optional>
#include <vector>

#include "lp/simplex.hpp"
#include "model/network_model.hpp"
#include "te/routing_solution.hpp"

namespace switchboard::te {

enum class LpObjective { kMinLatency, kMaxThroughput, kMaxUniformScale };

struct LpRoutingOptions {
  LpObjective objective{LpObjective::kMinLatency};
  /// Cloud capacity planning (Section 4.3): when >= 0 and the objective is
  /// kMaxUniformScale, each site gains a variable a_s >= 0 of additional
  /// compute capacity with sum(a_s) <= budget; VNF-site capacities scale
  /// with their site ((m_sf / m_s) * a_s extra headroom).
  double cloud_capacity_budget{-1.0};
  /// Optional warm start: the Basis of a previous solve of the SAME
  /// formulation (same model shape and objective — the variable and row
  /// counts must match).  Mismatches silently fall back to a cold start.
  const lp::Basis* warm_start{nullptr};
};

struct LpRoutingResult {
  lp::SolveStatus status{lp::SolveStatus::kIterationLimit};
  ChainRouting routing;
  /// LP objective value (mode-specific).
  double objective{0.0};
  /// kMaxUniformScale: the optimal alpha.
  double alpha{0.0};
  /// kMaxThroughput: total carried stage-volume.
  double carried_volume{0.0};
  /// Cloud capacity planning: chosen extra capacity per site (empty when
  /// planning was not requested).
  std::vector<double> extra_site_capacity;
  /// Final simplex basis; feed back via LpRoutingOptions::warm_start to
  /// re-solve after a small model change in a handful of pivots.
  lp::Basis basis;
  /// Solver work counters (iterations, refactorizations, warm-start use).
  lp::SolverStats stats;

  [[nodiscard]] bool optimal() const {
    return status == lp::SolveStatus::kOptimal;
  }
};

[[nodiscard]] LpRoutingResult solve_lp_routing(
    const model::NetworkModel& model, const LpRoutingOptions& options = {});

/// Flow decomposition for a live SB-LP controller (DESIGN.md §17): the
/// chain's primary per-stage site sequence — starting at the chain's
/// ingress, each VNF stage follows the max-fraction outgoing flow of the
/// LP routing (ties broken by lower destination node id, so the result is
/// deterministic).  Returns one site per VNF stage, or nullopt when the
/// routing carries none of the chain's traffic along a connected path
/// (the caller should fall back to SB-DP).
[[nodiscard]] std::optional<std::vector<SiteId>> primary_route_sites(
    const model::NetworkModel& model, const ChainRouting& routing,
    ChainId chain);

}  // namespace switchboard::te
