// The uncached SB-DP reference: the edge cost of Eq. 8 computed from the
// loads on every query, and a copy of the single-route search and
// whole-model solve as they ran before every DP went through
// te::EdgeCostCache.  Kept outside the library as the yardstick the cached
// DP (src/te/dp_routing.cpp) must match bit for bit.
#pragma once

#include "model/network_model.hpp"
#include "te/dp_routing.hpp"
#include "te/loads.hpp"

namespace switchboard::te {

/// cost(s', z, s) of Eq. 8 against current loads: move stage traffic from
/// node n1 to node n2, entering `dst_vnf` (if valid) at `dst_site`.
/// EdgeCostCache::edge_cost must return identical bits on the same inputs.
[[nodiscard]] double stage_edge_cost(const model::NetworkModel& model,
                                     const Loads& loads,
                                     const DpOptions& options, NodeId n1,
                                     NodeId n2, VnfId dst_vnf,
                                     SiteId dst_site);

/// find_single_route() on stage_edge_cost.
[[nodiscard]] SingleRoute find_single_route_reference(
    const model::NetworkModel& model, const model::Chain& chain,
    const Loads& loads, const DpOptions& options);

/// solve_dp_routing() on stage_edge_cost.
[[nodiscard]] DpResult solve_dp_routing_reference(
    const model::NetworkModel& model, const DpOptions& options = {});

}  // namespace switchboard::te
