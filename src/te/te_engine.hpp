// The TE engine: the fast path for the SB-DP chain router (Section 4.4).
//
// Three pieces:
//
//   * DpScratch — flat, reusable scratch buffers for the per-route DP
//     tables, candidate-endpoint lists, and the per-resource demand
//     accumulators of the admission check.  Owning one per solver (instead
//     of three unordered_maps and several vectors per route) removes every
//     steady-state allocation from the DP hot loop.
//
//   * EdgeCostCache — memoizes the two utilization-cost terms of the DP's
//     edge cost against a Loads object's change epochs.  The Fortz-Thorup
//     network term of a (n1, n2) pair is recomputed only when some link on
//     the pair's ECMP footprint changed since the cached value was stored
//     (a max-epoch-over-shares walk: one integer read per link instead of
//     a utilization division + piecewise-cost evaluation per link); the
//     compute term of a (vnf, site) is guarded by a single epoch compare.
//     Chains touch few links per residual round, so most pairs stay valid
//     between rounds and between consecutive chains.  Cached costs are
//     bit-identical to the uncached edge cost of the test reference
//     (tests/reference/dp_reference.hpp).  Every SB-DP run goes through
//     one (te/dp_routing.hpp).
//
//   * TeEngine — the Global Switchboard's only TE state: the loads of the
//     routes the controller commits and retires, a cached single-route
//     query over them, and the warm-started SB-LP refinement.  The
//     controller's journal owns which routes hold load; the engine keeps
//     only their sum.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "model/network_model.hpp"
#include "te/dp_routing.hpp"
#include "te/loads.hpp"
#include "te/lp_routing.hpp"

namespace switchboard::te {

/// Reusable scratch for one DP solver; see file comment.  Sized lazily
/// against a model; safe to reuse across chains, rounds, and solves.
struct DpScratch {
  // Admission check: dense per-resource accumulators plus touched lists,
  // so one route's check costs O(route footprint), not O(resources).
  std::vector<double> link_demand;
  std::vector<double> site_demand;
  std::vector<double> vnf_site_demand;
  std::vector<std::size_t> touched_links;
  std::vector<std::size_t> touched_sites;
  std::vector<std::size_t> touched_vnf_sites;

  // Route search: filtered candidate endpoints and DP tables per stage.
  std::vector<std::vector<model::StageEndpoint>> dests;
  std::vector<std::vector<double>> cost;
  std::vector<std::vector<std::size_t>> prev;

  // The candidate route of the current round.
  std::vector<NodeId> route_nodes;
  std::vector<SiteId> route_sites;

  /// Grows the demand accumulators to the model's element counts (keeps
  /// contents zeroed; demand slots are reset after every use).
  void ensure_sized(const model::NetworkModel& model);
};

/// Epoch-validated cache of the Fortz-Thorup terms of the DP edge cost.
/// Bound to one (model, loads) pair; rebinding to different objects
/// resets it.  Capacity or background-traffic changes in the *model* are
/// invisible to Loads epochs: call invalidate() after mutating the model.
class EdgeCostCache {
 public:
  /// Prepares the cache for (model, loads); resets stored values when the
  /// identity or the element counts changed, or when the loads' version
  /// went backwards (a different Loads object at the same address).
  void bind(const model::NetworkModel& model, const Loads& loads);

  /// Drops every cached value (cheap: one stamp reset pass).
  void invalidate();

  /// cost(s', z, s) of Eq. 8 with memoized utilization terms: move stage
  /// traffic from node n1 to node n2, entering `dst_vnf` (if valid) at
  /// `dst_site`.  Requires a prior bind() to this (model, loads).
  [[nodiscard]] double edge_cost(const model::NetworkModel& model,
                                 const Loads& loads,
                                 const DpOptions& options, NodeId n1,
                                 NodeId n2, VnfId dst_vnf, SiteId dst_site);

  // Effectiveness counters (validation-hit vs recompute), for tests.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    double value{0.0};
    std::uint64_t stamp{0};     // Loads version at computation; 0 = empty
    std::uint64_t checked{0};   // Loads version at the last validation —
                                // equal to the current version means the
                                // epoch walk can be skipped outright
  };

  [[nodiscard]] double network_term(const model::NetworkModel& model,
                                    const Loads& loads, NodeId n1, NodeId n2);
  [[nodiscard]] double compute_term(const Loads& loads, VnfId f, SiteId s);

  const model::NetworkModel* model_{nullptr};
  const Loads* loads_{nullptr};
  std::uint64_t bound_version_{0};
  std::size_t n_{0};
  std::size_t site_count_{0};
  std::vector<Entry> pair_;       // n_ * n_, indexed n1 * n_ + n2
  std::vector<Entry> vnf_site_;   // |F| * site_count_
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

/// The controller's TE state.  The engine assumes it is the sole writer of
/// its Loads between calls; model mutations (capacities, background
/// traffic) are invisible to the cost cache until invalidate_cost_cache().
/// Every call that reads or writes the loads — loads() included — first
/// grows them to the current model (Loads::grow_to_model, which changes no
/// value), so VNFs and sites added after construction are routable.
class TeEngine {
 public:
  explicit TeEngine(const model::NetworkModel& model, DpOptions options = {});

  /// Drops cached edge costs (call after mutating the model's capacities
  /// or background traffic).
  void invalidate_cost_cache() { cache_.invalidate(); }

  /// SB-DP for one route, admitting nothing: the least-cost route for
  /// `chain` against the current loads, through the engine's cost cache
  /// and scratch buffers — the same answer, bit for bit, as the fresh-cache
  /// find_single_route on the same loads.  `allowed`, when set, replaces
  /// options().site_allowed for this query (a 2PC retry excludes the
  /// placements that voted abort).
  [[nodiscard]] SingleRoute find_route(
      const model::Chain& chain,
      const std::function<bool(VnfId, SiteId)>& allowed = {});

  /// Adds `weight_delta` (negative removes; 0 is a no-op) of one route's
  /// traffic to the loads — see Loads::add_route for the stage walk.  The
  /// caller owns its routes and audits the loads against them with
  /// Loads::check_matches.
  void add_route_load(const model::Chain& chain,
                      const std::vector<SiteId>& vnf_sites,
                      double weight_delta);

  /// Zeroes the loads, for a caller that re-adds its routes through
  /// add_route_load (a controller restart).
  void reset_loads() { loads_.reset(); }

  /// Background SB-LP refinement (the paper's split: SB-DP answers route
  /// requests immediately, SB-LP re-optimizes the whole routing in the
  /// background).  Solves the routing LP over the engine's model and
  /// remembers the last optimal basis: subsequent calls warm-start from
  /// it, so a refinement after a small change re-solves in a few pivots
  /// instead of from scratch.  A non-optimal solve leaves the remembered
  /// basis as it was.  An explicit `options.warm_start` wins over the
  /// remembered basis; a formulation-shape change silently falls back to
  /// a cold solve.
  LpRoutingResult refine_with_lp(LpRoutingOptions options = {});

  [[nodiscard]] const Loads& loads() const {
    loads_.grow_to_model();
    return loads_;
  }
  [[nodiscard]] const DpOptions& options() const { return options_; }
  /// The cost cache's hit and miss counters (tests).
  [[nodiscard]] const EdgeCostCache& cost_cache() const { return cache_; }

 private:
  const model::NetworkModel& model_;
  DpOptions options_;
  mutable Loads loads_;   // grown by const readers too (see class comment)
  EdgeCostCache cache_;
  DpScratch scratch_;
  lp::Basis warm_basis_;   // last optimal SB-LP basis
};

}  // namespace switchboard::te
