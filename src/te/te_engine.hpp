// The TE engine: the fast path for the SB-DP chain router (Section 4.4).
//
// Three pieces, composable but usable separately:
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
//     bit-identical to the uncached stage_edge_cost().
//
//   * TeEngine — owns Loads + DpScratch + EdgeCostCache + the running
//     solution, providing a full solve (equivalent to solve_dp_routing,
//     same bits, faster) and an incremental re-solve API: add/remove/
//     re-route one chain, or react to a link / (vnf, site) capacity change
//     by re-routing only the chains whose routes the change touches,
//     instead of recomputing every chain from scratch.  It is also the
//     Global Switchboard's only TE state: a cached single-route query,
//     per-route load deltas for the routes the controller commits and
//     retires, and the warm-started SB-LP refinement.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "model/network_model.hpp"
#include "te/dp_routing.hpp"
#include "te/loads.hpp"
#include "te/lp_routing.hpp"
#include "te/routing_solution.hpp"

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

  /// cost(s', z, s) with memoized utilization terms; bit-identical to
  /// stage_edge_cost() on the same inputs.  Requires a prior bind() to
  /// this (model, loads).
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

/// Stateful DP solver: full solve plus incremental re-solve.  The engine
/// assumes it is the sole writer of its Loads between calls; model
/// mutations (capacities, background traffic, new chains/deployments)
/// are picked up by the next call as documented per method.  Every call
/// that reads or writes the loads — loads() and check_invariants()
/// included — first grows them to the current model
/// (Loads::grow_to_model, which changes no value), so VNFs and sites
/// added after construction are routable and auditable.
class TeEngine {
 public:
  explicit TeEngine(const model::NetworkModel& model, DpOptions options = {});

  /// Routes every chain from scratch (same solution, bit for bit, as
  /// solve_dp_routing with the same options — asserted by tests).
  const DpResult& solve();

  /// Incremental: routes chain `c` (present in the model, not currently
  /// tracked by the engine) against current residual loads.  Appending a
  /// chain to the model and calling this is exactly equivalent to a full
  /// re-solve, because the full solve routes chains in id order.  Returns
  /// the admitted fraction in [0, 1].
  double add_chain(ChainId c);

  /// Incremental: removes chain `c`'s admitted flows from the loads and
  /// the solution (up to float round-off in the subtracted loads).
  void remove_chain(ChainId c);

  /// remove_chain + add_chain against the residual loads.
  double reroute_chain(ChainId c);

  /// The capacity of `link` changed in the model: re-routes (in id order)
  /// every tracked chain whose current routes cross the link, plus every
  /// chain that is not fully admitted (it may fit now).  Returns the
  /// number of chains re-routed.
  std::size_t on_link_capacity_changed(LinkId link);

  /// The (vnf, site) deployment capacity changed: same contract, for the
  /// chains placing `f` at `s` (plus partially-admitted chains).
  std::size_t on_vnf_site_capacity_changed(VnfId f, SiteId s);

  /// Drops cached edge costs (call after any model mutation the engine
  /// was not told about through the methods above).
  void invalidate_cost_cache() { cache_.invalidate(); }

  /// SB-DP for one route, admitting nothing: the least-cost route for
  /// `chain` against the current loads, through the engine's cost cache
  /// and scratch buffers — the same answer, bit for bit, as
  /// find_single_route on the same loads.  `allowed`, when set, replaces
  /// options().site_allowed for this query (a 2PC retry excludes the
  /// placements that voted abort).
  [[nodiscard]] SingleRoute find_route(
      const model::Chain& chain,
      const std::function<bool(VnfId, SiteId)>& allowed = {});

  /// Adds `weight_delta` (negative removes; 0 is a no-op) of one route's
  /// traffic to the loads — see Loads::add_route for the stage walk.  The
  /// route is not tracked: a caller that drives the loads this way owns
  /// its routes, and audits the loads against them with
  /// Loads::check_matches rather than with check_invariants().
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
  /// a cold solve.  The result stays cached until the next call.
  const LpRoutingResult& refine_with_lp(LpRoutingOptions options = {});

  /// The last refine_with_lp result (default-constructed before any call).
  [[nodiscard]] const LpRoutingResult& lp_refinement() const {
    return lp_result_;
  }

  [[nodiscard]] const DpResult& result() const { return result_; }
  [[nodiscard]] const Loads& loads() const {
    loads_.grow_to_model();
    return loads_;
  }
  [[nodiscard]] const DpOptions& options() const { return options_; }
  [[nodiscard]] const EdgeCostCache& cost_cache() const { return cache_; }
  /// True once `c` has been routed by solve()/add_chain and not removed.
  [[nodiscard]] bool tracks_chain(ChainId c) const;

  /// Audits the engine (aborts via SWB_CHECK on violation): loads and
  /// routing invariants hold, and the loads equal the loads re-accumulated
  /// from the tracked routing within `tolerance` (incremental drift bound).
  void check_invariants(double tolerance = 1e-6) const;

 private:
  static constexpr double kUntracked = -1.0;

  double route_tracked_chain(ChainId c);
  /// Recomputes the DpResult summary counters from routed_fraction_
  /// (term order matches solve_dp_routing, so sums stay bit-identical).
  void refresh_summary();
  [[nodiscard]] bool chain_crosses_link(ChainId c, LinkId link) const;
  [[nodiscard]] bool chain_places_vnf_at(ChainId c, VnfId f, SiteId s) const;
  std::size_t reroute_affected(const std::vector<ChainId>& affected);

  const model::NetworkModel& model_;
  DpOptions options_;
  mutable Loads loads_;   // grown by const readers too (see class comment)
  DpResult result_;
  EdgeCostCache cache_;
  DpScratch scratch_;
  std::vector<double> routed_fraction_;   // per chain id; kUntracked = none
  LpRoutingResult lp_result_;             // last SB-LP refinement
  lp::Basis warm_basis_;                  // last optimal SB-LP basis
};

}  // namespace switchboard::te
