// Load accounting shared by the DP router (incremental admission) and the
// evaluator (scoring a finished routing).
//
// Implements the paper's load model: the load of VNF f at site s is
// l_f x (traffic entering + traffic leaving) (Eq. 4); link load follows the
// underlay's ECMP fractions r_{n1 n2 e} over forward and reverse stage
// traffic (Eqs. 6-7).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "model/network_model.hpp"

namespace switchboard::te {

class Loads {
 public:
  explicit Loads(const model::NetworkModel& model);

  /// Adds the load of routing `fraction` of chain `c`'s stage-z traffic
  /// from node n1 to node n2 (both link and compute load on the stage's
  /// endpoint VNFs).  Negative `fraction` removes load.
  void add_stage_flow(const model::Chain& chain, std::size_t z, NodeId n1,
                      NodeId n2, double fraction);

  /// Adds `weight` (negative removes) of one whole route: stage z runs
  /// from the route's (z-1)-th endpoint to its z-th — the chain's ingress,
  /// the sites of `vnf_sites` in stage order, then the chain's egress.
  void add_route(const model::Chain& chain,
                 const std::vector<SiteId>& vnf_sites, double weight);

  /// Zeroes all accumulated loads (also resizes to the model's current
  /// element counts, so it is safe after chains/VNF deployments change).
  void reset();

  /// Follows a model that gained VNFs or sites since construction: new
  /// slots start at zero and every existing value keeps its bits.  A no-op
  /// while the element counts are unchanged.
  void grow_to_model();

  // --- link state ---------------------------------------------------------
  /// Switchboard-attributed load (excludes background traffic).
  [[nodiscard]] double link_load(LinkId e) const;
  /// (background + switchboard) / capacity.
  [[nodiscard]] double link_utilization(LinkId e) const;
  /// Remaining link volume before hitting beta * b_e.
  [[nodiscard]] double link_headroom(LinkId e) const;

  // --- compute state ------------------------------------------------------
  [[nodiscard]] double site_load(SiteId s) const;
  [[nodiscard]] double vnf_site_load(VnfId f, SiteId s) const;
  [[nodiscard]] double vnf_site_utilization(VnfId f, SiteId s) const;
  [[nodiscard]] double vnf_site_headroom(VnfId f, SiteId s) const;
  [[nodiscard]] double site_headroom(SiteId s) const;

  [[nodiscard]] const model::NetworkModel& model() const { return model_; }

  // --- change epochs ------------------------------------------------------
  // Monotonic counters for cost caching (te::EdgeCostCache): `version()`
  // advances on every mutation (add_stage_flow or reset), and each link /
  // (vnf, site) slot records the version of its last change.  A value
  // cached at version V for a set of resources is still valid iff every
  // resource's epoch is <= V.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::uint64_t link_epoch(LinkId e) const {
    SWB_DCHECK(e.value() < link_epoch_.size());
    return link_epoch_[e.value()];
  }
  [[nodiscard]] std::uint64_t vnf_site_epoch(VnfId f, SiteId s) const {
    SWB_DCHECK(vnf_site_index(f, s) < vnf_site_epoch_.size());
    return vnf_site_epoch_[vnf_site_index(f, s)];
  }
  /// Raw epoch arrays for hot-loop validation walks.
  [[nodiscard]] const std::vector<std::uint64_t>& link_epochs() const {
    return link_epoch_;
  }

  /// Audits the accounting (aborts via SWB_CHECK on violation): vectors
  /// sized to the model, every load finite and (up to round-off from
  /// negative-fraction removals) non-negative, and the per-site totals
  /// redundantly equal to the sum of that site's per-VNF loads.
  void check_invariants(double tolerance = 1e-6) const;

  /// Drift audit (aborts via SWB_CHECK on violation): every link, site and
  /// (vnf, site) load equals `rebuilt` — the same routes re-accumulated
  /// from scratch over the same model — within `tolerance` relative to
  /// max(1, rebuilt value).  Round-off from incremental add/remove stays
  /// far below it; a lost or doubled delta does not.
  void check_matches(const Loads& rebuilt, double tolerance = 1e-6) const;

  /// Stricter audit for solutions that claim feasibility: additionally
  /// checks no link exceeds beta * b_e and no (vnf, site) exceeds m_sf,
  /// within `tolerance`.  Schemes may legitimately produce overloaded
  /// solutions (the evaluator scores them), so this is opt-in.
  void check_no_capacity_violation(double tolerance = 1e-6) const;

 private:
  [[nodiscard]] std::size_t vnf_site_index(VnfId f, SiteId s) const {
    return static_cast<std::size_t>(f.value()) * site_count_ + s.value();
  }

  const model::NetworkModel& model_;
  std::size_t site_count_;
  std::vector<double> link_load_;
  std::vector<double> site_load_;
  std::vector<double> vnf_site_load_;
  // Change tracking: version_ starts at 1 so a zero stamp is never valid.
  std::uint64_t version_{1};
  std::vector<std::uint64_t> link_epoch_;
  std::vector<std::uint64_t> vnf_site_epoch_;
};

}  // namespace switchboard::te
