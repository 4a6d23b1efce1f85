// Hierarchical weighted load balancing rules (Section 5.2).
//
// A forwarder holds, per (chain label, egress-site label):
//   1. the VNF instances it fronts, weighted by instance weight;
//   2. the forwarders adjoining the *next* VNF in the chain, weighted by
//      site-level routing weight x forwarder weight.
// Selections are made per connection on the first packet and then pinned
// in the flow table.  Reverse packets need no rule: they follow the
// previous hop each flow learned from its first packet.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dataplane/packet.hpp"

namespace switchboard::dataplane {

/// A weighted set of candidate elements with O(log n) selection by
/// cumulative weight.
class WeightedChoice {
 public:
  void add(ElementId element, double weight);
  [[nodiscard]] bool empty() const { return elements_.empty(); }
  [[nodiscard]] std::size_t size() const { return elements_.size(); }

  /// Picks deterministically from a 64-bit selector (e.g. a flow hash or
  /// an RNG draw): the same selector always picks the same element for an
  /// unchanged rule.
  [[nodiscard]] ElementId pick(std::uint64_t selector) const;

  [[nodiscard]] const std::vector<ElementId>& elements() const {
    return elements_;
  }
  [[nodiscard]] double total_weight() const {
    return cumulative_.empty() ? 0.0 : cumulative_.back();
  }
  [[nodiscard]] double weight_of(ElementId element) const;

  /// Audits the cumulative-weight prefix sums (aborts via SWB_CHECK on
  /// violation): parallel arrays, strictly increasing finite cumulative
  /// weights (every per-element weight > 0), valid element ids.
  void check_invariants() const;

 private:
  std::vector<ElementId> elements_;
  std::vector<double> cumulative_;
};

/// The two weighted rule sets for one (chain, egress) pair.
struct LoadBalanceRule {
  WeightedChoice vnf_instances;
  WeightedChoice next_forwarders;

  /// Audits each weighted set.  (A rule may legitimately carry only
  /// next_forwarders — e.g. an ingress edge forwarder — so emptiness of a
  /// particular set is not an invariant.)
  void check_invariants() const;
};

class RuleTable {
 public:
  /// Inserts or replaces the rule for (chain, egress) labels.
  void install(const Labels& labels, LoadBalanceRule rule);
  void remove(const Labels& labels);
  [[nodiscard]] const LoadBalanceRule* find(const Labels& labels) const;
  [[nodiscard]] std::size_t size() const { return rules_.size(); }

  /// ROUTE EPOCH: monotone version bumped by every install()/remove().
  /// Steering annotations stamped with an older version are stale and
  /// must be re-derived (packet.hpp SteeringAnnotation::valid_for).
  /// Starts at 1 so the annotation default (kNoRouteEpoch == 0) never
  /// validates.
  [[nodiscard]] std::uint32_t version() const { return version_; }

  /// Audits every installed rule (see LoadBalanceRule::check_invariants).
  void check_invariants() const;

 private:
  struct LabelsHash {
    std::size_t operator()(const Labels& labels) const {
      return static_cast<std::size_t>(
          mix64((static_cast<std::uint64_t>(labels.chain) << 32) |
                labels.egress_site));
    }
  };
  std::unordered_map<Labels, LoadBalanceRule, LabelsHash> rules_;
  std::uint32_t version_{1};
};

}  // namespace switchboard::dataplane
