// Hierarchical weighted load balancing rules (Section 5.2).
//
// A forwarder holds, per (chain label, egress-site label):
//   1. the VNF instances it fronts, weighted by instance weight;
//   2. the forwarders adjoining the *next* VNF in the chain, weighted by
//      site-level routing weight x forwarder weight.
// Selections are made per connection on the first packet and then pinned
// in the flow table.  Reverse packets need no rule: they follow the
// previous hop each flow learned from its first packet.
//
// Layout (DESIGN.md §15): a RuleTable is one open-addressing array of
// 128-byte slots, each holding its Labels key and the whole rule inline,
// and a WeightedChoice keeps its first kInlineCandidates candidates inside
// the rule.  A first packet's find() plus both picks therefore read one
// slot — two adjacent cache lines — unless a choice has spilled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "dataplane/packet.hpp"

namespace switchboard::dataplane {

/// A weighted set of candidate elements with O(log n) selection by
/// cumulative weight.  The first kInlineCandidates candidates live in the
/// object itself; a larger set moves to one heap block (the spill block).
class WeightedChoice {
 public:
  /// After a perfbench set-up every rule holds at most one VNF instance
  /// and at most two next forwarders (DESIGN.md §15), so two inline
  /// candidates serve every deployed rule without a heap block.
  static constexpr std::uint32_t kInlineCandidates = 2;

  /// One candidate: the element and the prefix sum of the weights up to
  /// and including it.
  struct Candidate {
    ElementId element{kNoElement};
    double cumulative{0.0};
  };

  WeightedChoice() = default;
  WeightedChoice(const WeightedChoice& other);
  WeightedChoice& operator=(const WeightedChoice& other);
  /// A moved-from choice is empty.
  WeightedChoice(WeightedChoice&& other) noexcept;
  WeightedChoice& operator=(WeightedChoice&& other) noexcept;
  ~WeightedChoice() = default;

  void add(ElementId element, double weight);
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Picks deterministically from a 64-bit selector (e.g. a flow hash or
  /// an RNG draw): the same selector always picks the same element for an
  /// unchanged rule.
  [[nodiscard]] ElementId pick(std::uint64_t selector) const {
    SWB_DCHECK(size_ > 0);
    const std::span<const Candidate> all = elements();
    // Map the selector uniformly onto [0, total_weight).
    const double u = static_cast<double>(selector >> 11) * 0x1.0p-53 *
                     all.back().cumulative;
    const auto it = std::upper_bound(
        all.begin(), all.end(), u,
        [](double value, const Candidate& c) { return value < c.cumulative; });
    const std::size_t index = std::min(
        static_cast<std::size_t>(it - all.begin()), all.size() - 1);
    return all[index].element;
  }

  [[nodiscard]] std::span<const Candidate> elements() const {
    return {spill_ ? spill_.get() : inline_, size_};
  }
  [[nodiscard]] double total_weight() const {
    return size_ == 0 ? 0.0 : elements().back().cumulative;
  }
  [[nodiscard]] double weight_of(ElementId element) const;

  /// Audits the cumulative-weight prefix sums (aborts via SWB_CHECK on
  /// violation): strictly increasing finite cumulative weights (every
  /// per-element weight > 0), valid element ids, and candidates inline
  /// exactly while they fit.
  void check_invariants() const;

 private:
  std::uint32_t size_{0};
  std::uint32_t capacity_{kInlineCandidates};
  Candidate inline_[kInlineCandidates];
  /// The candidates once more than kInlineCandidates were added; capacity_
  /// entries long.  inline_ is unused while it is set.
  std::unique_ptr<Candidate[]> spill_;
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

/// The rules of one forwarder: a linear-probing array of slots, each
/// holding its Labels key and its rule inline.  The array doubles when it
/// would pass half full; remove() shifts the rest of the probe run back,
/// so no tombstones exist.  A find() result stays valid until the next
/// install() or remove() on the same table.
class RuleTable {
 public:
  /// Inserts or replaces the rule for (chain, egress) labels.
  void install(const Labels& labels, LoadBalanceRule rule);
  void remove(const Labels& labels);
  [[nodiscard]] const LoadBalanceRule* find(const Labels& labels) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[probe(labels)];
    return slot.occupied ? &slot.rule : nullptr;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots in the array (0 before the first install, else a power of two).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// The hash whose low bits pick a rule's home slot.
  [[nodiscard]] static constexpr std::uint64_t hash(const Labels& labels) {
    return mix64((static_cast<std::uint64_t>(labels.chain) << 32) |
                 labels.egress_site);
  }

  /// ROUTE EPOCH: monotone version bumped by every install()/remove().
  /// Steering annotations stamped with an older version are stale and
  /// must be re-derived (packet.hpp SteeringAnnotation::valid_for).
  /// Starts at 1 so the annotation default (kNoRouteEpoch == 0) never
  /// validates.
  [[nodiscard]] std::uint32_t version() const { return version_; }

  /// Audits every installed rule (see LoadBalanceRule::check_invariants)
  /// and the array: the load bound, the occupied count, each key found
  /// from its home slot, and empty slots holding empty rules.
  void check_invariants() const;

 private:
  struct alignas(64) Slot {
    Labels labels;
    bool occupied{false};
    LoadBalanceRule rule;
  };
  static_assert(sizeof(Slot) == 128 && alignof(Slot) == 64,
                "a slot is two whole cache lines");

  /// The slot holding `labels`, else the empty slot ending its probe run.
  /// Requires a non-empty array.
  [[nodiscard]] std::size_t probe(const Labels& labels) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash(labels)) & mask;
    while (slots_[i].occupied && !(slots_[i].labels == labels)) {
      i = (i + 1) & mask;
    }
    return i;
  }
  /// Doubles the array (8 slots at first) and re-inserts every rule.
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_{0};
  std::uint32_t version_{1};
};

}  // namespace switchboard::dataplane
