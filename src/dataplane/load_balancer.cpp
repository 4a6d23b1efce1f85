#include "dataplane/load_balancer.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace switchboard::dataplane {

void WeightedChoice::add(ElementId element, double weight) {
  SWB_CHECK(weight > 0);
  elements_.push_back(element);
  cumulative_.push_back(total_weight() + weight);
}

ElementId WeightedChoice::pick(std::uint64_t selector) const {
  SWB_DCHECK(!elements_.empty());
  // Map the selector uniformly onto [0, total_weight).
  const double u =
      static_cast<double>(selector >> 11) * 0x1.0p-53 * total_weight();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  const std::size_t index = std::min(
      static_cast<std::size_t>(it - cumulative_.begin()),
      elements_.size() - 1);
  return elements_[index];
}

double WeightedChoice::weight_of(ElementId element) const {
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    if (elements_[i] == element) {
      return cumulative_[i] - (i == 0 ? 0.0 : cumulative_[i - 1]);
    }
  }
  return 0.0;
}

void WeightedChoice::check_invariants() const {
  SWB_CHECK_EQ(elements_.size(), cumulative_.size());
  double previous = 0.0;
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    SWB_CHECK(std::isfinite(cumulative_[i]))
        << "non-finite cumulative weight at index " << i;
    // Strictly increasing prefix sums <=> every element weight positive;
    // a zero-width band could never be picked yet would absorb a slot.
    SWB_CHECK_GT(cumulative_[i], previous)
        << "element " << elements_[i] << " has non-positive weight";
    previous = cumulative_[i];
    SWB_CHECK_NE(elements_[i], kNoElement);
  }
}

void LoadBalanceRule::check_invariants() const {
  vnf_instances.check_invariants();
  next_forwarders.check_invariants();
}

void RuleTable::install(const Labels& labels, LoadBalanceRule rule) {
#ifndef NDEBUG
  rule.check_invariants();
#endif
  rules_[labels] = std::move(rule);
  ++version_;
}

void RuleTable::remove(const Labels& labels) {
  rules_.erase(labels);
  ++version_;
}

const LoadBalanceRule* RuleTable::find(const Labels& labels) const {
  const auto it = rules_.find(labels);
  return it == rules_.end() ? nullptr : &it->second;
}

void RuleTable::check_invariants() const {
  for (const auto& [labels, rule] : rules_) rule.check_invariants();
}

}  // namespace switchboard::dataplane
