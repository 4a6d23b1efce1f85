#include "dataplane/load_balancer.hpp"

#include <bit>
#include <cmath>
#include <utility>

namespace switchboard::dataplane {

WeightedChoice::WeightedChoice(const WeightedChoice& other)
    : size_{other.size_} {
  const std::span<const Candidate> from = other.elements();
  Candidate* to = inline_;
  if (size_ > kInlineCandidates) {
    capacity_ = size_;
    spill_ = std::make_unique<Candidate[]>(capacity_);
    to = spill_.get();
  }
  std::copy(from.begin(), from.end(), to);
}

WeightedChoice& WeightedChoice::operator=(const WeightedChoice& other) {
  if (this != &other) *this = WeightedChoice{other};
  return *this;
}

WeightedChoice::WeightedChoice(WeightedChoice&& other) noexcept {
  *this = std::move(other);
}

WeightedChoice& WeightedChoice::operator=(WeightedChoice&& other) noexcept {
  if (this == &other) return *this;
  size_ = std::exchange(other.size_, 0);
  capacity_ = std::exchange(other.capacity_, kInlineCandidates);
  std::copy(std::begin(other.inline_), std::end(other.inline_), inline_);
  spill_ = std::move(other.spill_);
  return *this;
}

void WeightedChoice::add(ElementId element, double weight) {
  SWB_CHECK(weight > 0);
  const double cumulative = total_weight() + weight;
  if (size_ == capacity_) {
    // Past the inline candidates (or a full spill block): move them all
    // to a block twice as large.
    auto grown = std::make_unique<Candidate[]>(2 * capacity_);
    const std::span<const Candidate> old = elements();
    std::copy(old.begin(), old.end(), grown.get());
    spill_ = std::move(grown);
    capacity_ *= 2;
  }
  Candidate* candidates = spill_ ? spill_.get() : inline_;
  candidates[size_++] = Candidate{element, cumulative};
}

double WeightedChoice::weight_of(ElementId element) const {
  const std::span<const Candidate> all = elements();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].element == element) {
      return all[i].cumulative - (i == 0 ? 0.0 : all[i - 1].cumulative);
    }
  }
  return 0.0;
}

void WeightedChoice::check_invariants() const {
  SWB_CHECK_LE(size_, capacity_);
  SWB_CHECK_EQ(spill_ != nullptr, capacity_ > kInlineCandidates)
      << "candidates must stay inline exactly while they fit";
  double previous = 0.0;
  for (const Candidate& candidate : elements()) {
    SWB_CHECK(std::isfinite(candidate.cumulative))
        << "non-finite cumulative weight for element " << candidate.element;
    // Strictly increasing prefix sums <=> every element weight positive;
    // a zero-width band could never be picked yet would absorb a slot.
    SWB_CHECK_GT(candidate.cumulative, previous)
        << "element " << candidate.element << " has non-positive weight";
    previous = candidate.cumulative;
    SWB_CHECK_NE(candidate.element, kNoElement);
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
  ++version_;
  if (slots_.empty()) grow();
  std::size_t i = probe(labels);
  if (!slots_[i].occupied) {
    // A new key; a replace never moves other rules.
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      i = probe(labels);
    }
    slots_[i].labels = labels;
    slots_[i].occupied = true;
    ++size_;
  }
  slots_[i].rule = std::move(rule);
}

void RuleTable::remove(const Labels& labels) {
  ++version_;
  if (size_ == 0) return;
  std::size_t hole = probe(labels);
  if (!slots_[hole].occupied) return;
  // Backward shift: walk the rest of the probe run and move back each
  // rule whose home lies at or before the hole, so every key stays
  // reachable from its home without tombstones.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; slots_[next].occupied;
       next = (next + 1) & mask) {
    const std::size_t home =
        static_cast<std::size_t>(hash(slots_[next].labels)) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = std::move(slots_[next]);
      hole = next;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void RuleTable::grow() {
  std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(std::max<std::size_t>(8, 2 * slots_.size())));
  for (Slot& slot : old) {
    if (slot.occupied) slots_[probe(slot.labels)] = std::move(slot);
  }
}

void RuleTable::check_invariants() const {
  SWB_CHECK_LE(2 * size_, slots_.size()) << "rule table past half full";
  SWB_CHECK(slots_.empty() || std::has_single_bit(slots_.size()));
  std::size_t occupied = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (!slot.occupied) {
      SWB_CHECK(slot.rule.vnf_instances.empty() &&
                slot.rule.next_forwarders.empty())
          << "empty slot " << i << " still holds a rule";
      continue;
    }
    ++occupied;
    // No empty slot and no earlier copy of the key between its home and
    // here: find() reaches exactly this slot.
    SWB_CHECK_EQ(probe(slot.labels), i)
        << "rule (" << slot.labels.chain << ", " << slot.labels.egress_site
        << ") unreachable from its home slot";
    slot.rule.check_invariants();
  }
  SWB_CHECK_EQ(occupied, size_);
}

}  // namespace switchboard::dataplane
