// The open-addressing RuleTable and the inline-candidate WeightedChoice
// against plain references: a std::unordered_map of rules, and the
// vector + std::upper_bound pick that WeightedChoice must reproduce bit
// for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataplane/load_balancer.hpp"
#include "dataplane/packet.hpp"

namespace switchboard::dataplane {
namespace {

// A rule and its key fill one 128-byte slot (the header asserts the slot).
static_assert(sizeof(WeightedChoice) == 48);
static_assert(sizeof(LoadBalanceRule) == 96);
static_assert(alignof(LoadBalanceRule) <= 64);

/// The pick as a pair of vectors: prefix sums, the selector mapped onto
/// [0, total) and the first prefix sum above it.
struct ReferenceChoice {
  std::vector<ElementId> elements;
  std::vector<double> cumulative;

  void add(ElementId element, double weight) {
    elements.push_back(element);
    cumulative.push_back((cumulative.empty() ? 0.0 : cumulative.back()) +
                         weight);
  }
  [[nodiscard]] ElementId pick(std::uint64_t selector) const {
    const double u =
        static_cast<double>(selector >> 11) * 0x1.0p-53 * cumulative.back();
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const std::size_t index = std::min(
        static_cast<std::size_t>(it - cumulative.begin()),
        elements.size() - 1);
    return elements[index];
  }
};

std::vector<std::uint64_t> selectors(std::size_t count, std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  out.reserve(count + 2);
  out.push_back(0);
  out.push_back(~std::uint64_t{0});
  for (std::size_t i = 0; i < count; ++i) out.push_back(mix64(seed + i));
  return out;
}

/// Expects `choice` to hold exactly `reference` and to pick like it.
void expect_same_choice(const WeightedChoice& choice,
                        const ReferenceChoice& reference,
                        const std::vector<std::uint64_t>& draws) {
  ASSERT_EQ(choice.size(), reference.elements.size());
  choice.check_invariants();
  const auto candidates = choice.elements();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i].element, reference.elements[i]);
    EXPECT_EQ(candidates[i].cumulative, reference.cumulative[i]);
  }
  if (reference.elements.empty()) return;
  EXPECT_EQ(choice.total_weight(), reference.cumulative.back());
  std::size_t differing = 0;
  for (const std::uint64_t s : draws) {
    if (choice.pick(s) != reference.pick(s)) ++differing;
  }
  EXPECT_EQ(differing, 0u);
}

// ------------------------------------------------------------ WeightedChoice

TEST(WeightedChoiceLayout, PicksLikeTheVectorReferenceInlineAndSpilled) {
  const std::vector<std::uint64_t> draws = selectors(10'000, 17);
  std::mt19937_64 rng{42};
  std::uniform_real_distribution<double> weight{0.01, 10.0};
  constexpr std::uint32_t kMax = WeightedChoice::kInlineCandidates + 3;
  for (std::uint32_t n = 1; n <= kMax; ++n) {
    SCOPED_TRACE(n);
    WeightedChoice choice;
    ReferenceChoice reference;
    for (std::uint32_t i = 0; i < n; ++i) {
      // Powers of two make some selectors land exactly on a boundary.
      const double w = i % 2 == 0 ? weight(rng) : double(1u << i);
      choice.add(100 + i, w);
      reference.add(100 + i, w);
    }
    expect_same_choice(choice, reference, draws);
    for (std::uint32_t i = 0; i < n; ++i) {
      const double below = i == 0 ? 0.0 : reference.cumulative[i - 1];
      EXPECT_EQ(choice.weight_of(100 + i), reference.cumulative[i] - below);
    }
    EXPECT_EQ(choice.weight_of(7), 0.0);

    // Copies and moves keep the candidates and the picks.
    const WeightedChoice copied{choice};
    expect_same_choice(copied, reference, draws);
    WeightedChoice assigned;
    assigned.add(9, 1.0);
    for (std::uint32_t i = 0; i < kMax; ++i) assigned.add(10 + i, 2.0);
    assigned = copied;
    expect_same_choice(assigned, reference, draws);
    WeightedChoice moved{std::move(assigned)};
    expect_same_choice(moved, reference, draws);
    EXPECT_TRUE(assigned.empty());   // NOLINT(bugprone-use-after-move)
    assigned.check_invariants();
    WeightedChoice move_assigned;
    move_assigned.add(9, 1.0);
    move_assigned = std::move(moved);
    expect_same_choice(move_assigned, reference, draws);
    EXPECT_TRUE(moved.empty());   // NOLINT(bugprone-use-after-move)

    // A copy grows on its own, past its exact-size spill block.
    WeightedChoice grown{copied};
    ReferenceChoice grown_reference = reference;
    for (std::uint32_t i = 0; i < 3; ++i) {
      grown.add(200 + i, 0.5);
      grown_reference.add(200 + i, 0.5);
    }
    expect_same_choice(grown, grown_reference, draws);
    expect_same_choice(copied, reference, draws);
  }
}

// ----------------------------------------------------------------- RuleTable

struct LabelsHash {
  std::size_t operator()(const Labels& labels) const {
    return static_cast<std::size_t>(RuleTable::hash(labels));
  }
};

/// Labels whose hash ends in `low` on its 8 low bits: they share one home
/// slot in every table of up to 256 slots.
std::vector<Labels> sharing_home(std::uint64_t low, std::size_t count) {
  std::vector<Labels> out;
  for (std::uint32_t chain = 1; out.size() < count; ++chain) {
    const Labels labels{chain, 900};
    if ((RuleTable::hash(labels) & 0xFF) == low) out.push_back(labels);
  }
  return out;
}

LoadBalanceRule rule_for(ElementId base, std::uint32_t instances,
                         std::uint32_t next_hops) {
  LoadBalanceRule rule;
  for (std::uint32_t i = 0; i < instances; ++i) {
    rule.vnf_instances.add(base + i, 1.0 + i);
  }
  for (std::uint32_t i = 0; i < next_hops; ++i) {
    rule.next_forwarders.add(base + 50 + i, 0.5 + i);
  }
  return rule;
}

/// Both picks of `rule` for every draw (kNoElement for an empty choice).
std::vector<ElementId> picks_of(const LoadBalanceRule& rule,
                                const std::vector<std::uint64_t>& draws) {
  std::vector<ElementId> out;
  out.reserve(2 * draws.size());
  for (const std::uint64_t s : draws) {
    out.push_back(rule.vnf_instances.empty() ? kNoElement
                                             : rule.vnf_instances.pick(s));
    out.push_back(rule.next_forwarders.empty()
                      ? kNoElement
                      : rule.next_forwarders.pick(s));
  }
  return out;
}

/// The reference: an unordered_map of rules, plus each rule's picks taken
/// when it was installed.
struct Reference {
  std::unordered_map<Labels, LoadBalanceRule, LabelsHash> rules;
  std::unordered_map<Labels, std::vector<ElementId>, LabelsHash> picks;

  void install(const Labels& labels, const LoadBalanceRule& rule,
               const std::vector<std::uint64_t>& draws) {
    rules[labels] = rule;
    picks[labels] = picks_of(rule, draws);
  }
  void remove(const Labels& labels) {
    rules.erase(labels);
    picks.erase(labels);
  }
};

/// Checks `table` against `reference` over every key in `keys`.
void expect_same_table(const RuleTable& table, const Reference& reference,
                       const std::vector<Labels>& keys,
                       const std::vector<std::uint64_t>& draws) {
  table.check_invariants();
  ASSERT_EQ(table.size(), reference.rules.size());
  for (const Labels& labels : keys) {
    const LoadBalanceRule* found = table.find(labels);
    const auto it = reference.rules.find(labels);
    ASSERT_EQ(found != nullptr, it != reference.rules.end())
        << "labels (" << labels.chain << ", " << labels.egress_site << ")";
    if (found == nullptr) continue;
    ASSERT_EQ(found->vnf_instances.size(), it->second.vnf_instances.size());
    ASSERT_EQ(found->next_forwarders.size(),
              it->second.next_forwarders.size());
    ASSERT_TRUE(picks_of(*found, draws) == reference.picks.at(labels))
        << "labels (" << labels.chain << ", " << labels.egress_site << ")";
  }
}

TEST(RuleTableLayout, SharedHomeSlotWrapsAndBackwardShiftKeepsKeysReachable) {
  // Three keys homed on the last slot wrap to slots 0 and 1; a key homed
  // on slot 0 then sits at slot 2.  Removing the first shifts all three
  // back by one.
  const std::vector<std::uint64_t> draws = selectors(100, 3);
  const std::vector<Labels> last = sharing_home(0xFF, 3);
  const std::vector<Labels> first = sharing_home(0x00, 1);
  const std::vector<Labels> keys{last[0], last[1], last[2], first[0]};
  RuleTable table;
  Reference reference;
  ElementId base = 1000;
  for (const Labels& labels : keys) {
    table.install(labels, rule_for(base, 1, 2));
    reference.install(labels, rule_for(base, 1, 2), draws);
    base += 100;
  }
  ASSERT_EQ(table.slot_count(), 8u);
  expect_same_table(table, reference, keys, draws);
  for (const Labels& labels : keys) {
    table.remove(labels);
    reference.remove(labels);
    expect_same_table(table, reference, keys, draws);
  }
  EXPECT_EQ(table.version(), 1u + 2 * keys.size());
}

TEST(RuleTableLayout, RandomInstallReplaceRemoveMatchesUnorderedMap) {
  const std::vector<std::uint64_t> draws = selectors(10'000, 5);
  // Ordinary keys plus two groups that each share a home slot — the last
  // one, whose runs wrap past the array end, and the first.
  std::vector<Labels> keys;
  for (std::uint32_t chain = 1; chain <= 6; ++chain) {
    for (std::uint32_t egress = 1; egress <= 2; ++egress) {
      keys.push_back(Labels{chain, egress});
    }
  }
  for (const Labels& labels : sharing_home(0xFF, 8)) keys.push_back(labels);
  for (const Labels& labels : sharing_home(0x00, 4)) keys.push_back(labels);

  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng{seed};
    RuleTable table;
    Reference reference;
    std::uint32_t version = 1;
    for (int op = 0; op < 80; ++op) {
      const Labels labels = keys[rng() % keys.size()];
      if (rng() % 5 < 3) {
        // Install or replace; up to 4 candidates per choice, so some spill.
        const auto base = static_cast<ElementId>(1000 + 100 * op);
        const auto instances = static_cast<std::uint32_t>(rng() % 5);
        const auto next_hops = static_cast<std::uint32_t>(rng() % 5);
        LoadBalanceRule rule = rule_for(base, instances, next_hops);
        reference.install(labels, rule, draws);
        table.install(labels, std::move(rule));
      } else {
        reference.remove(labels);
        table.remove(labels);
      }
      ++version;
      ASSERT_EQ(table.version(), version);
      ASSERT_LE(table.slot_count(), 256u);   // sharing_home holds
      expect_same_table(table, reference, keys, draws);
    }
  }
}

}  // namespace
}  // namespace switchboard::dataplane
