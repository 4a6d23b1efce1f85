// ControllerState's snapshot against the whole-state reference encoder
// (tests/reference/snapshot_reference.*): the cached chain blocks must
// give the exact bytes of encoding every record afresh, after every
// record of a seeded sequence over all ten kinds (rejected ones
// included), after owners write route weights and `active`, and after the
// state is copied or moved the way a warm failover hands it over.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "control/codec.hpp"
#include "control/controller_state.hpp"
#include "control/state_journal.hpp"
#include "reference/snapshot_reference.hpp"

namespace switchboard::control {
namespace {

constexpr std::uint32_t kChainIds = 6;
constexpr std::uint32_t kRouteIds = 8;

bool any_id(const JournalRecord&) { return true; }
bool no_id(const JournalRecord&) { return false; }

/// Draws ids over a few chains, routes, VNFs and sites, so that inserts
/// land mid-vector and duplicates, begins for committed routes and
/// commits without a begin all occur.  Round records aim at a live round
/// or a committed route half of the time, so commits, aborts and
/// retires that change a chain are common; many records do not fit.
class RecordSource {
 public:
  explicit RecordSource(std::uint64_t seed) : rng_{seed} {}

  JournalRecord next(const ControllerState& state) {
    const ChainId chain{pick(kChainIds)};
    const RouteId route{pick(kRouteIds)};
    switch (pick(10)) {
      case 0:
        return EpochRecord{pick(8)};
      case 1:
        return NextRouteRecord{pick(2 * kRouteIds)};
      case 2: {
        ChainRecord r;
        r.id = chain;
        r.spec.name = "c" + std::to_string(chain.value());
        r.spec.ingress_node = NodeId{pick(4)};
        r.spec.egress_node = NodeId{pick(4)};
        r.spec.vnfs.resize(1 + pick(3), VnfId{pick(3)});
        r.spec.forward_traffic = 1.0 / (1 + pick(7));
        r.labels = dataplane::Labels{1000 + chain.value(), pick(4)};
        r.ingress_site = SiteId{pick(4)};
        r.egress_site = SiteId{pick(4)};
        return r;
      }
      case 3: {
        // Mostly a begin that fits a known chain, so that rounds commit.
        const ChainRecord* known =
            state.chains.empty() || pick(4) == 0
                ? state.find_chain(chain)
                : &state.chains[pick(
                      static_cast<std::uint32_t>(state.chains.size()))];
        std::size_t stages = 1 + pick(3);
        if (known != nullptr && pick(4) != 0) {
          stages = known->spec.vnfs.size();
        }
        std::vector<SiteId> sites;
        for (std::size_t z = 0; z < stages; ++z) {
          sites.push_back(SiteId{pick(4)});
        }
        return BeginRecord{known != nullptr ? known->id : chain, route,
                           std::move(sites)};
      }
      case 4:
        return aimed<PrepRecord>(state, chain, route, /*committed=*/false);
      case 5:
        return aimed<CommitRecord>(state, chain, route, /*committed=*/false);
      case 6:
        return aimed<AbortRecord>(state, chain, route, pick(2) == 0);
      case 7:
        return aimed<RetireRecord>(state, chain, route, /*committed=*/true);
      case 8:
        return PoolDownRecord{VnfId{pick(3)}, SiteId{pick(4)},
                              0.5 * (1 + pick(4))};
      default:
        return PoolUpRecord{VnfId{pick(3)}, SiteId{pick(4)}};
    }
  }

  std::uint32_t pick(std::uint32_t n) {
    return static_cast<std::uint32_t>(rng_() % n);
  }

 private:
  /// A round record for a random (chain, route), or half of the time for
  /// a live round (or, with `committed`, a committed route).
  template <typename Round>
  Round aimed(const ControllerState& state, ChainId chain, RouteId route,
              bool committed) {
    if (pick(2) == 0) return Round{chain, route};
    std::vector<std::pair<ChainId, RouteId>> targets;
    if (committed) {
      for (const ChainRecord& c : state.chains) {
        for (const RouteRecord& r : c.routes) {
          targets.emplace_back(c.id, r.id);
        }
      }
    } else {
      for (const auto& [key, round] : state.inflight) {
        targets.emplace_back(ChainId{key.first}, RouteId{key.second});
      }
    }
    if (targets.empty()) return Round{chain, route};
    const auto& [c, r] =
        targets[pick(static_cast<std::uint32_t>(targets.size()))];
    return Round{c, r};
  }

  std::mt19937_64 rng_;
};

/// What a durable controller writes: the snapshot blob.  What it must
/// equal: the join of the reference encoder's records.
void expect_reference_bytes(const ControllerState& state,
                            const std::string& where) {
  ASSERT_EQ(state.snapshot(), join_records(snapshot_reference(state)))
      << where;
  state.check_invariants();
}

/// The changes to chains a sequence made: the ones that drop a block.
struct Coverage {
  std::size_t mid_inserts{0};   // a chain inserted before another
  std::size_t commits{0};       // a route added
  std::size_t removals{0};      // a route removed by abort or retire
};

std::size_t route_count(const ControllerState& state) {
  std::size_t routes = 0;
  for (const ChainRecord& chain : state.chains) routes += chain.routes.size();
  return routes;
}

/// Applies `count` records from `source` the ways replay and the live
/// controller do — apply(), apply_line() of the encoding, a line that
/// does not decode, a record the id check rejects — and compares with
/// the reference after each.  Every few records it writes route weights
/// and `active` the way GlobalSwitchboard::restart() does.
void drive(ControllerState& state, RecordSource& source, int count,
           const std::string& label, Coverage& coverage) {
  for (int step = 0; step < count; ++step) {
    const JournalRecord record = source.next(state);
    const std::string line = encode_record(record);
    const std::size_t chains_before = state.chains.size();
    const ChainId last_before =
        state.chains.empty() ? ChainId{} : state.chains.back().id;
    const std::size_t routes_before = route_count(state);
    bool ok = false;
    switch (source.pick(8)) {
      case 0:
        ok = state.apply_line(line, any_id);
        break;
      case 1:
        EXPECT_FALSE(state.apply_line(line, no_id)) << line;
        break;
      case 2:
        EXPECT_FALSE(state.apply_line(line.substr(0, line.size() / 2) + "x",
                                      any_id))
            << line;
        break;
      default:
        ok = state.apply(record).ok();
        break;
    }
    if (ok && state.chains.size() > chains_before &&
        state.chains.back().id == last_before) {
      ++coverage.mid_inserts;
    }
    const std::size_t routes_after = route_count(state);
    if (routes_after > routes_before) ++coverage.commits;
    if (routes_after < routes_before) ++coverage.removals;
    if (source.pick(4) == 0) {
      for (ChainRecord& chain : state.chains) {
        chain.active = !chain.routes.empty();
        for (RouteRecord& route : chain.routes) {
          route.weight = 1.0 / static_cast<double>(chain.routes.size());
        }
      }
    }
    expect_reference_bytes(state, label + " step " + std::to_string(step) +
                                      " after " + line);
    if (testing::Test::HasFatalFailure()) return;
  }
}

class SnapshotCache : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotCache, ::testing::Values(1, 7, 1009));

TEST_P(SnapshotCache, BlobEqualsTheReferenceEncoderAfterEveryRecord) {
  RecordSource source{GetParam()};
  Coverage coverage;
  ControllerState state;
  drive(state, source, 400, "live", coverage);
  ASSERT_FALSE(HasFatalFailure());

  // A copy carries its blocks and caches on its own from then on.
  ControllerState copy = state;
  expect_reference_bytes(copy, "copy");
  drive(copy, source, 100, "copy", coverage);
  drive(state, source, 100, "original", coverage);
  ASSERT_FALSE(HasFatalFailure());

  // The warm-failover hand-over: the standby's state is moved out, then
  // moved into the coordinator.
  ControllerState handed = std::move(copy);
  expect_reference_bytes(handed, "moved");
  ControllerState adopted;
  adopted = std::move(handed);
  expect_reference_bytes(adopted, "move-assigned");
  drive(adopted, source, 100, "adopted", coverage);

  // Every change that drops a block happened, several times over.
  EXPECT_GE(coverage.mid_inserts, 3u);
  EXPECT_GE(coverage.commits, 10u);
  EXPECT_GE(coverage.removals, 10u);
}

TEST(SnapshotCache, AReplayedStateEncodesEveryBlockOnItsFirstSnapshot) {
  RecordSource source{42};
  Coverage coverage;
  ControllerState live;
  drive(live, source, 300, "live", coverage);
  ASSERT_FALSE(HasFatalFailure());
  const std::string blob = live.snapshot();

  ControllerState replayed;
  EXPECT_EQ(replayed.apply_lines(split_records(blob), any_id), 0u);
  EXPECT_EQ(replayed.snapshot(), blob);
  EXPECT_EQ(replayed.snapshot(), blob);   // every block cached now
  replayed.check_invariants();
}

TEST(SnapshotCacheDeathTest, AWireFieldWrittenOutsideApplyFailsTheAudit) {
  ChainRecord chain;
  chain.id = ChainId{3};
  chain.spec.name = "a";
  chain.spec.vnfs = {VnfId{0}};
  ControllerState state;
  ASSERT_TRUE(state.apply(chain).ok());
  ASSERT_TRUE(
      state.apply(BeginRecord{chain.id, RouteId{0}, {SiteId{1}}}).ok());
  ASSERT_TRUE(state.apply(CommitRecord{chain.id, RouteId{0}}).ok());
  (void)state.snapshot();   // caches the chain's block

  // Derived fields are not on the wire: the audit accepts them.
  state.chains.front().active = true;
  state.chains.front().routes.front().weight = 0.5;
  state.check_invariants();

  state.chains.front().routes.front().vnf_sites.front() = SiteId{2};
  EXPECT_DEATH(state.check_invariants(), "outside apply");
}

}  // namespace
}  // namespace switchboard::control
