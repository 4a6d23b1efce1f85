// Unit tests for the epoch-based reclamation domain (common/epoch.hpp):
// grace periods, deferred vs eager reclamation, nested pins, guard RAII,
// typed deleters, and quiesced teardown.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>

#include "common/epoch.hpp"

namespace switchboard::swb {
namespace {

/// Counts deletions so tests can observe exactly when reclamation runs.
struct Tracked {
  explicit Tracked(int* counter) : counter_{counter} {}
  ~Tracked() { ++*counter_; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;

 private:
  int* counter_;
};

TEST(EpochDomain, RetireWithoutReadersFreesImmediately) {
  EpochDomain domain;
  int freed = 0;
  domain.retire(new Tracked{&freed});
  // No reader is pinned, so the grace period is already over: retire()'s
  // opportunistic reclaim frees the object on the spot.
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(EpochDomain, PinnedReaderDefersReclamation) {
  EpochDomain domain;
  int freed = 0;
  const std::size_t slot = domain.pin();
  domain.retire(new Tracked{&freed});
  EXPECT_EQ(freed, 0);
  EXPECT_EQ(domain.retired_count(), 1u);
  EXPECT_EQ(domain.try_reclaim(), 0u);   // still pinned: nothing frees
  EXPECT_EQ(freed, 0);

  domain.unpin(slot);
  EXPECT_EQ(domain.try_reclaim(), 1u);
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(EpochDomain, LateReaderDoesNotBlockEarlierRetirement) {
  EpochDomain domain;
  int freed = 0;
  const std::size_t early = domain.pin();
  domain.retire(new Tracked{&freed});   // stamped while `early` is pinned
  // A reader pinning AFTER the retirement observes the advanced epoch —
  // it can never reach the retired object, so it must not extend the
  // grace period.  The late reader is another thread: a second pin on
  // this thread would nest into `early`.
  std::atomic<bool> late_pinned{false};
  std::atomic<bool> late_may_unpin{false};
  std::thread late{[&] {
    const EpochGuard guard{domain};
    late_pinned.store(true, std::memory_order_release);
    while (!late_may_unpin.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }};
  while (!late_pinned.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  EXPECT_EQ(domain.pinned_readers(), 2u);
  domain.unpin(early);
  EXPECT_EQ(domain.try_reclaim(), 1u);
  EXPECT_EQ(freed, 1);
  late_may_unpin.store(true, std::memory_order_release);
  late.join();
  EXPECT_EQ(domain.pinned_readers(), 0u);
}

TEST(EpochDomain, NestedPinsShareOneSlot) {
  EpochDomain domain;
  int freed = 0;
  const std::size_t outer = domain.pin();
  domain.retire(new Tracked{&freed});   // retired between the two pins
  const std::size_t inner = domain.pin();
  EXPECT_EQ(inner, outer);
  EXPECT_EQ(domain.pinned_readers(), 1u);

  // The inner pin kept the outer epoch: its unpin ends nothing.
  domain.unpin(inner);
  EXPECT_EQ(domain.pinned_readers(), 1u);
  EXPECT_EQ(domain.try_reclaim(), 0u);
  EXPECT_EQ(freed, 0);

  domain.unpin(outer);
  EXPECT_EQ(domain.pinned_readers(), 0u);
  EXPECT_EQ(domain.try_reclaim(), 1u);
  EXPECT_EQ(freed, 1);
}

TEST(EpochDomain, GuardPinsAndUnpinsRaii) {
  EpochDomain domain;
  EXPECT_EQ(domain.pinned_readers(), 0u);
  {
    const EpochGuard guard{domain};
    EXPECT_EQ(domain.pinned_readers(), 1u);
  }
  EXPECT_EQ(domain.pinned_readers(), 0u);
}

TEST(EpochDomain, RetireAdvancesTheGlobalEpoch) {
  EpochDomain domain;
  const std::uint64_t before = domain.current_epoch();
  int freed = 0;
  domain.retire(new Tracked{&freed});
  EXPECT_EQ(domain.current_epoch(), before + 1);
}

TEST(EpochDomain, RawDeleterForm) {
  EpochDomain domain;
  int freed = 0;
  auto* object = new Tracked{&freed};
  domain.retire(static_cast<void*>(object),
                [](void* p) { delete static_cast<Tracked*>(p); });
  EXPECT_EQ(freed, 1);
}

TEST(EpochDomain, DestructorReclaimsEverythingOutstanding) {
  int freed = 0;
  {
    EpochDomain domain;
    const std::size_t slot = domain.pin();
    domain.retire(new Tracked{&freed});
    domain.retire(new Tracked{&freed});
    domain.unpin(slot);
    // Deliberately no try_reclaim(): teardown must free the backlog.
    EXPECT_EQ(freed, 0);
  }
  EXPECT_EQ(freed, 2);
}

TEST(EpochDomain, SlotsAreReusableAcrossPinCycles) {
  EpochDomain domain;
  // Far more pin/unpin cycles than kMaxReaders: a thread pins through
  // its one slot every time, so cycles never run out of slots.
  for (std::size_t i = 0; i < EpochDomain::kMaxReaders * 4; ++i) {
    const EpochGuard guard{domain};
    EXPECT_EQ(domain.pinned_readers(), 1u);
  }
  EXPECT_EQ(domain.pinned_readers(), 0u);
}

}  // namespace
}  // namespace switchboard::swb
