// TSan/ASan stress for swb::EpochDomain's thread-owned reader slots
// (common/epoch.hpp), run by CI's tsan concurrency-stress step with the
// other *_concurrency_test binaries (TSAN_OPTIONS=halt_on_error=1).
//
// Reader threads take NESTED pins on two domains and dereference objects
// a writer keeps replacing and retiring.  What it checks:
//   * no reclaimed memory: a payload is read under a pin, and again after
//     a nested pin of the same domain ends; a grace period that ended at
//     the inner unpin would free it under the outer one.  ASan and TSan
//     flag that access; elsewhere the destructor's scrub may show it as
//     a payload that is not intact;
//   * reader ids recycle: the test starts more than kMaxReaders
//     short-lived threads, a few at a time.  Each claims a reader id at
//     its first pin and frees it at exit, so every id stays below the
//     number of threads alive at once; without recycling the 65th thread
//     would abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/epoch.hpp"

namespace switchboard::swb {
namespace {

/// A retired object: `check` is always the complement of `generation`
/// while the payload is alive; the destructor scrubs both.
struct Payload {
  explicit Payload(std::uint64_t g) : generation{g}, check{~g} {}
  ~Payload() {
    generation = 0;
    check = 0;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;

  [[nodiscard]] bool intact() const { return check == ~generation; }

  std::uint64_t generation;
  std::uint64_t check;
};

/// One epoch-protected pointer and the domain that guards it.
struct Protected {
  EpochDomain domain;
  std::atomic<Payload*> current{new Payload{1}};

  Protected() = default;
  Protected(const Protected&) = delete;
  Protected& operator=(const Protected&) = delete;
  ~Protected() { delete current.load(std::memory_order_acquire); }

  /// Writer side: publish a replacement, then retire the old payload.
  void replace(std::uint64_t generation) {
    Payload* old = current.exchange(new Payload{generation},
                                    std::memory_order_acq_rel);
    domain.retire(old);
  }
};

TEST(EpochConcurrency, NestedPinsOnTwoDomainsRaceRetirementAcrossIdReuse) {
  constexpr std::size_t kThreadsPerWave = 4;
  constexpr std::size_t kWaves =
      EpochDomain::kMaxReaders / kThreadsPerWave + 4;
  constexpr int kRoundsPerThread = 2000;
  static_assert(kThreadsPerWave * kWaves > EpochDomain::kMaxReaders);

  Protected first;
  Protected second;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::size_t> highest_slot{0};

  std::thread writer{[&] {
    std::uint64_t generation = 2;
    while (!stop.load(std::memory_order_acquire)) {
      first.replace(generation);
      second.replace(generation);
      ++generation;
      std::this_thread::yield();
    }
  }};

  auto reader = [&] {
    std::uint64_t local_torn = 0;
    std::size_t local_highest = 0;
    for (int round = 0; round < kRoundsPerThread; ++round) {
      const std::size_t slot = first.domain.pin();
      local_highest = std::max(local_highest, slot);
      const Payload* outer = first.current.load(std::memory_order_acquire);
      {
        const EpochGuard other{second.domain};
        const Payload* other_payload =
            second.current.load(std::memory_order_acquire);
        {
          // Nested pin of the first domain: shares the outer slot and
          // epoch, and its end must not end the outer grace period.
          const EpochGuard nested{first.domain};
          const Payload* inner =
              first.current.load(std::memory_order_acquire);
          if (!inner->intact()) ++local_torn;
        }
        if (!other_payload->intact()) ++local_torn;
      }
      std::this_thread::yield();   // let the writer retire `outer`
      if (!outer->intact()) ++local_torn;
      first.domain.unpin(slot);
    }
    torn.fetch_add(local_torn, std::memory_order_relaxed);
    std::size_t seen = highest_slot.load(std::memory_order_relaxed);
    while (local_highest > seen &&
           !highest_slot.compare_exchange_weak(seen, local_highest,
                                               std::memory_order_relaxed)) {
    }
  };

  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kThreadsPerWave; ++t) {
      readers.emplace_back(reader);
    }
    for (std::thread& t : readers) t.join();
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(torn.load(), 0u) << "a payload was read after reclamation";
  // The writer never pins, and each wave's readers exit (freeing their
  // ids) before the next wave starts.
  EXPECT_LT(highest_slot.load(), kThreadsPerWave);
  for (Protected* p : {&first, &second}) {
    EXPECT_EQ(p->domain.pinned_readers(), 0u);
    (void)p->domain.try_reclaim();
    EXPECT_EQ(p->domain.retired_count(), 0u);
  }
}

}  // namespace
}  // namespace switchboard::swb
