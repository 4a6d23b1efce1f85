// Multi-threaded stress tests for ShardedFlowTable, built to run under the
// tsan preset (CI runs every *_concurrency_test binary with
// TSAN_OPTIONS=halt_on_error=1).  Writers and readers use OVERLAPPING key
// sets so find/insert/erase genuinely race on the same shards; audits run
// concurrently to prove the all-shards-in-index-order lock discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "dataplane/sharded_flow_table.hpp"

namespace switchboard::dataplane {
namespace {

FiveTuple make_tuple(std::uint32_t i) {
  return FiveTuple{0x0A000000u + i, 0xC0A80001u,
                   static_cast<std::uint16_t>(1000 + (i % 60000)), 80, 6};
}

// N writers insert/erase over overlapping key ranges while M readers spin
// find() over the union.  Afterwards the table must satisfy every
// structural invariant and the per-shard counters must agree with the
// surviving entries.
TEST(ShardedFlowTableConcurrency, WritersAndReadersOverlappingKeys) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kReaders = 3;
  constexpr std::uint32_t kKeysPerWriter = 2000;
  constexpr std::uint32_t kOverlap = 500;   // shared tail between neighbors

  ShardedFlowTable table{1024, 16};
  const Labels labels{1, 1};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint32_t i = static_cast<std::uint32_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t key = i++ % (kWriters * kKeysPerWriter);
        if (const auto entry = table.find(labels, make_tuple(key))) {
          // Entries are only ever written with value == key: a torn or
          // half-constructed entry would fail this.
          EXPECT_EQ(entry->vnf_instance, key);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Writer w owns [base, base + kKeysPerWriter) and also churns the
      // first kOverlap keys of the NEXT writer's range (the overlap).
      const std::uint32_t base =
          static_cast<std::uint32_t>(w) * kKeysPerWriter;
      const std::uint32_t next_base =
          static_cast<std::uint32_t>((w + 1) % kWriters) * kKeysPerWriter;
      for (int round = 0; round < 10; ++round) {
        for (std::uint32_t i = 0; i < kKeysPerWriter; ++i) {
          const std::uint32_t key = base + i;
          table.insert(labels, make_tuple(key), FlowEntry{key, key, key});
        }
        for (std::uint32_t i = 0; i < kOverlap; ++i) {
          const std::uint32_t key = next_base + i;
          table.insert_if_absent(labels, make_tuple(key),
                                 FlowEntry{key, key, key});
        }
        // Erase the odd half of the owned range; the final round leaves
        // only even keys of each owned range live (overlap keys may or
        // may not survive, depending on interleaving — both are valid).
        for (std::uint32_t i = 1; i < kKeysPerWriter; i += 2) {
          (void)table.erase(labels, make_tuple(base + i));
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  // Readers checked every hit's entry as they read it.  Live size can
  // never exceed inserts minus successful erases (audited per shard
  // inside check_invariants(), asserted on the aggregate here).
  const ShardedFlowTable::Stats stats = table.stats();
  EXPECT_GE(stats.inserts, kWriters * kKeysPerWriter);
  EXPECT_LE(table.size() + stats.erases, stats.inserts);

  // Deterministic survivors: every even key of every owned range (erases
  // only target odd keys; the last full insert round rewrote all of them).
  for (std::uint32_t w = 0; w < kWriters; ++w) {
    for (std::uint32_t i = 0; i < kKeysPerWriter; i += 2) {
      const std::uint32_t key = w * kKeysPerWriter + i;
      const auto entry = table.find(labels, make_tuple(key));
      ASSERT_TRUE(entry.has_value()) << key;
      EXPECT_EQ(entry->vnf_instance, key);
    }
  }
  table.check_invariants();
}

// Whole-table audits (all shard locks in index order) run concurrently
// with workers hammering single-shard operations — no deadlock, no race.
TEST(ShardedFlowTableConcurrency, AuditsRunConcurrentlyWithWorkers) {
  ShardedFlowTable table{512, 8};
  const Labels labels{2, 2};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      std::uint32_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(w) * 100000 + (i % 3000);
        table.insert(labels, make_tuple(key), FlowEntry{key, key, key});
        if (i % 3 == 0) (void)table.erase(labels, make_tuple(key));
        ++i;
      }
    });
  }

  for (int audit = 0; audit < 50; ++audit) {
    table.check_invariants();
    (void)table.size();
    (void)table.stats();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();
  table.check_invariants();
}

// clear() + for_each() vs writers: whole-table ops serialize against
// single-shard ops without losing structural consistency.
TEST(ShardedFlowTableConcurrency, ClearAndIterateUnderWrites) {
  ShardedFlowTable table{256, 8};
  const Labels labels{3, 3};
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      std::uint32_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(w) * 50000 + (i++ % 2000);
        table.insert(labels, make_tuple(key), FlowEntry{key, key, key});
      }
    });
  }

  for (int round = 0; round < 30; ++round) {
    std::size_t visited = 0;
    table.for_each([&](const Labels&, const FiveTuple&, const FlowEntry& entry) {
      // Value integrity under the all-shards lock.
      EXPECT_EQ(entry.vnf_instance, entry.next_forwarder);
      ++visited;
    });
    if (round % 10 == 9) table.clear();
    (void)visited;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  table.check_invariants();
}

}  // namespace
}  // namespace switchboard::dataplane
