// Single-threaded unit tests for ShardedFlowTable and the RSS helpers.
// Concurrency coverage lives in sharded_flow_table_concurrency_test.cpp.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "dataplane/sharded_flow_table.hpp"
#include "reference/lock_per_lookup.hpp"

namespace switchboard::dataplane {
namespace {

FiveTuple make_tuple(std::uint32_t i) {
  return FiveTuple{0x0A000000u + i, 0xC0A80001u,
                   static_cast<std::uint16_t>(1000 + (i % 60000)), 80, 6};
}

// ------------------------------------------------------------- RSS helpers

TEST(RssHelpers, ShardUsesTopBits) {
  EXPECT_EQ(rss_shard(0, 1), 0u);
  EXPECT_EQ(rss_shard(~0ull, 1), 0u);   // shift-by-64 special case
  EXPECT_EQ(rss_shard(0, 8), 0u);
  EXPECT_EQ(rss_shard(~0ull, 8), 7u);
  // Top 3 bits select among 8 shards; low bits are irrelevant.
  EXPECT_EQ(rss_shard(0x2000'0000'0000'0000ull, 8), 1u);
  EXPECT_EQ(rss_shard(0x2000'0000'0000'FFFFull, 8), 1u);
  EXPECT_EQ(rss_shard(0xE000'0000'0000'0000ull, 8), 7u);
}

TEST(RssHelpers, ShardCountForWorkers) {
  EXPECT_EQ(shard_count_for_workers(0), kShardsPerWorker);
  EXPECT_EQ(shard_count_for_workers(1), kShardsPerWorker);
  EXPECT_EQ(shard_count_for_workers(2), 2 * kShardsPerWorker);
  EXPECT_EQ(shard_count_for_workers(3), 4 * kShardsPerWorker);  // bit_ceil
  EXPECT_EQ(shard_count_for_workers(8), 8 * kShardsPerWorker);
}

TEST(RssHelpers, WorkerOwnershipIsDisjointAndComplete) {
  const std::size_t workers = 3;
  const std::size_t shards = shard_count_for_workers(workers);
  // Every shard maps to exactly one worker; every worker owns >= 1 shard.
  std::vector<std::set<std::size_t>> owned(workers);
  for (std::size_t s = 0; s < shards; ++s) {
    // A hash whose top bits select shard s.
    const std::uint64_t hash = static_cast<std::uint64_t>(s)
        << (64 - std::countr_zero(shards));
    ASSERT_EQ(rss_shard(hash, shards), s);
    const std::size_t w = rss_worker(hash, shards, workers);
    ASSERT_LT(w, workers);
    owned[w].insert(s);
  }
  std::size_t total = 0;
  for (const auto& set : owned) {
    EXPECT_FALSE(set.empty());
    total += set.size();
  }
  EXPECT_EQ(total, shards);
}

// -------------------------------------------------------- ShardedFlowTable

TEST(ShardedFlowTable, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedFlowTable(1024, 1).shard_count(), 1u);
  EXPECT_EQ(ShardedFlowTable(1024, 3).shard_count(), 4u);
  EXPECT_EQ(ShardedFlowTable(1024, 8).shard_count(), 8u);
}

TEST(ShardedFlowTable, InsertFindErase) {
  ShardedFlowTable table{64, 8};
  const Labels labels{7, 3};
  const FiveTuple t = make_tuple(1);
  EXPECT_FALSE(table.find(labels, t).has_value());
  table.insert(labels, t, FlowEntry{10, 20, 30});
  const std::optional<FlowEntry> entry = table.find(labels, t);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->vnf_instance, 10u);
  EXPECT_EQ(entry->next_forwarder, 20u);
  EXPECT_EQ(entry->prev_element, 30u);
  EXPECT_TRUE(table.erase(labels, t));
  EXPECT_FALSE(table.find(labels, t).has_value());
  EXPECT_FALSE(table.erase(labels, t));
}

TEST(ShardedFlowTable, InsertIfAbsentKeepsFirstPinning) {
  ShardedFlowTable table{64, 4};
  const Labels labels{1, 1};
  const FiveTuple t = make_tuple(1);
  const FlowEntry first = table.insert_if_absent(labels, t, FlowEntry{1, 1, 1});
  EXPECT_EQ(first.vnf_instance, 1u);
  // A racing second packet proposes a different pinning; the stored one wins.
  const FlowEntry second =
      table.insert_if_absent(labels, t, FlowEntry{2, 2, 2});
  EXPECT_EQ(second.vnf_instance, 1u);
  EXPECT_EQ(table.find(labels, t)->vnf_instance, 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ShardedFlowTable, EntriesLandInHashSelectedShard) {
  ShardedFlowTable table{256, 8};
  const Labels labels{1, 1};
  for (std::uint32_t i = 0; i < 2000; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  EXPECT_EQ(table.size(), 2000u);
  // Shard sizes sum to the total and more than one shard is populated.
  std::size_t sum = 0;
  std::size_t populated = 0;
  for (std::size_t s = 0; s < table.shard_count(); ++s) {
    sum += table.shard_size(s);
    populated += table.shard_size(s) > 0 ? 1 : 0;
  }
  EXPECT_EQ(sum, 2000u);
  EXPECT_GT(populated, 1u);
  table.check_invariants();   // includes the key-in-right-shard audit
}

TEST(ShardedFlowTable, StatsAggregateAcrossShards) {
  ShardedFlowTable table{64, 4};
  const Labels labels{1, 1};
  for (std::uint32_t i = 0; i < 100; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  for (std::uint32_t i = 0; i < 150; ++i) {   // lookups count nothing
    (void)table.find(labels, make_tuple(i));
  }
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(table.erase(labels, make_tuple(i)));
  }
  EXPECT_FALSE(table.erase(labels, make_tuple(0)));   // not an erase
  const ShardedFlowTable::Stats stats = table.stats();
  EXPECT_EQ(stats.inserts, 100u);
  EXPECT_EQ(stats.erases, 40u);
  EXPECT_EQ(table.size(), 60u);
  table.check_invariants();
}

TEST(ShardedFlowTable, ForEachVisitsEveryEntryOnce) {
  ShardedFlowTable table{64, 8};
  const Labels labels{1, 1};
  for (std::uint32_t i = 0; i < 500; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  std::set<std::uint32_t> seen;
  table.for_each([&](const Labels&, const FiveTuple&, const FlowEntry& entry) {
    EXPECT_TRUE(seen.insert(entry.vnf_instance).second);
  });
  EXPECT_EQ(seen.size(), 500u);
}

TEST(ShardedFlowTable, ClearEmptiesAllShards) {
  ShardedFlowTable table{64, 4};
  const Labels labels{1, 1};
  for (std::uint32_t i = 0; i < 200; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  for (std::size_t s = 0; s < table.shard_count(); ++s) {
    EXPECT_EQ(table.shard_size(s), 0u);
  }
  EXPECT_FALSE(table.find(labels, make_tuple(0)).has_value());
  table.check_invariants();
}

TEST(ShardedFlowTable, GrowsPerShardBeyondInitialCapacity) {
  ShardedFlowTable table{16, 4};   // 4 slots per shard to start
  const Labels labels{1, 1};
  for (std::uint32_t i = 0; i < 5000; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  EXPECT_EQ(table.size(), 5000u);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const std::optional<FlowEntry> e = table.find(labels, make_tuple(i));
    ASSERT_TRUE(e.has_value()) << i;
    EXPECT_EQ(e->vnf_instance, i);
  }
  table.check_invariants();
}

TEST(ShardedFlowTable, InsertOverwrites) {
  ShardedFlowTable table{64, 1};
  const Labels labels{1, 1};
  const FiveTuple t = make_tuple(1);
  table.insert(labels, t, FlowEntry{1, 1, 1});
  table.insert(labels, t, FlowEntry{2, 2, 2});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(labels, t)->vnf_instance, 2u);
}

TEST(ShardedFlowTable, SameTupleDifferentLabelsAreDistinct) {
  ShardedFlowTable table{64, 1};
  const FiveTuple t = make_tuple(1);
  table.insert(Labels{1, 1}, t, FlowEntry{1, 1, 1});
  table.insert(Labels{2, 1}, t, FlowEntry{2, 2, 2});
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(Labels{1, 1}, t)->vnf_instance, 1u);
  EXPECT_EQ(table.find(Labels{2, 1}, t)->vnf_instance, 2u);
}

TEST(ShardedFlowTable, TombstonesDoNotBreakProbing) {
  ShardedFlowTable table{16, 1};
  const Labels labels{1, 1};
  // Fill, erase half, re-find the rest.
  for (std::uint32_t i = 0; i < 64; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  for (std::uint32_t i = 0; i < 64; i += 2) {
    EXPECT_TRUE(table.erase(labels, make_tuple(i)));
  }
  for (std::uint32_t i = 1; i < 64; i += 2) {
    ASSERT_TRUE(table.find(labels, make_tuple(i)).has_value()) << i;
  }
  // Reinsert into tombstoned slots.
  for (std::uint32_t i = 0; i < 64; i += 2) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  EXPECT_EQ(table.size(), 64u);
  table.check_invariants();
}

// Insert/erase churn that keeps crossing the 70% growth threshold of a
// 16-slot shard (connections completing as fast as they arrive): every
// live entry stays findable and the shard audits clean after each round.
TEST(ShardedFlowTable, EraseInsertChurnAcrossGrowthBoundary) {
  ShardedFlowTable table{16, 1};
  const Labels labels{1, 1};
  for (std::uint32_t i = 0; i < 10; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  for (std::uint32_t round = 0; round < 1000; ++round) {
    const std::uint32_t dead = 10 + round;
    const std::uint32_t born = dead + 1;
    table.insert(labels, make_tuple(born), FlowEntry{born, born, born});
    EXPECT_TRUE(table.erase(labels, make_tuple(round < 10 ? round : dead - 1)))
        << round;
    if (round >= 10) {
      const std::optional<FlowEntry> e = table.find(labels, make_tuple(born));
      ASSERT_TRUE(e.has_value()) << round;
      EXPECT_EQ(e->vnf_instance, born);
      EXPECT_FALSE(table.find(labels, make_tuple(dead - 1)).has_value())
          << round;
    }
    table.check_invariants();
  }
  EXPECT_EQ(table.size(), 10u);
}

// ~11 live entries forever, 50K insert+erase cycles: the footprint must
// converge, not double on every tombstone-driven rehash.
TEST(ShardedFlowTable, MemoryStaysBoundedUnderChurn) {
  ShardedFlowTable table{16, 1};
  const Labels labels{1, 1};
  for (std::uint32_t i = 0; i < 11; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  for (std::uint32_t round = 0; round < 50000; ++round) {
    const std::uint32_t born = 11 + round;
    table.insert(labels, make_tuple(born), FlowEntry{born, born, born});
    EXPECT_TRUE(table.erase(labels, make_tuple(born - 11)));
  }
  EXPECT_EQ(table.size(), 11u);
  // 11 live entries fit a 32-slot array at <= 35% live occupancy; allow
  // one extra doubling of slack (a 64-slot table holding the same
  // entries) but nothing unbounded.
  ShardedFlowTable slack{64, 1};
  for (std::uint32_t i = 50000; i < 50011; ++i) {
    slack.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  EXPECT_LE(table.memory_bytes(), slack.memory_bytes());
  table.check_invariants();
}

// ------------------------------------------------- one-shard flow table
//
// A one-shard ShardedFlowTable is the plain single-threaded flow table
// (the default construction): the same contract on one bucket array.

TEST(FlowTable, InsertFindErase) {
  ShardedFlowTable table;
  ASSERT_EQ(table.shard_count(), 1u);
  const Labels labels{7, 3};
  const FiveTuple t = make_tuple(1);
  EXPECT_FALSE(table.find(labels, t).has_value());
  table.insert(labels, t, FlowEntry{10, 20, 30});
  const std::optional<FlowEntry> entry = table.find(labels, t);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->vnf_instance, 10u);
  EXPECT_EQ(entry->next_forwarder, 20u);
  EXPECT_EQ(entry->prev_element, 30u);
  EXPECT_TRUE(table.erase(labels, t));
  EXPECT_FALSE(table.find(labels, t).has_value());
  EXPECT_FALSE(table.erase(labels, t));
  table.check_invariants();
}

TEST(FlowTable, GrowsBeyondInitialCapacity) {
  ShardedFlowTable table{16, 1};
  const Labels labels{1, 1};
  for (std::uint32_t i = 0; i < 10000; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  EXPECT_EQ(table.size(), 10000u);
  // The bucket array grew to at least the one a table pre-sized for
  // 10000 flows starts with (entries live inline in its slots).
  const ShardedFlowTable presized{10000, 1};
  EXPECT_GE(table.memory_bytes(), presized.memory_bytes());
  for (std::uint32_t i = 0; i < 10000; ++i) {
    const std::optional<FlowEntry> e = table.find(labels, make_tuple(i));
    ASSERT_TRUE(e.has_value()) << i;
    EXPECT_EQ(e->vnf_instance, i);
  }
  table.check_invariants();
}

TEST(FlowTable, Clear) {
  ShardedFlowTable table;
  table.insert(Labels{1, 1}, make_tuple(1), FlowEntry{});
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.find(Labels{1, 1}, make_tuple(1)).has_value());
  table.check_invariants();
}

// ---------------------------------------------------- epoch-read protocol

// The lock-per-lookup baseline (tests/reference) and the lock-free path
// are the same lookup: same results for every key, present or not.
TEST(ShardedFlowTable, FindMutexMatchesFind) {
  ShardedFlowTable table{64, 4};
  const Labels labels{1, 1};
  for (std::uint32_t i = 0; i < 500; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i + 1, i + 2});
  }
  for (std::uint32_t i = 1; i < 500; i += 3) {
    (void)table.erase(labels, make_tuple(i));
  }
  LockPerLookup locks{table.shard_count()};
  for (std::uint32_t i = 0; i < 600; ++i) {
    const auto epoch_read = table.find(labels, make_tuple(i));
    const auto mutex_read = locks.find(table, labels, make_tuple(i));
    ASSERT_EQ(epoch_read.has_value(), mutex_read.has_value()) << i;
    // Present exactly when inserted and not erased.
    EXPECT_EQ(epoch_read.has_value(), i < 500 && i % 3 != 1) << i;
    if (epoch_read) {
      EXPECT_EQ(*epoch_read, *mutex_read) << i;
      EXPECT_EQ(*epoch_read, (FlowEntry{i, i + 1, i + 2})) << i;
    }
  }
}

// find_batch resolves exactly like per-key find(), including misses.
TEST(ShardedFlowTable, FindBatchMatchesSingleLookups) {
  ShardedFlowTable table{64, 4};
  const Labels labels{2, 2};
  for (std::uint32_t i = 0; i < 300; i += 2) {   // odd keys stay absent
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }

  std::vector<ShardedFlowTable::LookupRequest> batch{300};
  for (std::uint32_t i = 0; i < 300; ++i) {
    batch[i].labels = labels;
    batch[i].tuple = make_tuple(i);
  }
  table.find_batch(batch);

  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(batch[i].hit, i % 2 == 0) << i;
    EXPECT_EQ(batch[i].hash, flow_hash(labels, make_tuple(i)));
    const auto single = table.find(labels, make_tuple(i));
    ASSERT_EQ(batch[i].hit, single.has_value()) << i;
    if (batch[i].hit) {
      EXPECT_EQ(batch[i].entry.vnf_instance, i);
      EXPECT_EQ(batch[i].entry, *single) << i;
    }
  }
}

// Erase + re-insert of the SAME key revives its tombstone slot; the
// revived entry is fresh, and rehash purges leftover tombstones.
TEST(ShardedFlowTable, EraseReinsertRevivesKey) {
  ShardedFlowTable table{64, 2};
  const Labels labels{3, 3};
  table.insert(labels, make_tuple(1), FlowEntry{10, 10, 10});
  EXPECT_TRUE(table.erase(labels, make_tuple(1)));
  EXPECT_FALSE(table.find(labels, make_tuple(1)).has_value());
  table.insert(labels, make_tuple(1), FlowEntry{20, 20, 20});
  const auto entry = table.find(labels, make_tuple(1));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->vnf_instance, 20u);
  EXPECT_EQ(table.size(), 1u);
  table.check_invariants();
}

// update_each rewrites entries in place (under each slot's seqlock) and
// reports how many changed.
TEST(ShardedFlowTable, UpdateEachRewritesMatchingEntries) {
  ShardedFlowTable table{64, 4};
  const Labels labels{4, 4};
  for (std::uint32_t i = 0; i < 100; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i % 2, i, i});
  }
  const std::size_t updated = table.update_each(
      [](const Labels&, const FiveTuple&, FlowEntry& entry) {
        if (entry.vnf_instance != 1) return false;
        entry.vnf_instance = kNoElement;
        return true;
      });
  EXPECT_EQ(updated, 50u);
  std::size_t invalidated = 0;
  table.for_each([&](const Labels&, const FiveTuple&, const FlowEntry& e) {
    if (e.vnf_instance == kNoElement) ++invalidated;
  });
  EXPECT_EQ(invalidated, 50u);
  table.check_invariants();
}

// Retired bucket arrays drain once the table is quiescent.
TEST(ShardedFlowTable, QuiescentReclaimDrainsRetiredBacklog) {
  ShardedFlowTable table{16, 2};
  const Labels labels{5, 5};
  for (std::uint32_t i = 0; i < 2000; ++i) {   // forces several rehashes
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  for (std::uint32_t i = 0; i < 2000; i += 2) {
    (void)table.erase(labels, make_tuple(i));
  }
  (void)table.epoch_domain().try_reclaim();
  EXPECT_EQ(table.epoch_domain().retired_count(), 0u);
  EXPECT_EQ(table.epoch_domain().pinned_readers(), 0u);
  table.check_invariants();
}

// memory_bytes reflects growth: more live flows, more resident bytes.
TEST(ShardedFlowTable, MemoryBytesGrowsWithLiveFlows) {
  ShardedFlowTable table{64, 4};
  const Labels labels{6, 6};
  const std::size_t empty_bytes = table.memory_bytes();
  EXPECT_GT(empty_bytes, 0u);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    table.insert(labels, make_tuple(i), FlowEntry{i, i, i});
  }
  EXPECT_GT(table.memory_bytes(), empty_bytes);
}

}  // namespace
}  // namespace switchboard::dataplane
