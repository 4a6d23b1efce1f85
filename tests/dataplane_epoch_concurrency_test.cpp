// TSan stress for the LOCK-FREE READ PATH (DESIGN.md §15), run by CI's
// tsan concurrency-stress step (every *_concurrency_test binary with
// TSAN_OPTIONS=halt_on_error=1).
//
// Readers drive find()/find_batch()/process_batch() with NO locks while
// a writer churns inserts, erases, overwrites and forced rehashes.  Entries
// live inline in the slots and are rewritten in place under a per-slot
// seqlock; only bucket arrays are retired through the epoch domain.  The
// assertions are exactly the read protocol's promises:
//   * no torn entry: every write stores one generation in all three
//     fields, so a read that mixes two writes fails;
//   * no reclaimed memory: TSan (and ASan on the asan-ubsan preset)
//     flags any use-after-free if a grace period is computed wrong;
//   * quiesced reclamation drains: once readers unpin, try_reclaim()
//     frees the whole backlog.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "dataplane/forwarder.hpp"
#include "dataplane/sharded_flow_table.hpp"

namespace switchboard::dataplane {
namespace {

FiveTuple make_tuple(std::uint32_t i) {
  return FiveTuple{0x0A000000u + i, 0xC0A80001u,
                   static_cast<std::uint16_t>(1000 + (i % 60000)), 80, 6};
}

// Lock-free readers probe a churning key universe through find() and
// find_batch() while one writer inserts/overwrites/erases and forces
// rehash after rehash by re-growing the key range; a second "janitor"
// thread spins whole-table audits and explicit reclaims.
TEST(DataplaneEpochConcurrency, BatchedReadersNeverSeeTornOrReclaimedState) {
  constexpr std::size_t kReaders = 3;
  constexpr std::uint32_t kKeys = 4096;
  constexpr std::size_t kBatch = 64;

  // Tiny initial capacity so the writer's churn forces many rehashes —
  // every rehash retires a bucket array that readers may still be probing.
  ShardedFlowTable table{64, 4};
  const Labels labels{7, 7};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_hits{0};

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<ShardedFlowTable::LookupRequest> batch{kBatch};
      std::uint64_t hits = 0;
      std::uint32_t cursor = static_cast<std::uint32_t>(r * 17);
      while (!stop.load(std::memory_order_relaxed)) {
        for (ShardedFlowTable::LookupRequest& request : batch) {
          request.labels = labels;
          request.tuple = make_tuple(cursor++ % kKeys);
          request.hit = false;
        }
        table.find_batch(batch);
        for (const ShardedFlowTable::LookupRequest& request : batch) {
          if (!request.hit) continue;
          // Entries are only ever written with all three fields equal to
          // the key: a torn, half-constructed, or stale-generation entry
          // fails here (and a reclaimed one trips TSan/ASan first).
          const std::uint32_t key = request.tuple.src_ip - 0x0A000000u;
          EXPECT_EQ(request.entry.vnf_instance, key);
          EXPECT_EQ(request.entry.next_forwarder, key);
          EXPECT_EQ(request.entry.prev_element, key);
          ++hits;
        }
        // Single-key reads interleave with the batches.
        const std::uint32_t key = cursor % kKeys;
        if (const auto entry = table.find(labels, make_tuple(key))) {
          EXPECT_EQ(entry->vnf_instance, key);
          ++hits;
        }
      }
      total_hits.fetch_add(hits, std::memory_order_relaxed);
    });
  }

  std::thread janitor{[&] {
    while (!stop.load(std::memory_order_relaxed)) {
      table.check_invariants();
      (void)table.epoch_domain().try_reclaim();
      (void)table.size();
    }
  }};

  // The writer: grow the live set (forcing rehashes), overwrite it in
  // place, erase half (tombstones), and occasionally revive erased keys —
  // every write path under live read traffic.
  for (int round = 0; round < 20; ++round) {
    for (std::uint32_t key = 0; key < kKeys; ++key) {
      table.insert(labels, make_tuple(key), FlowEntry{key, key, key});
    }
    for (std::uint32_t key = 1; key < kKeys; key += 2) {
      (void)table.erase(labels, make_tuple(key));
    }
    for (std::uint32_t key = 1; key < kKeys; key += 4) {
      table.insert_if_absent(labels, make_tuple(key),
                             FlowEntry{key, key, key});   // revive
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  janitor.join();

  EXPECT_GT(total_hits.load(), 0u);
  table.check_invariants();
  // Quiesced: no reader pinned, so one reclaim drains the entire backlog.
  EXPECT_EQ(table.epoch_domain().pinned_readers(), 0u);
  (void)table.epoch_domain().try_reclaim();
  EXPECT_EQ(table.epoch_domain().retired_count(), 0u);

  // Deterministic survivors: every even key was inserted in the final
  // round and never erased afterwards.
  for (std::uint32_t key = 0; key < kKeys; key += 2) {
    const auto entry = table.find(labels, make_tuple(key));
    ASSERT_TRUE(entry.has_value()) << key;
    EXPECT_EQ(entry->vnf_instance, key);
  }
}

// The seqlock's whole-entry atomicity: the writer rewrites a few hot keys
// with a NEW generation {g, g, g} on every write — plain overwrites plus
// erase-then-insert_if_absent revives — while readers probe exactly those
// keys through find() and find_batch().  A read that returns fields of two
// different writes is a torn read.  (The test above cannot catch one: it
// always writes {key, key, key}, so old and new fields are equal.)
TEST(DataplaneEpochConcurrency, HotKeyRewritesNeverTearAnEntry) {
  constexpr std::size_t kReaders = 3;
  constexpr std::uint32_t kHotKeys = 4;
  constexpr std::uint32_t kWrites = 200'000;
  constexpr std::size_t kBatch = 32;

  ShardedFlowTable table{64, 2};
  const Labels labels{9, 9};
  for (std::uint32_t key = 0; key < kHotKeys; ++key) {
    table.insert(labels, make_tuple(key), FlowEntry{0, 0, 0});
  }
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> started{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> total_hits{0};
  auto is_torn = [](const FlowEntry& entry) {
    return entry.vnf_instance != entry.next_forwarder ||
           entry.next_forwarder != entry.prev_element;
  };

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<ShardedFlowTable::LookupRequest> batch{kBatch};
      std::uint64_t local_torn = 0;
      std::uint64_t hits = 0;
      std::uint32_t cursor = static_cast<std::uint32_t>(r);
      started.fetch_add(1, std::memory_order_relaxed);
      while (!stop.load(std::memory_order_relaxed)) {
        for (ShardedFlowTable::LookupRequest& request : batch) {
          request.labels = labels;
          request.tuple = make_tuple(cursor++ % kHotKeys);
          request.hit = false;
        }
        table.find_batch(batch);
        for (const ShardedFlowTable::LookupRequest& request : batch) {
          if (!request.hit) continue;
          ++hits;
          if (is_torn(request.entry)) ++local_torn;
        }
        if (const auto entry =
                table.find(labels, make_tuple(cursor++ % kHotKeys))) {
          ++hits;
          if (is_torn(*entry)) ++local_torn;
        }
      }
      torn.fetch_add(local_torn, std::memory_order_relaxed);
      total_hits.fetch_add(hits, std::memory_order_relaxed);
    });
  }

  while (started.load(std::memory_order_relaxed) < kReaders) {
    std::this_thread::yield();
  }
  for (std::uint32_t g = 1; g <= kWrites; ++g) {
    const FiveTuple tuple = make_tuple(g % kHotKeys);
    if (g % 3 == 0) {
      (void)table.erase(labels, tuple);
      (void)table.insert_if_absent(labels, tuple, FlowEntry{g, g, g});
    } else {
      (void)table.insert(labels, tuple, FlowEntry{g, g, g});
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "reads mixing two generations";
  EXPECT_GT(total_hits.load(), 0u);
  table.check_invariants();
  EXPECT_EQ(table.size(), kHotKeys);
}

// Full-stack version: reader threads drive Forwarder::process_batch()
// (the SoA pipeline) while a writer completes and recreates flows and
// drains/restores elements — rehashes, erases and update_each all racing
// the lock-free batch reads.
TEST(DataplaneEpochConcurrency, ProcessBatchRacesWriterChurn) {
  constexpr std::uint32_t kFlows = 2048;
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kReaders = 3;

  Forwarder forwarder{1, /*flow_capacity=*/128, /*worker_count=*/4};
  const Labels labels{1, 1};
  LoadBalanceRule rule;
  rule.vnf_instances.add(100, 1.0);
  rule.vnf_instances.add(101, 1.0);
  rule.next_forwarders.add(200, 1.0);
  forwarder.rules().install(labels, rule);

  auto packet_for = [&](std::uint32_t i) {
    Packet packet;
    packet.flow = make_tuple(i % kFlows);
    packet.labels = labels;
    packet.arrival_source = 50;
    return packet;
  };

  // Preload every flow so readers mostly hit.
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    (void)forwarder.process_from_wire(packet_for(i));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<Packet> batch;
      std::vector<ForwardAction> actions{kBatch};
      std::uint32_t cursor = static_cast<std::uint32_t>(r * 31);
      while (!stop.load(std::memory_order_relaxed)) {
        batch.clear();
        for (std::size_t i = 0; i < kBatch; ++i) {
          batch.push_back(packet_for(cursor++));
        }
        (void)forwarder.process_batch(batch, actions);
        for (const ForwardAction& action : actions) {
          if (action.type == ActionType::kDeliverToAttached) {
            // Any pinning must point at a rule instance — a torn or
            // reclaimed entry would surface garbage here.
            EXPECT_TRUE(action.element == 100 || action.element == 101)
                << action.element;
          }
        }
      }
    });
  }

  for (int round = 0; round < 15; ++round) {
    // Tear down a slice of flows (erase + retire), then recreate them
    // (insert, possibly rehash)...
    for (std::uint32_t i = 0; i < kFlows; i += 3) {
      (void)forwarder.complete_flow(labels, make_tuple(i));
    }
    for (std::uint32_t i = 0; i < kFlows; i += 3) {
      (void)forwarder.process_from_wire(packet_for(i));
    }
    // ...and rewrite pinnings in place via the epoch-safe update path.
    (void)forwarder.drain_element(101);
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  forwarder.flow_table().check_invariants();
  EXPECT_EQ(forwarder.flow_table().epoch_domain().pinned_readers(), 0u);
  (void)forwarder.flow_table().epoch_domain().try_reclaim();
  EXPECT_EQ(forwarder.flow_table().epoch_domain().retired_count(), 0u);
}

}  // namespace
}  // namespace switchboard::dataplane
