#include "dataplane/sharded_flow_table.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace switchboard::dataplane {

namespace {

constexpr std::size_t kMinShardCapacity = 16;
constexpr std::size_t kLookupChunk = 32;   // SoA batch width (find_batch)
constexpr std::uint32_t kStateBits = 2;    // meta = (version << 2) | state

void prefetch_ro(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace

ShardedFlowTable::ShardedFlowTable(std::size_t initial_capacity,
                                   std::size_t shard_count) {
  const std::size_t shards =
      std::bit_ceil(std::max<std::size_t>(shard_count, 1));
  per_shard_capacity_ = std::bit_ceil(
      std::max<std::size_t>(initial_capacity / shards, kMinShardCapacity));
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->buckets.store(new BucketArray{per_shard_capacity_},
                         std::memory_order_release);
    shards_.push_back(std::move(shard));
  }
}

ShardedFlowTable::~ShardedFlowTable() {
  // Quiesced teardown: delete the current arrays here; previously retired
  // arrays are freed by the epoch domain's destructor, which runs after
  // this body and checks that no reader is still pinned.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    delete shard->buckets.load(std::memory_order_acquire);
  }
}

void ShardedFlowTable::Slot::publish(const FlowEntry& entry) {
  const std::uint32_t version =
      meta.load(std::memory_order_relaxed) >> kStateBits;
  // The writing mark is ordered before the field stores by their release
  // order: a reader whose acquire-load of a field returns the new value
  // synchronizes with that store, so its meta reload sees this mark or a
  // later value and it retries.
  meta.store((version << kStateBits) | kWriting, std::memory_order_release);
  vnf_instance.store(entry.vnf_instance, std::memory_order_release);
  next_forwarder.store(entry.next_forwarder, std::memory_order_release);
  prev_element.store(entry.prev_element, std::memory_order_release);
  meta.store(((version + 1) << kStateBits) | kOccupied,
             std::memory_order_release);
}

void ShardedFlowTable::Slot::bury() {
  const std::uint32_t version =
      meta.load(std::memory_order_relaxed) >> kStateBits;
  meta.store(((version + 1) << kStateBits) | kTombstone,
             std::memory_order_release);
}

std::optional<FlowEntry> ShardedFlowTable::probe(const BucketArray& array,
                                                 const Labels& labels,
                                                 const FiveTuple& tuple,
                                                 std::uint64_t hash) {
  // Termination: an empty slot stays empty within an array generation,
  // and the writer rehashes before occupancy can reach 100%, so every
  // reachable array keeps at least one empty slot.
  std::size_t index = hash & array.mask;
  for (;;) {
    const Slot& slot = array.slots[index];
    std::uint32_t meta = slot.meta.load(std::memory_order_acquire);
    if ((meta & kStateMask) == kEmpty) return std::nullopt;
    // Any non-empty meta was release-stored after the write-once keys.
    if (slot.labels == labels && slot.tuple == tuple) {
      // The key's one slot in this generation: seqlock read.
      for (;;) {
        const std::uint32_t state = meta & kStateMask;
        if (state == kTombstone) return std::nullopt;
        if (state == kOccupied) {
          const FlowEntry entry{
              slot.vnf_instance.load(std::memory_order_acquire),
              slot.next_forwarder.load(std::memory_order_acquire),
              slot.prev_element.load(std::memory_order_acquire)};
          const std::uint32_t again =
              slot.meta.load(std::memory_order_acquire);
          if (again == meta) return entry;
          meta = again;
        } else {   // kWriting: a writer holds the shard mutex mid-write
          meta = slot.meta.load(std::memory_order_acquire);
        }
      }
    }
    index = (index + 1) & array.mask;
  }
}

std::optional<FlowEntry> ShardedFlowTable::find(const Labels& labels,
                                                const FiveTuple& tuple,
                                                std::uint64_t hash) const {
  SWB_DCHECK_EQ(hash, flow_hash(labels, tuple));
  const swb::EpochGuard guard{epoch_};
  const BucketArray& array =
      *shard_for_hash(hash).buckets.load(std::memory_order_acquire);
  return probe(array, labels, tuple, hash);
}

void ShardedFlowTable::find_batch(std::span<LookupRequest> batch) const {
  // Structure-of-arrays phases per chunk: (1) hash every key and issue a
  // prefetch for its probe-start slot, (2) probe.  By the time phase 2
  // touches a slot its cacheline fetch has been in flight for the whole
  // rest of phase 1 — at millions of live flows every probe start is a
  // cache miss, and overlapping those misses is where the batch win
  // comes from.  One epoch pin covers a whole chunk.
  const BucketArray* arrays[kLookupChunk];
  for (std::size_t base = 0; base < batch.size(); base += kLookupChunk) {
    const std::size_t chunk = std::min(kLookupChunk, batch.size() - base);
    const swb::EpochGuard guard{epoch_};
    for (std::size_t i = 0; i < chunk; ++i) {
      LookupRequest& request = batch[base + i];
      request.hash = flow_hash(request.labels, request.tuple);
      arrays[i] = shard_for_hash(request.hash).buckets.load(
          std::memory_order_acquire);
      prefetch_ro(&arrays[i]->slots[request.hash & arrays[i]->mask]);
    }
    for (std::size_t i = 0; i < chunk; ++i) {
      LookupRequest& request = batch[base + i];
      const std::optional<FlowEntry> entry =
          probe(*arrays[i], request.labels, request.tuple, request.hash);
      request.hit = entry.has_value();
      if (entry) request.entry = *entry;
    }
  }
}

ShardedFlowTable::Slot* ShardedFlowTable::find_slot_locked(
    BucketArray& array, const Labels& labels, const FiveTuple& tuple,
    std::uint64_t hash) {
  std::size_t index = hash & array.mask;
  for (;;) {
    Slot& slot = array.slots[index];
    const std::uint32_t state = slot.state();
    if (state == kEmpty) return nullptr;
    if (state == kOccupied && slot.labels == labels && slot.tuple == tuple) {
      return &slot;
    }
    index = (index + 1) & array.mask;
  }
}

void ShardedFlowTable::insert_locked(Shard& shard, const Labels& labels,
                                     const FiveTuple& tuple,
                                     std::uint64_t hash,
                                     const FlowEntry& entry) {
  maybe_grow(shard);
  BucketArray& array = *shard.buckets.load(std::memory_order_relaxed);
  std::size_t index = hash & array.mask;
  for (;;) {
    Slot& slot = array.slots[index];
    const std::uint32_t state = slot.state();
    if (state == kEmpty) {
      // Fresh claim: keys first (plain, write-once), then the seqlock
      // write whose meta release-stores make the slot visible to readers.
      slot.labels = labels;
      slot.tuple = tuple;
      slot.publish(entry);
      ++shard.live;
      return;
    }
    if (slot.labels == labels && slot.tuple == tuple) {
      // Overwrite, or revive of this key's one slot in this array
      // generation: rewrite the entry in place.
      slot.publish(entry);
      if (state == kTombstone) {
        --shard.tombstones;
        ++shard.live;
      }
      return;
    }
    index = (index + 1) & array.mask;
  }
}

void ShardedFlowTable::maybe_grow(Shard& shard) {
  BucketArray* old = shard.buckets.load(std::memory_order_relaxed);
  // Grow at 70% occupancy counting tombstones (they lengthen probes just
  // like live entries).  A tombstone-heavy shard rehashes to the same or
  // a smaller power of two, purging them.
  if ((shard.live + shard.tombstones + 1) * 10 <= old->slots.size() * 7) {
    return;
  }
  const std::size_t capacity = std::bit_ceil(
      std::max<std::size_t>((shard.live + 1) * 2, kMinShardCapacity));
  auto* fresh = new BucketArray{capacity};
  for (const Slot& slot : old->slots) {
    if (slot.state() != kOccupied) continue;
    // The fresh array is unpublished: the release-publication below makes
    // its keys and entries visible wholesale.
    std::size_t index = flow_hash(slot.labels, slot.tuple) & fresh->mask;
    while (fresh->slots[index].state() != kEmpty) {
      index = (index + 1) & fresh->mask;
    }
    Slot& target = fresh->slots[index];
    target.labels = slot.labels;
    target.tuple = slot.tuple;
    target.publish(slot.entry_locked());
  }
  shard.buckets.store(fresh, std::memory_order_release);
  shard.tombstones = 0;
  epoch_.retire(old);   // pinned readers may still be probing it
}

FlowEntry ShardedFlowTable::insert(const Labels& labels,
                                   const FiveTuple& tuple, std::uint64_t hash,
                                   const FlowEntry& entry) {
  SWB_DCHECK_EQ(hash, flow_hash(labels, tuple));
  Shard& shard = shard_for_hash(hash);
  const swb::MutexLock lock{shard.mutex};
  ++shard.stats.inserts;
  insert_locked(shard, labels, tuple, hash, entry);
  return entry;
}

FlowEntry ShardedFlowTable::insert_if_absent(const Labels& labels,
                                             const FiveTuple& tuple,
                                             std::uint64_t hash,
                                             const FlowEntry& entry) {
  SWB_DCHECK_EQ(hash, flow_hash(labels, tuple));
  Shard& shard = shard_for_hash(hash);
  const swb::MutexLock lock{shard.mutex};
  BucketArray& array = *shard.buckets.load(std::memory_order_relaxed);
  if (const Slot* slot = find_slot_locked(array, labels, tuple, hash)) {
    return slot->entry_locked();
  }
  ++shard.stats.inserts;
  insert_locked(shard, labels, tuple, hash, entry);
  return entry;
}

bool ShardedFlowTable::erase(const Labels& labels, const FiveTuple& tuple) {
  const std::uint64_t hash = flow_hash(labels, tuple);
  Shard& shard = shard_for_hash(hash);
  const swb::MutexLock lock{shard.mutex};
  BucketArray& array = *shard.buckets.load(std::memory_order_relaxed);
  Slot* slot = find_slot_locked(array, labels, tuple, hash);
  if (slot == nullptr) return false;
  // The entry fields stay in place: a reader that loaded `occupied` before
  // the tombstone sees the version change on its reload and retries.
  slot->bury();
  ++shard.tombstones;
  --shard.live;
  ++shard.stats.erases;
  return true;
}

std::size_t ShardedFlowTable::size() const {
  const auto guards = lock_all();
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->live;
  }
  return total;
}

std::size_t ShardedFlowTable::shard_size(std::size_t shard) const {
  SWB_CHECK_LT(shard, shards_.size());
  const swb::MutexLock lock{shards_[shard]->mutex};
  return shards_[shard]->live;
}

ShardedFlowTable::Stats ShardedFlowTable::stats() const {
  Stats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total.inserts += shard->stats.inserts;
    total.erases += shard->stats.erases;
  }
  return total;
}

void ShardedFlowTable::clear() {
  const auto guards = lock_all();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    BucketArray* old = shard->buckets.load(std::memory_order_relaxed);
    shard->buckets.store(new BucketArray{per_shard_capacity_},
                         std::memory_order_release);
    epoch_.retire(old);
    shard->live = 0;
    shard->tombstones = 0;
  }
}

std::size_t ShardedFlowTable::update_each(
    const std::function<bool(const Labels&, const FiveTuple&, FlowEntry&)>&
        fn) {
  const auto guards = lock_all();
  std::size_t updated = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    BucketArray& array = *shard->buckets.load(std::memory_order_relaxed);
    for (Slot& slot : array.slots) {
      if (slot.state() != kOccupied) continue;
      FlowEntry draft = slot.entry_locked();
      if (!fn(slot.labels, slot.tuple, draft)) continue;
      slot.publish(draft);
      ++updated;
    }
  }
  return updated;
}

std::size_t ShardedFlowTable::memory_bytes() const {
  const auto guards = lock_all();
  std::size_t bytes = shards_.size() * sizeof(Shard);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const BucketArray& array =
        *shard->buckets.load(std::memory_order_relaxed);
    bytes += sizeof(BucketArray) + array.slots.size() * sizeof(Slot);
  }
  return bytes;
}

std::vector<std::unique_lock<std::mutex>> ShardedFlowTable::lock_all() const {
  std::vector<std::unique_lock<std::mutex>> guards;
  guards.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    guards.emplace_back(shard->mutex.native());
  }
  return guards;
}

void ShardedFlowTable::check_invariants() const {
  SWB_CHECK(std::has_single_bit(shards_.size()))
      << "shard count not a power of 2";
  const auto guards = lock_all();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    const BucketArray& array =
        *shard.buckets.load(std::memory_order_acquire);
    SWB_CHECK(std::has_single_bit(array.slots.size()))
        << "bucket array capacity not a power of 2";
    SWB_CHECK_EQ(array.mask, array.slots.size() - 1) << "mask out of sync";
    std::size_t occupied = 0;
    std::size_t tombstones = 0;
    for (std::size_t i = 0; i < array.slots.size(); ++i) {
      const Slot& slot = array.slots[i];
      const std::uint32_t state = slot.state();
      SWB_CHECK(state != kWriting) << "slot left mid-write";
      if (state == kTombstone) {
        ++tombstones;
        continue;
      }
      if (state != kOccupied) continue;
      ++occupied;
      const std::uint64_t hash = flow_hash(slot.labels, slot.tuple);
      // Sharding invariant: every key is in the shard its hash selects.
      SWB_CHECK_EQ(rss_shard(hash, shards_.size()), s)
          << "entry stored in the wrong shard";
      // Probe reachability: no empty slot between the probe start and
      // the slot actually holding the key.
      for (std::size_t p = hash & array.mask; p != i;
           p = (p + 1) & array.mask) {
        SWB_CHECK(array.slots[p].state() != kEmpty)
            << "occupied slot unreachable from its probe start";
      }
    }
    SWB_CHECK_EQ(occupied, shard.live) << "live counter out of sync";
    SWB_CHECK_EQ(tombstones, shard.tombstones)
        << "tombstone counter out of sync";
    // Counter agreement: live entries = inserts that created an entry
    // minus successful erases.  insert() overwrites count as inserts too,
    // so live can only be <= inserts - erases.
    SWB_CHECK_LE(shard.live + shard.stats.erases.value(),
                 shard.stats.inserts.value());
  }
}

}  // namespace switchboard::dataplane
