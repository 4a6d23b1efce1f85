// Concurrent, sharded flow table with a LOCK-FREE READ PATH: the
// multi-core backend for the forwarder (Section 5: the paper's DPDK
// forwarder holds 512K flows *per core*; Fig. 8 measures how throughput
// scales with cores).
//
// Layout: a power-of-two number of shards.  Each shard owns an
// open-addressing, linear-probing bucket array published through an
// atomic pointer.  Keys are assigned to shards by the *top* bits of the
// flow hash — the per-shard arrays probe on the low bits, so shard
// selection must not correlate with probe position.  The FlowEntry lives
// INLINE in its 40-byte slot: a lookup touches the slot and nothing else,
// and a flow write allocates nothing.
//
// Read path (find / find_batch — the per-packet hot path, and the only
// read path): NO MUTEX.
// A reader pins an epoch (swb::EpochGuard), acquire-loads the shard's
// bucket array pointer, and probes.  Slot protocol (a per-slot seqlock):
//   * `meta` is an atomic word `(version << 2) | state`, state one of
//     empty, occupied, tombstone or writing.  A slot's KEY FIELDS are
//     written exactly once, before its first release-store of meta, so a
//     reader that acquire-loads a non-empty meta always sees them;
//   * the three entry fields are atomics.  A writer (serialized by the
//     shard mutex) release-stores meta = writing, release-stores the
//     fields, then release-stores the next version as occupied.  A reader
//     acquire-loads meta, acquire-loads the fields, reloads meta and
//     retries if it changed: a field load that saw a new value
//     synchronizes with its release-store, so the reload sees at least
//     the writing mark.  No fence is needed, and on x86 every one of
//     these accesses is a plain mov;
//   * erase release-stores the next version as a tombstone; overwrite,
//     revive and update_each rewrite the slot in place;
//   * rehash builds a new array off-line (entries are copied),
//     release-publishes it, and retires the old array; pinned readers
//     keep probing the retired array safely until their grace period
//     ends (see common/epoch.hpp).  Bucket arrays are the only objects
//     the epoch domain retires.
// A tombstone slot is revived only for the IDENTICAL key; a different key
// always claims an empty slot, so keys are never rewritten while an array
// is reachable.  Tombstones are purged at rehash.
//
// Write path: per-key mutations (insert / insert_if_absent / erase) take
// exactly ONE shard mutex (swb::Mutex + TSA, as before); whole-table
// operations (size, clear, for_each, update_each, check_invariants) take
// ALL shard locks in ascending index order — the repo-wide lock order.
// Lock order with the epoch domain: shard mutex -> retire mutex (leaf).
//
// Counters: inserts and erases, bumped under the shard mutex (one writer
// at a time: RelaxedCounter), so stats() reads them without a lock.  A
// lookup writes nothing, so a hit costs no store to shared memory beyond
// its epoch pin; the forwarder's counters count its lookups and misses.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/epoch.hpp"
#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "dataplane/packet.hpp"

namespace switchboard::dataplane {

/// Shard index for a flow hash: the top log2(shard_count) bits.
/// `shard_count` must be a power of two.
[[nodiscard]] constexpr std::size_t rss_shard(std::uint64_t hash,
                                              std::size_t shard_count) {
  // shard_count == 1 would need a shift by 64 (UB); special-case it.
  if (shard_count <= 1) return 0;
  const int bits = std::countr_zero(shard_count);
  return static_cast<std::size_t>(hash >> (64 - bits));
}

/// Shards per worker used when a shard count is derived from a worker
/// count: enough striping that whole-table readers (audits, migration)
/// block only a fraction of each worker's key space at a time.
inline constexpr std::size_t kShardsPerWorker = 4;

/// Default shard count for `worker_count` workers: a power of two with
/// kShardsPerWorker-way striping.
[[nodiscard]] constexpr std::size_t shard_count_for_workers(
    std::size_t worker_count) {
  return std::bit_ceil(std::max<std::size_t>(worker_count, 1)) *
         kShardsPerWorker;
}

/// Worker index owning a flow hash, for `worker_count` workers striped over
/// `shard_count` shards: the shard's owner is `shard % worker_count`, so a
/// worker owns a fixed, disjoint shard set.  Pure function of
/// (hash, shard_count, worker_count) — traffic generators use it to build
/// per-worker streams that never cross shard ownership.
[[nodiscard]] constexpr std::size_t rss_worker(std::uint64_t hash,
                                               std::size_t shard_count,
                                               std::size_t worker_count) {
  return rss_shard(hash, shard_count) % std::max<std::size_t>(worker_count, 1);
}

class ShardedFlowTable {
 public:
  /// Aggregated operation counters (see stats()).
  struct Stats {
    std::uint64_t inserts{0};
    std::uint64_t erases{0};
  };

  /// One lookup of a structure-of-arrays batch (see find_batch): the
  /// caller fills labels/tuple; find_batch fills hash, hit and (on hit)
  /// entry.
  struct LookupRequest {
    Labels labels;
    FiveTuple tuple;
    std::uint64_t hash{0};
    FlowEntry entry;
    bool hit{false};
  };

  /// `initial_capacity` is the *total* capacity hint, split evenly across
  /// shards.  `shard_count` rounds up to a power of two.
  explicit ShardedFlowTable(std::size_t initial_capacity = 1024,
                            std::size_t shard_count = 1);
  ~ShardedFlowTable();
  ShardedFlowTable(const ShardedFlowTable&) = delete;
  ShardedFlowTable& operator=(const ShardedFlowTable&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Lock-free lookup (epoch-read): pins an epoch, probes the published
  /// bucket array, returns a copy.  Never blocks on writers.
  [[nodiscard]] std::optional<FlowEntry> find(const Labels& labels,
                                              const FiveTuple& tuple) const {
    return find(labels, tuple, flow_hash(labels, tuple));
  }

  /// The same lookup for a caller that already holds
  /// `hash == flow_hash(labels, tuple)` (the forwarder hashes once per
  /// packet, as find_batch's LookupRequest::hash does).  insert and
  /// insert_if_absent take the hash the same way.
  [[nodiscard]] std::optional<FlowEntry> find(const Labels& labels,
                                              const FiveTuple& tuple,
                                              std::uint64_t hash) const;

  /// Batched lock-free lookup: one epoch pin per chunk, structure-of-
  /// arrays phases (hash all keys, prefetch all probe starts, then
  /// resolve) so bucket-array cache misses overlap instead of
  /// serializing.  Results are identical to per-request find().
  void find_batch(std::span<LookupRequest> batch) const;

  /// Inserts, overwriting any existing entry; returns the stored value.
  FlowEntry insert(const Labels& labels, const FiveTuple& tuple,
                   const FlowEntry& entry) {
    return insert(labels, tuple, flow_hash(labels, tuple), entry);
  }
  FlowEntry insert(const Labels& labels, const FiveTuple& tuple,
                   std::uint64_t hash, const FlowEntry& entry);

  /// Inserts only if absent; returns the winning entry (the existing one on
  /// conflict).  This is the first-packet path: when two packets of one
  /// flow race, both observe the same pinning.
  FlowEntry insert_if_absent(const Labels& labels, const FiveTuple& tuple,
                             const FlowEntry& entry) {
    return insert_if_absent(labels, tuple, flow_hash(labels, tuple), entry);
  }
  FlowEntry insert_if_absent(const Labels& labels, const FiveTuple& tuple,
                             std::uint64_t hash, const FlowEntry& entry);

  /// Removes the entry; returns true if it existed.
  bool erase(const Labels& labels, const FiveTuple& tuple);

  /// Live entries across all shards (locks each shard in index order).
  /// (NO_THREAD_SAFETY_ANALYSIS on whole-table members: see for_each.)
  [[nodiscard]] std::size_t size() const SWB_NO_THREAD_SAFETY_ANALYSIS;

  /// Live entries in one shard.
  [[nodiscard]] std::size_t shard_size(std::size_t shard) const;

  /// Write counters aggregated over shards.  Lock-free (relaxed loads);
  /// quiesce writers for a consistent set.
  [[nodiscard]] Stats stats() const;

  void clear() SWB_NO_THREAD_SAFETY_ANALYSIS;

  /// Visits every live entry under ALL shard locks (taken in index order);
  /// `fn` must not call back into this table.  Shards are visited in index
  /// order, entries within a shard in slot order — deterministic for a
  /// quiesced table.  READ-ONLY: `fn` sees a copy — use update_each() to
  /// mutate.
  // NO_THREAD_SAFETY_ANALYSIS: lock_all() acquires a *dynamic* set of
  // shard mutexes through std::unique_lock, which the analysis cannot
  // model (a capability must be a named lock expression).  The runtime
  // proof is the index-ordered lock_all() guards held for the whole walk.
  template <typename Fn>   // Fn(const Labels&, const FiveTuple&, const FlowEntry&)
  void for_each(Fn&& fn) const SWB_NO_THREAD_SAFETY_ANALYSIS {
    const auto guards = lock_all();
    for (const std::unique_ptr<Shard>& shard : shards_) {
      const BucketArray& array =
          *shard->buckets.load(std::memory_order_acquire);
      for (const Slot& slot : array.slots) {
        if (slot.state() == kOccupied) {
          fn(slot.labels, slot.tuple, slot.entry_locked());
        }
      }
    }
  }

  /// In-place whole-table update (drain, rewrites): visits every live
  /// entry under ALL shard locks with a mutable copy; when `fn` returns
  /// true the copy is written back into the slot under the seqlock
  /// (concurrent lock-free readers see either the old or the new entry,
  /// never a torn one).  Returns the number of entries updated.
  std::size_t update_each(
      const std::function<bool(const Labels&, const FiveTuple&, FlowEntry&)>&
          fn) SWB_NO_THREAD_SAFETY_ANALYSIS;

  /// Audits every shard's structural invariants plus the sharding invariant
  /// itself: each key is stored in the shard its hash selects, occupied /
  /// tombstone counts match the shard counters, no slot is left mid-write,
  /// and every occupied slot is reachable from its probe start without
  /// crossing an empty slot.  Takes all shard locks in index order, so it
  /// is safe to run concurrently with worker threads.
  void check_invariants() const SWB_NO_THREAD_SAFETY_ANALYSIS;

  /// Resident bytes of the table proper: the shards and their bucket
  /// arrays, whose slots hold the entries inline, so the figure depends on
  /// the array capacities, not on the live count (malloc overhead
  /// excluded).  For the annotation-mode ablation: annotation mode keeps
  /// no per-flow bytes at all.
  [[nodiscard]] std::size_t memory_bytes() const
      SWB_NO_THREAD_SAFETY_ANALYSIS;

  /// The table's reclamation domain (tests assert on retired/pinned
  /// counts; benches may quiesce-reclaim between phases).
  [[nodiscard]] swb::EpochDomain& epoch_domain() const { return epoch_; }

 private:
  /// Slot states: the low two bits of Slot::meta.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kOccupied = 1;
  static constexpr std::uint32_t kTombstone = 2;
  static constexpr std::uint32_t kWriting = 3;
  static constexpr std::uint32_t kStateMask = 3;

  /// One bucket, entry inline.  Key fields are plain: they are written
  /// exactly once, before the slot's first meta release-store, and never
  /// touched again within the array generation (readers only load them
  /// after acquire-loading a non-empty meta).  The entry fields are
  /// written under the seqlock protocol of the header comment.
  struct Slot {
    /// `(version << 2) | state`; the version advances on every publish
    /// and erase, so a reader's reload detects any write in between.
    std::atomic<std::uint32_t> meta{kEmpty};
    Labels labels;
    FiveTuple tuple;
    std::atomic<ElementId> vnf_instance{0};
    std::atomic<ElementId> next_forwarder{0};
    std::atomic<ElementId> prev_element{0};

    /// The state as last stored; writers only (shard mutex held).
    [[nodiscard]] std::uint32_t state() const {
      return meta.load(std::memory_order_relaxed) & kStateMask;
    }
    /// The entry as last written; writers only (shard mutex held).
    [[nodiscard]] FlowEntry entry_locked() const {
      return FlowEntry{vnf_instance.load(std::memory_order_relaxed),
                       next_forwarder.load(std::memory_order_relaxed),
                       prev_element.load(std::memory_order_relaxed)};
    }
    /// Seqlock write (shard mutex held, keys already in place): marks
    /// the slot writing, release-stores `entry`, then publishes the next
    /// version as occupied.
    void publish(const FlowEntry& entry);
    /// Erase (shard mutex held): the next version as a tombstone.
    void bury();
  };
  static_assert(sizeof(Slot) == 40,
                "meta word, keys and the inline entry: 40 bytes per slot");

  /// A power-of-two probe array.  Published via Shard::buckets with
  /// release order; retired (never freed in place) on rehash, which copies
  /// the live entries into the replacement array.
  struct BucketArray {
    explicit BucketArray(std::size_t capacity)
        : slots(capacity), mask{capacity - 1} {}
    std::vector<Slot> slots;
    std::size_t mask;
  };

  /// Write tallies: bumped under the shard mutex, read lock-free.
  struct ShardStats {
    RelaxedCounter inserts;
    RelaxedCounter erases;
  };

  struct Shard {
    /// Lock-order contract (machine-checked per shard, runtime-checked
    /// across shards): per-key WRITES take exactly ONE shard mutex;
    /// whole-table operations take ALL of them in ascending index order
    /// via lock_all(); epoch_.retire() may be called with the shard mutex
    /// held (retire_mutex_ is a leaf).  Reads take no lock at all.
    mutable swb::Mutex mutex;
    /// The published probe array; readers acquire-load it under an epoch
    /// pin, the owning writer replaces it on rehash.
    std::atomic<BucketArray*> buckets{nullptr};
    std::size_t live SWB_GUARDED_BY(mutex){0};
    std::size_t tombstones SWB_GUARDED_BY(mutex){0};
    ShardStats stats;
  };

  [[nodiscard]] Shard& shard_for_hash(std::uint64_t hash) {
    return *shards_[rss_shard(hash, shards_.size())];
  }
  [[nodiscard]] const Shard& shard_for_hash(std::uint64_t hash) const {
    return *shards_[rss_shard(hash, shards_.size())];
  }

  /// Lock-free probe of one published array (the caller holds an epoch
  /// pin or the shard mutex); returns a consistent copy of the entry.
  [[nodiscard]] static std::optional<FlowEntry> probe(
      const BucketArray& array, const Labels& labels, const FiveTuple& tuple,
      std::uint64_t hash);

  /// Writer-side probe: the occupied slot holding the key, or nullptr.
  [[nodiscard]] static Slot* find_slot_locked(BucketArray& array,
                                              const Labels& labels,
                                              const FiveTuple& tuple,
                                              std::uint64_t hash);

  /// Installs (labels, tuple) -> entry under the shard lock, growing
  /// first if needed.  Handles overwrite / tombstone revive / fresh claim.
  void insert_locked(Shard& shard, const Labels& labels,
                     const FiveTuple& tuple, std::uint64_t hash,
                     const FlowEntry& entry) SWB_REQUIRES(shard.mutex);

  /// Rehashes the shard into a fresh array sized for its live count when
  /// occupancy (live + tombstones) crosses the 70% growth threshold.
  void maybe_grow(Shard& shard) SWB_REQUIRES(shard.mutex);

  /// Locks every shard in ascending index order (the global lock order).
  /// Deferred std::unique_lock acquisition over swb::Mutex::native() —
  /// invisible to the thread-safety analysis, hence the
  /// SWB_NO_THREAD_SAFETY_ANALYSIS opt-outs on every whole-table caller.
  [[nodiscard]] std::vector<std::unique_lock<std::mutex>> lock_all() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_{16};
  /// Reclamation domain shared by all shards (mutable: readers pin
  /// through const find()).
  mutable swb::EpochDomain epoch_;
};

}  // namespace switchboard::dataplane
