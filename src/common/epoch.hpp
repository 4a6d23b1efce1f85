// Epoch-based reclamation (EBR) for the lock-free read side of the data
// plane (DESIGN.md §15).
//
// The problem: the sharded flow table publishes its bucket arrays
// through atomic pointers so packet lookups never take a mutex (entries
// live inline in the slots, rewritten under a per-slot seqlock).  A
// writer that replaces an array (rehash, clear) cannot free the old one
// immediately — a reader may have loaded the pointer a cycle earlier and
// still be probing it.
//
// The scheme (classic three-phase EBR, specialised to this repo's
// quiesce-friendly workloads):
//
//   * the domain keeps a GLOBAL EPOCH counter and a fixed array of
//     cacheline-padded reader slots;
//   * a reader PINS an epoch before touching any protected pointer
//     (EpochGuard): in its thread's slot (below) it publishes the epoch
//     it observed, and re-checks the global epoch so the publication can
//     never lag a concurrent writer's advance (the seq_cst store/load
//     pair below);
//   * a writer RETIREs an object only after making it unreachable
//     (storing the replacement pointer with release order).  retire()
//     stamps the object with the current epoch and advances the global
//     epoch, then frees every retired object whose stamp is OLDER than
//     the minimum pinned epoch — the grace period: any reader that could
//     still hold the pointer is pinned at an epoch <= the stamp, so the
//     object survives until that reader unpins.
//
// Ordering contract (why readers can never observe freed memory):
//   writer: replace pointer (release) -> retire stamp E -> advance to
//   E+1 (seq_cst) -> scan slots (seq_cst loads).  reader: publish pinned
//   epoch (seq_cst) -> re-read global (seq_cst).  If the reader's
//   re-read returns E, its pinned store precedes the writer's scan in
//   the seq_cst total order, so the writer computes min <= E and keeps
//   the object.  If the re-read returns E+1, it synchronizes-with the
//   writer's advance, so every protected load after the pin observes the
//   replacement pointer and the retired object is unreachable to this
//   reader.
//
// Reader slots are thread-owned: a thread claims a process-wide reader id
// (0..kMaxReaders-1) at its first pin in any domain and frees it when it
// exits (a thread_local destructor); in every domain it pins through
// slot `id`, so no pin claims anything.  A slot's depth counts its
// thread's nested pins in that domain, and only the owning thread touches
// it.  The outermost pin publishes an epoch; a nested pin keeps the outer
// epoch, so nested guards act as one longer outer pin.  kMaxReaders
// therefore bounds the live threads that have pinned, not concurrent
// pins: one thread more aborts through SWB_CHECK.
//
// Locking: pin/unpin take no lock and run one locked instruction at
// most, the seq_cst store of an outermost pin.  A nested pin bumps the
// depth; an unpin drops it and, back at 0, makes one release store.  The
// retired list is guarded by a leaf swb::Mutex; callers may hold their
// own write locks while calling retire() (shard mutex -> retire mutex is
// the documented order; nothing is ever acquired under retire_mutex_).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.hpp"

namespace switchboard::swb {

class EpochDomain {
 public:
  /// Reader slots per domain, one per process-wide reader id: the bound
  /// on live threads that have pinned (any domain), not on concurrent
  /// pins.  The thread past it aborts (SWB_CHECK).
  static constexpr std::size_t kMaxReaders = 64;
  /// Slot value meaning "no epoch pinned".
  static constexpr std::uint64_t kUnpinned = ~std::uint64_t{0};

  EpochDomain() = default;
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// Frees everything still retired.  Requires quiescence: aborts (via
  /// SWB_CHECK) if any reader is still pinned.
  ~EpochDomain();

  /// Pins the calling thread in its own slot: the outermost pin publishes
  /// the current epoch, a nested one only deepens the pin and keeps the
  /// outer epoch.  Returns the slot index, the thread's reader id (pass it
  /// to unpin()).  Lock-free; the first pin of a thread claims its reader
  /// id and aborts if kMaxReaders live threads already hold one.  Prefer
  /// EpochGuard.
  [[nodiscard]] std::size_t pin();

  /// Undoes one pin() of the calling thread; `slot` is what it returned.
  /// When the outermost pin ends, the caller must not dereference any
  /// epoch-protected pointer it loaded under the pin.
  void unpin(std::size_t slot);

  /// Hands `object` to the domain for deferred deletion via `deleter`.
  /// The object must already be unreachable from the protected structure
  /// (the caller replaced the pointer, with release order, before
  /// retiring).  Advances the global epoch and opportunistically frees
  /// every retired object past its grace period.
  void retire(void* object, void (*deleter)(void*));

  /// Typed convenience: retire(p) frees with `delete static_cast<T*>(p)`.
  template <typename T>
  void retire(T* object) {
    retire(static_cast<void*>(object),
           [](void* p) { delete static_cast<T*>(p); });
  }

  /// Frees every retired object whose grace period has elapsed; returns
  /// the number freed.  retire() calls this automatically — the explicit
  /// entry point exists for tests and for quiesced teardown.
  std::size_t try_reclaim();

  // -- introspection (tests, stats) ----------------------------------
  [[nodiscard]] std::uint64_t current_epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t retired_count() const;
  [[nodiscard]] std::size_t pinned_readers() const;

 private:
  struct Retired {
    void* object;
    void (*deleter)(void*);
    std::uint64_t epoch;   // global epoch when retired
  };

  /// One reader slot, padded so pin/unpin traffic of different threads
  /// never shares a cacheline.
  struct alignas(64) ReaderSlot {
    std::atomic<std::uint64_t> pinned{kUnpinned};
    /// The owning thread's nested pins; no other thread reads or writes
    /// it (a recycled reader id passes to the next thread through the id
    /// pool's release/acquire pair).
    std::size_t depth{0};
  };

  /// Minimum epoch pinned by any slot (kUnpinned when none).
  [[nodiscard]] std::uint64_t min_pinned_epoch() const;

  /// Frees retired objects with epoch < `horizon`; caller holds
  /// retire_mutex_.  Returns the number freed.
  std::size_t reclaim_before(std::uint64_t horizon)
      SWB_REQUIRES(retire_mutex_);

  std::atomic<std::uint64_t> global_epoch_{1};
  ReaderSlot slots_[kMaxReaders];

  /// Leaf lock (nothing is acquired while holding it): callers may hold
  /// their own structure locks across retire().
  mutable Mutex retire_mutex_;
  std::vector<Retired> retired_ SWB_GUARDED_BY(retire_mutex_);
};

/// RAII epoch pin: hold one across every sequence of loads through
/// epoch-protected pointers (a single lookup, or a whole lookup batch —
/// batching amortizes the pin to nothing).
class EpochGuard {
 public:
  explicit EpochGuard(EpochDomain& domain)
      : domain_{domain}, slot_{domain.pin()} {}
  ~EpochGuard() { domain_.unpin(slot_); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochDomain& domain_;
  std::size_t slot_;
};

}  // namespace switchboard::swb
