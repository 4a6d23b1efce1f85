#include "common/epoch.hpp"

#include <bit>

#include "common/check.hpp"

namespace switchboard::swb {

namespace {

static_assert(EpochDomain::kMaxReaders == 64, "one id-pool bit per slot");

/// Process-wide reader-id pool: bit i is set while a live thread holds
/// reader id i.
std::atomic<std::uint64_t> held_reader_ids{0};

/// The calling thread's reader id; kMaxReaders until its first pin.  A
/// plain thread_local, so the per-pin read needs no TLS init guard.
thread_local std::size_t this_reader = EpochDomain::kMaxReaders;

/// Frees the thread's reader id when the thread exits.  The release
/// orders every access the thread made to its slots before the claim of
/// the thread that gets the id next.
struct ReaderIdRelease {
  ReaderIdRelease() = default;
  ReaderIdRelease(const ReaderIdRelease&) = delete;
  ReaderIdRelease& operator=(const ReaderIdRelease&) = delete;
  ~ReaderIdRelease() {
    held_reader_ids.fetch_and(~(std::uint64_t{1} << this_reader),
                              std::memory_order_release);
    this_reader = EpochDomain::kMaxReaders;
  }
};

/// The thread's first pin: takes the lowest free reader id.
std::size_t claim_reader_id() {
  std::uint64_t held = held_reader_ids.load(std::memory_order_relaxed);
  std::size_t id = 0;
  do {
    SWB_CHECK_NE(held, ~std::uint64_t{0})
        << "more than kMaxReaders live threads pinned an epoch";
    id = static_cast<std::size_t>(std::countr_one(held));
  } while (!held_reader_ids.compare_exchange_weak(
      held, held | (std::uint64_t{1} << id), std::memory_order_acquire,
      std::memory_order_relaxed));
  this_reader = id;
  thread_local const ReaderIdRelease release;   // frees `id` at thread exit
  (void)release;
  return id;
}

}  // namespace

EpochDomain::~EpochDomain() {
  SWB_CHECK_EQ(pinned_readers(), 0u)
      << "EpochDomain destroyed with readers still pinned";
  const MutexLock lock{retire_mutex_};
  (void)reclaim_before(kUnpinned);   // no readers: everything is past grace
}

std::size_t EpochDomain::pin() {
  std::size_t id = this_reader;
  if (id == kMaxReaders) id = claim_reader_id();
  ReaderSlot& slot = slots_[id];
  if (slot.depth++ > 0) return id;   // nested: the outer epoch covers it

  // Publish the epoch we observed, then re-check: if a writer advanced
  // the global epoch in between, republish the newer value.  On exit the
  // published pin is >= the epoch any in-flight writer will stamp its
  // next retirement with (see the ordering contract in the header).
  std::uint64_t observed = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot.pinned.store(observed, std::memory_order_seq_cst);
    const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
    if (now == observed) break;
    observed = now;
  }
  return id;
}

void EpochDomain::unpin(std::size_t slot) {
  SWB_CHECK_EQ(slot, this_reader) << "unpin from a thread that did not pin";
  ReaderSlot& reader = slots_[slot];
  SWB_DCHECK_GT(reader.depth, 0u);
  if (--reader.depth > 0) return;
  // Release order: every protected load this reader performed happens
  // before the unpin becomes visible to a reclaiming writer.
  reader.pinned.store(kUnpinned, std::memory_order_release);
}

void EpochDomain::retire(void* object, void (*deleter)(void*)) {
  const MutexLock lock{retire_mutex_};
  const std::uint64_t stamp = global_epoch_.load(std::memory_order_seq_cst);
  retired_.push_back(Retired{object, deleter, stamp});
  // Advance the epoch (seq_cst: orders against reader pin publication).
  // Writers are serialized by retire_mutex_, so load+store cannot lose
  // an update.
  global_epoch_.store(stamp + 1, std::memory_order_seq_cst);
  (void)reclaim_before(min_pinned_epoch());
}

std::size_t EpochDomain::try_reclaim() {
  const MutexLock lock{retire_mutex_};
  return reclaim_before(min_pinned_epoch());
}

std::uint64_t EpochDomain::min_pinned_epoch() const {
  std::uint64_t min = kUnpinned;
  for (const ReaderSlot& slot : slots_) {
    // seq_cst: must order after the global-epoch advance in retire() so
    // a reader whose pin "raced ahead" of the advance is always seen.
    const std::uint64_t pinned = slot.pinned.load(std::memory_order_seq_cst);
    if (pinned < min) min = pinned;
  }
  return min;
}

std::size_t EpochDomain::reclaim_before(std::uint64_t horizon) {
  // An object stamped at epoch E may still be referenced by readers
  // pinned at epochs <= E; it is safe once every pinned epoch is > E.
  std::size_t freed = 0;
  std::size_t keep = 0;
  for (Retired& r : retired_) {
    if (r.epoch < horizon) {
      r.deleter(r.object);
      ++freed;
    } else {
      retired_[keep++] = r;
    }
  }
  retired_.resize(keep);
  return freed;
}

std::size_t EpochDomain::retired_count() const {
  const MutexLock lock{retire_mutex_};
  return retired_.size();
}

std::size_t EpochDomain::pinned_readers() const {
  std::size_t count = 0;
  for (const ReaderSlot& slot : slots_) {
    if (slot.pinned.load(std::memory_order_acquire) != kUnpinned) ++count;
  }
  return count;
}

}  // namespace switchboard::swb
