// sim::DurableStore — an in-simulation model of stable storage.
//
// A named-blob byte store that survives crash-with-amnesia faults: when
// the FaultInjector wipes a controller's volatile state, anything the
// controller wrote here is still readable after restart.  Keeping the
// "disk" inside the simulation (instead of touching the host filesystem)
// keeps runs deterministic and lets tests inspect exactly what was
// persisted at crash time.
//
// The store is intentionally dumb: append/overwrite/read whole blobs.
// Record framing, snapshots, and replay live one layer up in
// control::StateJournal.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/thread_annotations.hpp"

namespace switchboard::sim {

class DurableStore {
 public:
  /// Appends `bytes` to the named blob (creating it if absent).
  void append(const std::string& name, const std::string& bytes);

  /// Replaces the named blob's contents; a caller done with `bytes` moves
  /// them in.
  void write(const std::string& name, std::string bytes);

  /// Returns a copy of the blob's contents, or "" when it does not exist.
  /// (By value: a reference would let guarded bytes escape the lock and
  /// dangle across a concurrent write.)
  [[nodiscard]] std::string read(const std::string& name) const;

  [[nodiscard]] bool exists(const std::string& name) const;
  void erase(const std::string& name);

  [[nodiscard]] std::uint64_t appends() const {
    const swb::MutexLock lock{mutex_};
    return appends_;
  }
  [[nodiscard]] std::uint64_t writes() const {
    const swb::MutexLock lock{mutex_};
    return writes_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const {
    const swb::MutexLock lock{mutex_};
    return bytes_written_;
  }
  [[nodiscard]] std::size_t blob_count() const {
    const swb::MutexLock lock{mutex_};
    return blobs_.size();
  }

  /// Audits internal bookkeeping (counter monotonicity vs stored bytes).
  void check_invariants() const;

 private:
  /// Leaf lock: the store calls nothing while holding it.  Lock order:
  /// a StateJournal holding its own mutex_ may take this one, never the
  /// reverse (the store knows nothing about journals).
  mutable swb::Mutex mutex_;
  std::map<std::string, std::string> blobs_ SWB_GUARDED_BY(mutex_);
  std::uint64_t appends_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t writes_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t bytes_written_ SWB_GUARDED_BY(mutex_){0};
};

}  // namespace switchboard::sim
