// control::StateJournal — write-ahead log + snapshots for the controller.
//
// The Global Switchboard appends one record line (format: control/codec.hpp)
// per journaled change to a `<name>.log` blob in a sim::DurableStore.  Every
// `snapshot_interval` appends the owner writes its full state as records;
// the snapshot replaces `<name>.snap` and the log truncates, so recovery is
// always "snapshot records, then log records" through one apply().  The
// configured per-record replay cost makes recovery latency scale with
// journal size in simulated time — the knob the bench_fig13_recovery
// controller-restart series sweeps.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sim/durable_store.hpp"
#include "sim/time.hpp"

namespace switchboard::control {

struct JournalConfig {
  /// Blob-name prefix inside the durable store ("<name>.log"/"<name>.snap").
  std::string name{"gsb"};
  /// Compact after this many appends since the last snapshot (0 = never).
  std::uint32_t snapshot_interval{64};
  /// Simulated time to replay one record at cold start.
  sim::Duration replay_cost_per_record{50};
};

/// The '\n'-terminated records of `blob`, in order, without terminators;
/// an unterminated tail is not a record and is left out.
[[nodiscard]] std::vector<std::string> split_records(std::string_view blob);
/// `records` as one blob, each '\n'-terminated: split_records' inverse.
[[nodiscard]] std::string join_records(const std::vector<std::string>& records);

class StateJournal {
 public:
  StateJournal(sim::DurableStore& store, JournalConfig config = {});

  /// Appends one record (no embedded newlines) to the log.  The first
  /// append after construction seals any torn trailing record left by a
  /// crash mid-append — truncating it rather than letting the new record
  /// concatenate onto the unterminated tail into one corrupt line.
  void append(const std::string& record);

  /// Replaces the snapshot with `blob` — non-empty records, each
  /// '\n'-terminated — and truncates the log.  The blob is moved into the
  /// store, not copied.  Called by the owner when the journal asks for
  /// compaction (wants_snapshot()) and by replicas installing a snapshot.
  void write_snapshot(std::string blob);

  /// True when the append counter crossed the snapshot interval; the
  /// owner responds with write_snapshot(ControllerState::snapshot()).
  [[nodiscard]] bool wants_snapshot() const;

  [[nodiscard]] std::vector<std::string> snapshot_records() const;
  [[nodiscard]] std::vector<std::string> log_records() const;

  /// Simulated cost of replaying everything currently persisted.
  [[nodiscard]] sim::Duration replay_cost() const;

  [[nodiscard]] std::uint64_t appends() const {
    const swb::MutexLock lock{mutex_};
    return appends_;
  }
  [[nodiscard]] std::uint64_t appends_since_snapshot() const {
    const swb::MutexLock lock{mutex_};
    return appends_since_snapshot_;
  }
  [[nodiscard]] std::uint64_t snapshots_taken() const {
    const swb::MutexLock lock{mutex_};
    return snapshots_taken_;
  }
  [[nodiscard]] std::uint64_t records_compacted() const {
    const swb::MutexLock lock{mutex_};
    return records_compacted_;
  }
  /// Torn trailing records (a final line with no terminator — the blob
  /// tail of a crash mid-append) dropped during replay instead of
  /// failing the whole recovery.
  [[nodiscard]] std::uint64_t torn_records_dropped() const {
    const swb::MutexLock lock{mutex_};
    return torn_records_dropped_;
  }
  [[nodiscard]] const JournalConfig& config() const { return config_; }
  /// Blob names inside the durable store — for tests and tools that
  /// inspect or corrupt the persisted bytes directly.
  [[nodiscard]] std::string log_blob() const { return config_.name + ".log"; }
  [[nodiscard]] std::string snap_blob() const {
    return config_.name + ".snap";
  }

  /// Audits persisted framing: no empty records among the replayable
  /// (terminated) lines; a torn trailing record is tolerated and counted.
  void check_invariants() const;

 private:
  std::vector<std::string> split_lines(const std::string& bytes) const;

  sim::DurableStore& store_;
  JournalConfig config_;
  /// Guards the append/snapshot counters and keeps append's
  /// counter-bump + store write atomic as one committed record.
  /// Lock order: journal mutex_ -> store mutex_ (the store is a leaf and
  /// never calls back up), never the reverse.
  mutable swb::Mutex mutex_;
  std::uint64_t appends_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t appends_since_snapshot_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t snapshots_taken_ SWB_GUARDED_BY(mutex_){0};
  std::uint64_t records_compacted_ SWB_GUARDED_BY(mutex_){0};
  /// mutable: bumped from the const replay readers when they shed a torn
  /// trailing record.
  mutable std::uint64_t torn_records_dropped_ SWB_GUARDED_BY(mutex_){0};
  /// First append already checked the blob for a torn tail.
  bool sealed_ SWB_GUARDED_BY(mutex_){false};
};

}  // namespace switchboard::control
