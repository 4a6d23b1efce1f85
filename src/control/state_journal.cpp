#include "control/state_journal.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace switchboard::control {

std::vector<std::string> split_records(std::string_view blob) {
  std::vector<std::string> records;
  records.reserve(
      static_cast<std::size_t>(std::count(blob.begin(), blob.end(), '\n')));
  for (std::size_t end = blob.find('\n'); end != std::string_view::npos;
       end = blob.find('\n')) {
    records.emplace_back(blob.substr(0, end));
    blob.remove_prefix(end + 1);
  }
  return records;
}

std::string join_records(const std::vector<std::string>& records) {
  std::string blob;
  for (const std::string& record : records) {
    blob += record;
    blob += '\n';
  }
  return blob;
}

StateJournal::StateJournal(sim::DurableStore& store, JournalConfig config)
    : store_{store}, config_{std::move(config)} {
  SWB_CHECK(!config_.name.empty());
}

void StateJournal::append(const std::string& record) {
  SWB_CHECK(!record.empty());
  SWB_CHECK(record.find('\n') == std::string::npos)
      << "journal record with embedded newline";
  // Lock across store write + counter bump so a record is committed and
  // counted atomically (journal mutex_ -> store mutex_, see header).
  const swb::MutexLock lock{mutex_};
  if (!sealed_) {
    // A crash mid-append can leave the blob ending in an unterminated
    // record; appending onto it would fuse two records into one corrupt
    // line.  Truncate the torn tail permanently before the first write —
    // it was never durably committed, so dropping it is the only safe
    // interpretation.
    sealed_ = true;
    const std::string bytes = store_.read(log_blob());
    if (!bytes.empty() && bytes.back() != '\n') {
      const std::size_t last = bytes.rfind('\n');
      store_.write(log_blob(), last == std::string::npos
                                   ? std::string{}
                                   : bytes.substr(0, last + 1));
      ++torn_records_dropped_;
    }
  }
  store_.append(log_blob(), record + "\n");
  ++appends_;
  ++appends_since_snapshot_;
}

bool StateJournal::wants_snapshot() const {
  const swb::MutexLock lock{mutex_};
  return config_.snapshot_interval > 0 &&
         appends_since_snapshot_ >= config_.snapshot_interval;
}

void StateJournal::write_snapshot(std::string blob) {
  // Every record is non-empty and newline-free: the blob is empty or ends
  // in a terminator, and no line in it is empty.
  SWB_CHECK(blob.empty() || (blob.front() != '\n' && blob.back() == '\n'))
      << "snapshot blob is not a sequence of terminated records";
  SWB_CHECK(blob.find("\n\n") == std::string::npos)
      << "empty snapshot record";
  const swb::MutexLock lock{mutex_};
  sealed_ = true;   // the log is truncated below; no torn tail survives
  records_compacted_ += appends_since_snapshot_;
  store_.write(snap_blob(), std::move(blob));
  store_.write(log_blob(), "");
  appends_since_snapshot_ = 0;
  ++snapshots_taken_;
}

std::vector<std::string> StateJournal::split_lines(
    const std::string& bytes) const {
  if (!bytes.empty() && bytes.back() != '\n') {
    // A crash mid-append leaves a torn trailing record: the final line
    // never got its terminator.  Everything before it was committed
    // whole, so replay proceeds on those; the torn tail is shed and
    // counted rather than failing the entire recovery.
    const swb::MutexLock lock{mutex_};
    ++torn_records_dropped_;
  }
  return split_records(bytes);
}

std::vector<std::string> StateJournal::snapshot_records() const {
  return split_lines(store_.read(snap_blob()));
}

std::vector<std::string> StateJournal::log_records() const {
  return split_lines(store_.read(log_blob()));
}

sim::Duration StateJournal::replay_cost() const {
  const std::size_t records =
      snapshot_records().size() + log_records().size();
  return static_cast<sim::Duration>(records) * config_.replay_cost_per_record;
}

void StateJournal::check_invariants() const {
  for (const std::string& record : snapshot_records()) {
    SWB_CHECK(!record.empty()) << "empty snapshot record";
  }
  for (const std::string& record : log_records()) {
    SWB_CHECK(!record.empty()) << "empty log record";
  }
  const swb::MutexLock lock{mutex_};
  SWB_CHECK_LE(appends_since_snapshot_, appends_);
}

}  // namespace switchboard::control
