#include "sim/durable_store.hpp"

#include <utility>

#include "common/check.hpp"

namespace switchboard::sim {

void DurableStore::append(const std::string& name, const std::string& bytes) {
  const swb::MutexLock lock{mutex_};
  blobs_[name] += bytes;
  ++appends_;
  bytes_written_ += bytes.size();
}

void DurableStore::write(const std::string& name, std::string bytes) {
  const swb::MutexLock lock{mutex_};
  bytes_written_ += bytes.size();
  blobs_[name] = std::move(bytes);
  ++writes_;
}

std::string DurableStore::read(const std::string& name) const {
  const swb::MutexLock lock{mutex_};
  const auto it = blobs_.find(name);
  return it == blobs_.end() ? std::string{} : it->second;
}

bool DurableStore::exists(const std::string& name) const {
  const swb::MutexLock lock{mutex_};
  return blobs_.find(name) != blobs_.end();
}

void DurableStore::erase(const std::string& name) {
  const swb::MutexLock lock{mutex_};
  blobs_.erase(name);
}

void DurableStore::check_invariants() const {
  const swb::MutexLock lock{mutex_};
  std::uint64_t stored = 0;
  for (const auto& [name, bytes] : blobs_) {
    SWB_CHECK(!name.empty()) << "unnamed durable blob";
    stored += bytes.size();
  }
  // Writes replace and erase discards, so live bytes never exceed the
  // total ever written.
  SWB_CHECK_LE(stored, bytes_written_) << "more bytes stored than written";
}

}  // namespace switchboard::sim
