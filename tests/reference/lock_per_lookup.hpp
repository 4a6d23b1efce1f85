// Lock-per-lookup baseline for the forwarder's flow-state reads: the
// pre-epoch design (DESIGN.md §15), rebuilt outside the library on its
// public API.  One std::mutex per flow-table shard, indexed the way the
// table shards keys, is held around each lookup or each wire-side packet.
// The lookup inside is the library's epoch read, so the results are the
// library's and the baseline only adds the lock: bench_fig8's `mutex` rows
// measure an uncontended per-shard lock around the epoch read.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "dataplane/forwarder.hpp"
#include "dataplane/sharded_flow_table.hpp"

namespace switchboard::dataplane {

class LockPerLookup {
 public:
  /// One lock per shard of a table (or forwarder) with `shard_count`
  /// shards.
  explicit LockPerLookup(std::size_t shard_count);

  /// table.find() under the key's shard lock.
  [[nodiscard]] std::optional<FlowEntry> find(const ShardedFlowTable& table,
                                              const Labels& labels,
                                              const FiveTuple& tuple);

  /// forwarder.process_from_wire() under the flow's shard lock.
  ForwardAction process_from_wire(Forwarder& forwarder, const Packet& packet);

  /// The per-packet loop over process_from_wire(), with
  /// Forwarder::process_batch's contract: `actions` is empty or matches
  /// `packets`; returns the number of packets not dropped.
  std::size_t process_batch(Forwarder& forwarder,
                            std::span<const Packet> packets,
                            std::span<ForwardAction> actions = {});

 private:
  [[nodiscard]] std::mutex& lock_for(const Labels& labels,
                                     const FiveTuple& tuple);

  std::vector<std::mutex> locks_;
};

}  // namespace switchboard::dataplane
