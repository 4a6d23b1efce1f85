#include "reference/lock_per_lookup.hpp"

#include "common/check.hpp"

namespace switchboard::dataplane {

LockPerLookup::LockPerLookup(std::size_t shard_count) : locks_(shard_count) {}

std::mutex& LockPerLookup::lock_for(const Labels& labels,
                                    const FiveTuple& tuple) {
  return locks_[rss_shard(flow_hash(labels, tuple), locks_.size())];
}

std::optional<FlowEntry> LockPerLookup::find(const ShardedFlowTable& table,
                                             const Labels& labels,
                                             const FiveTuple& tuple) {
  const std::lock_guard<std::mutex> lock{lock_for(labels, tuple)};
  return table.find(labels, tuple);
}

ForwardAction LockPerLookup::process_from_wire(Forwarder& forwarder,
                                               const Packet& packet) {
  // The forwarder keys both directions of a connection by the forward
  // 5-tuple.
  const FiveTuple key = packet.direction == Direction::kForward
                            ? packet.flow
                            : packet.flow.reversed();
  const std::lock_guard<std::mutex> lock{lock_for(packet.labels, key)};
  return forwarder.process_from_wire(packet);
}

std::size_t LockPerLookup::process_batch(Forwarder& forwarder,
                                         std::span<const Packet> packets,
                                         std::span<ForwardAction> actions) {
  SWB_CHECK(actions.empty() || actions.size() == packets.size())
      << "actions span must be empty or match the packet batch";
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const ForwardAction action = process_from_wire(forwarder, packets[i]);
    if (!actions.empty()) actions[i] = action;
    if (action.type != ActionType::kDrop) ++delivered;
  }
  return delivered;
}

}  // namespace switchboard::dataplane
