#include "dataplane/forwarder.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace switchboard::dataplane {

namespace {

/// SoA chunk width of the batch pipeline: matches the flow table's
/// find_batch chunk so one epoch pin covers one prefetch wave.
constexpr std::size_t kBatchChunk = 32;

/// Counts a dropped packet and returns the drop action.
ForwardAction drop(ForwarderCounters& counters) {
  ++counters.drops;
  return {ActionType::kDrop, kNoElement};
}

}  // namespace

Forwarder::Forwarder(ElementId id, std::size_t flow_capacity,
                     std::size_t worker_count)
    : id_{id},
      worker_count_{std::max<std::size_t>(worker_count, 1)},
      table_{flow_capacity, shard_count_for_workers(worker_count)},
      counter_cells_{table_.shard_count()},
      selector_seed_{mix64(0x5B1CEB00ULL + id)} {}

void Forwarder::register_attachment(ElementId instance, const Labels& labels) {
  attachment_labels_[instance] = labels;
}

ForwarderCounters Forwarder::counters() const {
  ForwarderCounters total;
  for (const CounterCell& cell : counter_cells_) {
    total.from_wire += cell.counters.from_wire;
    total.from_attached += cell.counters.from_attached;
    total.flow_misses += cell.counters.flow_misses;
    total.drops += cell.counters.drops;
    total.label_reaffixed += cell.counters.label_reaffixed;
  }
  return total;
}

FlowEntry Forwarder::pick(const LoadBalanceRule& rule, const Labels& labels,
                          const FiveTuple& key) const {
  const std::uint64_t selector =
      mix64(selector_seed_ ^ flow_hash(labels, key));
  FlowEntry pinning;
  if (!rule.vnf_instances.empty()) {
    pinning.vnf_instance = rule.vnf_instances.pick(selector);
  }
  if (!rule.next_forwarders.empty()) {
    pinning.next_forwarder = rule.next_forwarders.pick(mix64(selector));
  }
  return pinning;
}

std::optional<FlowEntry> Forwarder::first_pinning(
    const Packet& packet, const FiveTuple& key,
    ForwarderCounters& counters) const {
  ++counters.flow_misses;
  const LoadBalanceRule* rule = rules_.find(packet.labels);
  if (packet.direction == Direction::kReverse || rule == nullptr ||
      rule->vnf_instances.empty()) {
    drop(counters);
    return std::nullopt;
  }
  FlowEntry pinning = pick(*rule, packet.labels, key);
  pinning.prev_element = packet.arrival_source;
  return pinning;
}

ForwardAction Forwarder::repin(const Labels& labels, const FiveTuple& key,
                               FlowEntry entry, const FlowEntry& pinning) {
  entry.vnf_instance = pinning.vnf_instance;
  if (entry.next_forwarder == kNoElement) {
    entry.next_forwarder = pinning.next_forwarder;
  }
  table_.insert(labels, key, entry);
  return {ActionType::kDeliverToAttached, entry.vnf_instance};
}

ForwardAction Forwarder::wire_resolve(const Packet& packet,
                                      const FiveTuple& key,
                                      ForwarderCounters& counters,
                                      const std::optional<FlowEntry>& entry) {
  if (entry) {
    if (entry->vnf_instance != kNoElement) {
      return {ActionType::kDeliverToAttached, entry->vnf_instance};
    }
    // Drained pinning: the instance serving this flow died.  Re-pin onto a
    // survivor from the current rule; workers racing on the same flow
    // write identical entries.
    const LoadBalanceRule* rule = rules_.find(packet.labels);
    if (rule == nullptr || rule->vnf_instances.empty()) return drop(counters);
    return repin(packet.labels, key, *entry, pick(*rule, packet.labels, key));
  }

  const std::optional<FlowEntry> fresh = first_pinning(packet, key, counters);
  if (!fresh) return ForwardAction{};
  // insert_if_absent: if another worker raced us to the first packet, adopt
  // its pinning so every packet of the flow sees one consistent entry —
  // re-pinned if it was drained between our lookup miss and the insert.
  const FlowEntry stored = table_.insert_if_absent(packet.labels, key, *fresh);
  if (stored.vnf_instance == kNoElement) {
    return repin(packet.labels, key, stored, *fresh);
  }
  return {ActionType::kDeliverToAttached, stored.vnf_instance};
}

ForwardAction Forwarder::process_from_wire(const Packet& packet) {
  const FiveTuple key = canonical_tuple(packet);
  const std::uint64_t hash = flow_hash(packet.labels, key);
  ForwarderCounters& counters = cell_for(hash);
  ++counters.from_wire;
  return wire_resolve(packet, key, counters,
                      table_.find(packet.labels, key, hash));
}

std::size_t Forwarder::process_batch(std::span<const Packet> packets,
                                     std::span<ForwardAction> actions) {
  SWB_CHECK(actions.empty() || actions.size() == packets.size())
      << "actions span must be empty or match the packet batch";
  // SoA pipeline: find_batch hashes + prefetches + probes a chunk under
  // one epoch pin; the act phase below then runs lock-free for hits and
  // falls back to wire_resolve for misses and drained pinnings (both take
  // the shard write lock, exactly like the per-packet path — so counters
  // and actions stay byte-identical).
  std::size_t delivered = 0;
  ShardedFlowTable::LookupRequest requests[kBatchChunk];
  for (std::size_t base = 0; base < packets.size(); base += kBatchChunk) {
    const std::size_t chunk = std::min(kBatchChunk, packets.size() - base);
    for (std::size_t i = 0; i < chunk; ++i) {
      const Packet& packet = packets[base + i];
      requests[i].labels = packet.labels;
      requests[i].tuple = canonical_tuple(packet);
    }
    table_.find_batch(std::span{requests, chunk});
    for (std::size_t i = 0; i < chunk; ++i) {
      const Packet& packet = packets[base + i];
      const ShardedFlowTable::LookupRequest& request = requests[i];
      ForwarderCounters& counters = cell_for(request.hash);
      ++counters.from_wire;
      ForwardAction action;
      if (request.hit && request.entry.vnf_instance != kNoElement) {
        // Hot path: resolved entirely inside the batch lookup.
        action = {ActionType::kDeliverToAttached, request.entry.vnf_instance};
      } else {
        action = wire_resolve(
            packet, request.tuple, counters,
            request.hit ? std::optional<FlowEntry>{request.entry}
                        : std::nullopt);
      }
      if (!actions.empty()) actions[base + i] = action;
      if (action.type != ActionType::kDrop) ++delivered;
    }
  }
  return delivered;
}

ForwardAction Forwarder::process_annotated(Packet& packet) {
  const FiveTuple key = canonical_tuple(packet);
  ForwarderCounters& counters = cell_for(flow_hash(packet.labels, key));
  ++counters.from_wire;
  if (!packet.steering.valid_for(rules_.version())) {
    // Missing or stale: affix the pinning the flow table would hold.
    const std::optional<FlowEntry> pinning =
        first_pinning(packet, key, counters);
    if (!pinning) return ForwardAction{};
    packet.steering = SteeringAnnotation{*pinning, rules_.version()};
  }
  // Steering rides in the packet: no per-flow state touched at all.
  return {ActionType::kDeliverToAttached,
          packet.steering.pinning.vnf_instance};
}

std::size_t Forwarder::process_batch_annotated(
    std::span<Packet> packets, std::span<ForwardAction> actions) {
  SWB_CHECK(actions.empty() || actions.size() == packets.size())
      << "actions span must be empty or match the packet batch";
  // No table, no prefetch wave needed: the annotation IS the lookup.
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const ForwardAction action = process_annotated(packets[i]);
    if (!actions.empty()) actions[i] = action;
    if (action.type != ActionType::kDrop) ++delivered;
  }
  return delivered;
}

ForwardAction Forwarder::process_from_attached(Packet& packet) {
  // Re-affix labels for attached VNFs that stripped them (Section 5.3):
  // the attachment uniquely identifies the labels.
  bool reaffixed = false;
  if (packet.labels == Labels{}) {
    const auto it = attachment_labels_.find(packet.arrival_source);
    if (it == attachment_labels_.end()) {
      ForwarderCounters& counters =
          cell_for(flow_hash(packet.labels, canonical_tuple(packet)));
      ++counters.from_attached;
      return drop(counters);
    }
    packet.labels = it->second;
    reaffixed = true;
  }

  const FiveTuple key = canonical_tuple(packet);
  const std::uint64_t hash = flow_hash(packet.labels, key);
  ForwarderCounters& counters = cell_for(hash);
  ++counters.from_attached;
  if (reaffixed) ++counters.label_reaffixed;

  std::optional<FlowEntry> entry = table_.find(packet.labels, key, hash);
  if (!entry) {
    // First packet of a connection entering from an attached ingress edge.
    ++counters.flow_misses;
    const LoadBalanceRule* rule = rules_.find(packet.labels);
    if (packet.direction == Direction::kReverse || rule == nullptr) {
      return drop(counters);
    }
    FlowEntry fresh = pick(*rule, packet.labels, key);
    fresh.vnf_instance = packet.arrival_source;   // the ingress edge
    entry = table_.insert_if_absent(packet.labels, key, fresh);
  }

  ElementId target = packet.direction == Direction::kForward
      ? entry->next_forwarder
      : entry->prev_element;
  if (target == kNoElement && packet.direction == Direction::kForward) {
    // Drained next hop: re-pick from the current rule.  An egress
    // forwarder keeps an empty next_forwarders rule, so terminal flows
    // still fall through to the drop below.
    const LoadBalanceRule* rule = rules_.find(packet.labels);
    if (rule != nullptr) {
      target = pick(*rule, packet.labels, key).next_forwarder;
    }
    if (target != kNoElement) {
      FlowEntry updated = *entry;
      updated.next_forwarder = target;
      table_.insert(packet.labels, key, updated);
    }
  }
  if (target == kNoElement) return drop(counters);
  return {ActionType::kSendToForwarder, target};
}

bool Forwarder::complete_flow(const Labels& labels, const FiveTuple& tuple) {
  return table_.erase(labels, tuple);
}

std::size_t Forwarder::migrate_flows(Forwarder& target, ElementId instance,
                                     ElementId replacement) {
  struct Moved {
    Labels labels;
    FiveTuple tuple;
    FlowEntry entry;
  };
  std::vector<Moved> moved;
  table_.for_each([&](const Labels& labels, const FiveTuple& tuple,
                      const FlowEntry& entry) {
    if (entry.vnf_instance == instance) {
      FlowEntry updated = entry;
      updated.vnf_instance = replacement;
      moved.push_back(Moved{labels, tuple, updated});
    }
  });
  for (const Moved& m : moved) {
    target.table_.insert(m.labels, m.tuple, m.entry);
    table_.erase(m.labels, m.tuple);
  }
  return moved.size();
}

std::size_t Forwarder::drain_element(ElementId dead) {
  // update_each rewrites each entry in place under its slot's seqlock,
  // so lock-free readers racing a drain see either the old or the new
  // pinning, never a torn one.
  return table_.update_each(
      [&](const Labels&, const FiveTuple&, FlowEntry& entry) {
        bool touched = false;
        if (entry.vnf_instance == dead) {
          entry.vnf_instance = kNoElement;
          touched = true;
        }
        if (entry.next_forwarder == dead) {
          entry.next_forwarder = kNoElement;
          touched = true;
        }
        // prev_element is left alone: reverse packets keep flowing toward
        // the ingress while the forward pinning waits for its re-pick.
        return touched;
      });
}

}  // namespace switchboard::dataplane
