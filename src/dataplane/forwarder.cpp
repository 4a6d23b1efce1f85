#include "dataplane/forwarder.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace switchboard::dataplane {

namespace {

/// SoA chunk width of the batch pipeline: matches the flow table's
/// find_batch chunk so one epoch pin covers one prefetch wave.
constexpr std::size_t kBatchChunk = 32;

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

ForwardAction Forwarder::wire_resolve(const Packet& packet,
                                      const FiveTuple& key,
                                      ForwarderCounters& counters,
                                      const std::optional<FlowEntry>& entry) {
  if (entry) {
    if (entry->vnf_instance != kNoElement) {
      return {ActionType::kDeliverToAttached, entry->vnf_instance};
    }
    // Drained pinning: the instance serving this flow died.  Re-pin onto a
    // survivor from the current rule.  The pick is a pure function of the
    // flow key, so workers racing on the same flow write identical entries;
    // prev_element is preserved — the reverse path stays symmetric.
    const LoadBalanceRule* rule = rules_.find(packet.labels);
    if (rule == nullptr || rule->vnf_instances.empty()) {
      ++counters.drops;
      return {ActionType::kDrop, kNoElement};
    }
    const std::uint64_t selector = flow_selector(packet.labels, key);
    FlowEntry updated = *entry;
    updated.vnf_instance = rule->vnf_instances.pick(selector);
    if (updated.next_forwarder == kNoElement &&
        !rule->next_forwarders.empty()) {
      updated.next_forwarder = rule->next_forwarders.pick(mix64(selector));
    }
    table_.insert(packet.labels, key, updated);
    return {ActionType::kDeliverToAttached, updated.vnf_instance};
  }

  // First packet of the connection at this forwarder.
  ++counters.flow_misses;
  if (packet.direction == Direction::kReverse) {
    // Reverse packets must hit state created by the forward direction;
    // a miss means the flow is unknown (e.g. expired) — drop.
    ++counters.drops;
    return {ActionType::kDrop, kNoElement};
  }
  const LoadBalanceRule* rule = rules_.find(packet.labels);
  if (rule == nullptr || rule->vnf_instances.empty()) {
    ++counters.drops;
    return {ActionType::kDrop, kNoElement};
  }

  const std::uint64_t selector = flow_selector(packet.labels, key);
  FlowEntry fresh;
  fresh.vnf_instance = rule->vnf_instances.pick(selector);
  fresh.next_forwarder = rule->next_forwarders.empty()
      ? kNoElement
      : rule->next_forwarders.pick(mix64(selector));
  fresh.prev_element = packet.arrival_source;
  // insert_if_absent: if another worker raced us to the first packet, adopt
  // its pinning so every packet of the flow sees one consistent entry.
  FlowEntry stored = table_.insert_if_absent(packet.labels, key, fresh);
  if (stored.vnf_instance == kNoElement) {
    // The adopted entry was drained between our lookup miss and the
    // insert.  Re-pin it exactly like the drained-hit path above — the
    // pick is the same pure function of the flow key, so racing workers
    // still write identical entries.
    stored.vnf_instance = fresh.vnf_instance;
    if (stored.next_forwarder == kNoElement) {
      stored.next_forwarder = fresh.next_forwarder;
    }
    table_.insert(packet.labels, key, stored);
  }
  return {ActionType::kDeliverToAttached, stored.vnf_instance};
}

ForwardAction Forwarder::process_from_wire(const Packet& packet) {
  const FiveTuple key = canonical_tuple(packet);
  ForwarderCounters& counters = cell_for(packet.labels, key);
  ++counters.from_wire;
  return wire_resolve(packet, key, counters, lookup(packet.labels, key));
}

std::size_t Forwarder::process_batch(std::span<const Packet> packets,
                                     std::span<ForwardAction> actions) {
  SWB_CHECK(actions.empty() || actions.size() == packets.size())
      << "actions span must be empty or match the packet batch";
  std::size_t delivered = 0;
  if (read_mode_ == ReadMode::kMutexRead) {
    // Mutex ablation: the pre-epoch per-packet loop (one lock per lookup).
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const ForwardAction action = process_from_wire(packets[i]);
      if (!actions.empty()) actions[i] = action;
      if (action.type != ActionType::kDrop) ++delivered;
    }
    return delivered;
  }

  // Epoch mode: SoA pipeline.  find_batch hashes + prefetches + probes a
  // chunk under one epoch pin; the act phase below then runs lock-free
  // for hits and falls back to wire_resolve for misses and drained
  // pinnings (both take the shard write lock, exactly like the
  // per-packet path — so counters and actions stay byte-identical).
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
      ForwarderCounters& counters = cell_for(packet.labels, request.tuple);
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

ForwardAction Forwarder::annotate(Packet& packet, const FiveTuple& key,
                                  ForwarderCounters& counters) {
  // Miss/stale path of the annotation mode: re-derive the pinning from
  // the current rule and affix it.  The pick is the same pure function
  // of (seed, flow key) the table modes use, so the annotation a packet
  // ends up carrying equals the entry the flow table would hold.
  ++counters.flow_misses;
  if (packet.direction == Direction::kReverse) {
    // Reverse packets need the forward path's affix (symmetric return
    // rides the annotation); without one the flow is unknown — drop.
    ++counters.drops;
    return {ActionType::kDrop, kNoElement};
  }
  const LoadBalanceRule* rule = rules_.find(packet.labels);
  if (rule == nullptr || rule->vnf_instances.empty()) {
    ++counters.drops;
    return {ActionType::kDrop, kNoElement};
  }
  const std::uint64_t selector = flow_selector(packet.labels, key);
  FlowEntry pinning;
  pinning.vnf_instance = rule->vnf_instances.pick(selector);
  pinning.next_forwarder = rule->next_forwarders.empty()
      ? kNoElement
      : rule->next_forwarders.pick(mix64(selector));
  pinning.prev_element = packet.arrival_source;
  packet.steering = SteeringAnnotation{pinning, rules_.version()};
  return {ActionType::kDeliverToAttached, pinning.vnf_instance};
}

ForwardAction Forwarder::process_annotated(Packet& packet) {
  const FiveTuple key = canonical_tuple(packet);
  ForwarderCounters& counters = cell_for(packet.labels, key);
  ++counters.from_wire;
  if (packet.steering.valid_for(rules_.version())) {
    // Steering rides in the packet: no per-flow state touched at all.
    return {ActionType::kDeliverToAttached,
            packet.steering.pinning.vnf_instance};
  }
  return annotate(packet, key, counters);
}

std::size_t Forwarder::process_batch_annotated(
    std::span<Packet> packets, std::span<ForwardAction> actions) {
  SWB_CHECK(actions.empty() || actions.size() == packets.size())
      << "actions span must be empty or match the packet batch";
  // No table, no prefetch wave needed: the annotation IS the lookup.
  const std::uint32_t version = rules_.version();
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    Packet& packet = packets[i];
    const FiveTuple key = canonical_tuple(packet);
    ForwarderCounters& counters = cell_for(packet.labels, key);
    ++counters.from_wire;
    ForwardAction action;
    if (packet.steering.valid_for(version)) {
      action = {ActionType::kDeliverToAttached,
                packet.steering.pinning.vnf_instance};
    } else {
      action = annotate(packet, key, counters);
    }
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
          cell_for(packet.labels, canonical_tuple(packet));
      ++counters.from_attached;
      ++counters.drops;
      return {ActionType::kDrop, kNoElement};
    }
    packet.labels = it->second;
    reaffixed = true;
  }

  const FiveTuple key = canonical_tuple(packet);
  ForwarderCounters& counters = cell_for(packet.labels, key);
  ++counters.from_attached;
  if (reaffixed) ++counters.label_reaffixed;

  std::optional<FlowEntry> entry = lookup(packet.labels, key);
  if (!entry) {
    // First packet of a connection entering from an attached ingress edge.
    ++counters.flow_misses;
    if (packet.direction == Direction::kReverse) {
      ++counters.drops;
      return {ActionType::kDrop, kNoElement};
    }
    const LoadBalanceRule* rule = rules_.find(packet.labels);
    if (rule == nullptr) {
      ++counters.drops;
      return {ActionType::kDrop, kNoElement};
    }
    FlowEntry fresh;
    fresh.vnf_instance = packet.arrival_source;   // the ingress edge
    fresh.next_forwarder = rule->next_forwarders.empty()
        ? kNoElement
        : rule->next_forwarders.pick(
              mix64(flow_selector(packet.labels, key)));
    fresh.prev_element = kNoElement;
    entry = table_.insert_if_absent(packet.labels, key, fresh);
  }

  ElementId target = packet.direction == Direction::kForward
      ? entry->next_forwarder
      : entry->prev_element;
  if (target == kNoElement && packet.direction == Direction::kForward) {
    // Drained next hop: re-pick from the current rule (same pure-function
    // selector — racing workers converge on one pinning).  An egress
    // forwarder keeps an empty next_forwarders rule, so terminal flows
    // still fall through to the drop below.
    const LoadBalanceRule* rule = rules_.find(packet.labels);
    if (rule != nullptr && !rule->next_forwarders.empty()) {
      FlowEntry updated = *entry;
      updated.next_forwarder = rule->next_forwarders.pick(
          mix64(flow_selector(packet.labels, key)));
      table_.insert(packet.labels, key, updated);
      target = updated.next_forwarder;
    }
  }
  if (target == kNoElement) {
    ++counters.drops;
    return {ActionType::kDrop, kNoElement};
  }
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
  // update_each installs fresh immutable entries through the epoch
  // domain, so lock-free readers racing a drain see either the old or
  // the new pinning, never a torn one.
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
