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

std::optional<FlowEntry> Forwarder::pick(const Labels& labels, Side side,
                                         std::uint64_t hash) const {
  const LoadBalanceRule* rule = rules_.find(labels);
  if (rule == nullptr ||
      (side == Side::kWire && rule->vnf_instances.empty())) {
    return std::nullopt;
  }
  const std::uint64_t selector = mix64(selector_seed_ ^ hash);
  FlowEntry pinning;
  if (!rule->vnf_instances.empty()) {
    pinning.vnf_instance = rule->vnf_instances.pick(selector);
  }
  if (!rule->next_forwarders.empty()) {
    pinning.next_forwarder = rule->next_forwarders.pick(mix64(selector));
  }
  return pinning;
}

std::optional<FlowEntry> Forwarder::first_pinning(
    const Packet& packet, Side side, std::uint64_t hash,
    ForwarderCounters& counters) const {
  ++counters.flow_misses;
  std::optional<FlowEntry> pinning;
  if (packet.direction == Direction::kForward) {
    pinning = pick(packet.labels, side, hash);
  }
  if (!pinning) {
    drop(counters);
    return std::nullopt;
  }
  if (side == Side::kWire) {
    pinning->prev_element = packet.arrival_source;   // the previous hop
  } else {
    pinning->vnf_instance = packet.arrival_source;   // the ingress edge
  }
  return pinning;
}

ForwardAction Forwarder::resolve(const Packet& packet, Side side,
                                 const FiveTuple& key, std::uint64_t hash,
                                 ForwarderCounters& counters,
                                 std::optional<FlowEntry> entry) {
  std::optional<FlowEntry> pinning;   // this packet's one pick, once made
  if (!entry) {
    pinning = first_pinning(packet, side, hash, counters);
    if (!pinning) return ForwardAction{};
    // insert_if_absent: if another worker raced us to the first packet,
    // adopt its pinning so every packet of the flow sees one entry —
    // re-pinned below if it was drained between our miss and the insert.
    entry = table_.insert_if_absent(packet.labels, key, hash, *pinning);
  }
  const bool wire = side == Side::kWire;
  const bool forward = packet.direction == Direction::kForward;
  const ActionType type =
      wire ? ActionType::kDeliverToAttached : ActionType::kSendToForwarder;
  // Where this side sends the packet, aliasing the entry's field so the
  // re-pin below updates it in place.
  ElementId& target = wire      ? entry->vnf_instance
                      : forward ? entry->next_forwarder
                                : entry->prev_element;
  if (target != kNoElement) return {type, target};

  // Drained: re-pin from the current rule, by the side rules in the
  // header.  An egress forwarder's rule has no next hop, so its terminal
  // flows drop here; prev_element is kept, so the reverse path stays
  // symmetric; workers racing on one flow write identical entries.
  if (!wire && !forward) return drop(counters);
  if (!pinning) pinning = pick(packet.labels, side, hash);
  if (!pinning) return drop(counters);
  if (wire) entry->vnf_instance = pinning->vnf_instance;
  if (entry->next_forwarder == kNoElement) {
    entry->next_forwarder = pinning->next_forwarder;
  }
  if (target == kNoElement) return drop(counters);
  table_.insert(packet.labels, key, hash, *entry);
  return {type, target};
}

ForwardAction Forwarder::process_from_wire(const Packet& packet) {
  const FiveTuple key = canonical_tuple(packet);
  const std::uint64_t hash = flow_hash(packet.labels, key);
  ForwarderCounters& counters = cell_for(hash);
  ++counters.from_wire;
  return resolve(packet, Side::kWire, key, hash, counters,
                 table_.find(packet.labels, key, hash));
}

std::size_t Forwarder::process_batch(std::span<const Packet> packets,
                                     std::span<ForwardAction> actions) {
  SWB_CHECK(actions.empty() || actions.size() == packets.size())
      << "actions span must be empty or match the packet batch";
  // SoA pipeline: find_batch hashes + prefetches + probes a chunk under
  // one epoch pin; the act phase below then runs lock-free for live hits
  // and hands misses and drained pinnings to resolve() (which takes the
  // shard write lock, exactly like the per-packet path — so counters and
  // actions stay byte-identical).
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
        action = resolve(packet, Side::kWire, request.tuple, request.hash,
                         counters,
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
  const std::uint64_t hash = flow_hash(packet.labels, canonical_tuple(packet));
  ForwarderCounters& counters = cell_for(hash);
  ++counters.from_wire;
  const std::uint32_t epoch = rules_.version();
  if (!packet.steering.valid_for(epoch)) {
    // Missing or stale: affix the pinning the flow table would hold.
    const std::optional<FlowEntry> pinning =
        first_pinning(packet, Side::kWire, hash, counters);
    if (!pinning) return ForwardAction{};
    packet.steering = SteeringAnnotation{*pinning, epoch};
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
  return resolve(packet, Side::kAttached, key, hash, counters,
                 table_.find(packet.labels, key, hash));
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
