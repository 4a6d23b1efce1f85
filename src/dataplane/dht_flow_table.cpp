#include "dataplane/dht_flow_table.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace switchboard::dataplane {

DhtFlowTable::DhtFlowTable(std::size_t node_count,
                           std::size_t virtual_nodes_per_node) {
  SWB_CHECK(node_count >= 2);
  SWB_CHECK(virtual_nodes_per_node >= 1);
  shards_.reserve(node_count);
  alive_.assign(node_count, true);
  for (std::size_t n = 0; n < node_count; ++n) {
    shards_.push_back(std::make_unique<ShardedFlowTable>(1024, 4));
    for (std::size_t v = 0; v < virtual_nodes_per_node; ++v) {
      ring_.push_back(RingPoint{
          mix64(0xD147ull << 32 | (n << 8) | v),
          static_cast<std::uint32_t>(n)});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const RingPoint& a, const RingPoint& b) {
              return a.hash < b.hash;
            });
}

std::vector<std::size_t> DhtFlowTable::owners(std::uint64_t key_hash) const {
  std::vector<std::size_t> result;
  const auto start = std::lower_bound(
      ring_.begin(), ring_.end(), key_hash,
      [](const RingPoint& p, std::uint64_t h) { return p.hash < h; });
  const std::size_t begin =
      static_cast<std::size_t>(start - ring_.begin()) % ring_.size();
  for (std::size_t i = 0; i < ring_.size() && result.size() < 2; ++i) {
    const std::uint32_t node = ring_[(begin + i) % ring_.size()].node;
    if (!alive_[node]) continue;
    if (std::find(result.begin(), result.end(), node) == result.end()) {
      result.push_back(node);
    }
  }
  return result;
}

void DhtFlowTable::insert(const Labels& labels, const FiveTuple& tuple,
                          const FlowEntry& entry) {
  const std::uint64_t hash = flow_hash(labels, tuple);
  for (const std::size_t node : owners(hash)) {
    shards_[node]->insert(labels, tuple, hash, entry);
  }
}

std::optional<FlowEntry> DhtFlowTable::find(const Labels& labels,
                                            const FiveTuple& tuple) const {
  const std::uint64_t hash = flow_hash(labels, tuple);
  for (const std::size_t node : owners(hash)) {
    if (const std::optional<FlowEntry> entry =
            shards_[node]->find(labels, tuple, hash)) {
      return entry;
    }
  }
  return std::nullopt;
}

bool DhtFlowTable::erase(const Labels& labels, const FiveTuple& tuple) {
  bool erased = false;
  for (const std::size_t node : owners(flow_hash(labels, tuple))) {
    erased |= shards_[node]->erase(labels, tuple);
  }
  return erased;
}

void DhtFlowTable::fail_node(std::size_t node) {
  SWB_CHECK(node < shards_.size());
  if (!alive_[node]) return;
  alive_[node] = false;
  shards_[node]->clear();   // the node's state is gone
  re_replicate();
}

void DhtFlowTable::recover_node(std::size_t node) {
  SWB_CHECK(node < shards_.size());
  if (alive_[node]) return;
  alive_[node] = true;
  re_replicate();
}

bool DhtFlowTable::node_alive(std::size_t node) const {
  SWB_CHECK(node < shards_.size());
  return alive_[node];
}

std::size_t DhtFlowTable::live_node_count() const {
  std::size_t count = 0;
  for (const bool a : alive_) count += a ? 1 : 0;
  return count;
}

std::size_t DhtFlowTable::shard_size(std::size_t node) const {
  SWB_CHECK(node < shards_.size());
  return shards_[node]->size();
}

std::size_t DhtFlowTable::total_flows() const {
  // Count distinct keys by visiting every shard and asking the ring who
  // the primary is; count each key only at its primary.
  std::size_t total = 0;
  for (std::size_t n = 0; n < shards_.size(); ++n) {
    if (!alive_[n]) continue;
    shards_[n]->for_each([&](const Labels& labels, const FiveTuple& tuple,
                             const FlowEntry&) {
      const auto current = owners(flow_hash(labels, tuple));
      if (!current.empty() && current.front() == n) ++total;
    });
  }
  return total;
}

void DhtFlowTable::re_replicate() {
  // Re-home every entry so each key again lives on its (new) primary and
  // successor, and nowhere else.  A production system would stream only
  // affected ranges; correctness is what matters here.
  struct Pending {
    Labels labels;
    FiveTuple tuple;
    FlowEntry entry;
  };
  std::vector<Pending> all;
  for (std::size_t n = 0; n < shards_.size(); ++n) {
    if (!alive_[n]) continue;
    shards_[n]->for_each([&](const Labels& labels, const FiveTuple& tuple,
                             const FlowEntry& entry) {
      all.push_back(Pending{labels, tuple, entry});
    });
    shards_[n]->clear();
  }
  for (const Pending& p : all) {
    insert(p.labels, p.tuple, p.entry);   // dedupes via overwrite
  }
#ifndef NDEBUG
  check_invariants();
#endif
}

void DhtFlowTable::check_invariants() const {
  SWB_CHECK_EQ(alive_.size(), shards_.size());
  SWB_CHECK_EQ(ring_.size() % shards_.size(), 0u)
      << "virtual nodes must cover nodes evenly";
  for (std::size_t i = 1; i < ring_.size(); ++i) {
    SWB_CHECK_LE(ring_[i - 1].hash, ring_[i].hash) << "ring not sorted";
  }
  std::vector<bool> on_ring(shards_.size(), false);
  for (const RingPoint& point : ring_) {
    SWB_CHECK_LT(point.node, shards_.size());
    on_ring[point.node] = true;
  }
  for (std::size_t n = 0; n < shards_.size(); ++n) {
    SWB_CHECK(on_ring[n]) << "node " << n << " has no ring points";
  }

  for (std::size_t n = 0; n < shards_.size(); ++n) {
    shards_[n]->check_invariants();
    if (!alive_[n]) {
      SWB_CHECK_EQ(shards_[n]->size(), 0u)
          << "failed node " << n << " still holds entries";
    }
  }

  // Replication: each key sits on exactly its owner set.  (Both directions
  // matter: a missing replica loses affinity on the next failure; a stale
  // copy on a non-owner serves outdated pinning after rule changes.)
  // Snapshot each node's keys first: a node's own shard locks are held
  // during its for_each, and probing the node's table from inside the
  // visit would re-take them.
  struct Held {
    std::size_t node;
    Labels labels;
    FiveTuple tuple;
  };
  std::vector<Held> held;
  for (std::size_t n = 0; n < shards_.size(); ++n) {
    if (!alive_[n]) continue;
    shards_[n]->for_each(
        [&](const Labels& labels, const FiveTuple& tuple, const FlowEntry&) {
          held.push_back(Held{n, labels, tuple});
        });
  }
  for (const Held& h : held) {
    const auto owner_set = owners(flow_hash(h.labels, h.tuple));
    bool is_owner = false;
    for (const std::size_t owner : owner_set) {
      is_owner |= owner == h.node;
      SWB_CHECK(shards_[owner]->find(h.labels, h.tuple).has_value())
          << "owner " << owner << " lacks a replica";
    }
    SWB_CHECK(is_owner)
        << "node " << h.node << " holds a key it does not own";
  }
}

}  // namespace switchboard::dataplane
