// The Switchboard forwarder: a cloud-agnostic data-plane proxy (Section 5).
//
// Deployment model (Fig. 5): VNF instances and edge instances *attach* to a
// forwarder (same L2 domain, forwarder as their gateway); forwarders reach
// each other over wide-area tunnels.  Per connection the forwarder pins
//   * the attached instance serving the flow (VNF instance, or the edge
//     instance at ingress/egress sites),
//   * the next-hop forwarder toward the egress,
//   * the previous-hop element toward the ingress (learned from the first
//     packet's arrival source),
// giving flow affinity and symmetric return (Section 5.3).  The paper
// describes these as two flow-table entries (forward + reverse); this
// implementation stores one entry carrying both pointers — the semantics
// are identical.
//
// Threading (the paper's per-core scaling, Fig. 8): one Forwarder can be
// driven by N worker threads RSS-style.  Packets hash by (labels,
// forward-direction 5-tuple) to a worker (worker_for()); each worker owns a
// disjoint set of flow-table shards.  Flow lookups are lock-free epoch
// reads (DESIGN.md §15) on every path; only flow-state writes (first
// packets, re-pins, teardown) take their shard's lock.  fig8's
// lock-per-lookup baseline wraps this read path from outside the library
// (tests/reference/lock_per_lookup.hpp).  process_from_wire /
// process_from_attached / process_batch keep the flow table consistent
// for any interleaving (per-shard writer locks, seqlocked slots).  The
// per-packet counters are exact when every packet goes to its
// worker_for() worker: each counter cell is written only by the worker
// owning its shard, with a plain load and store (RelaxedCounter).  A
// caller driving one shard from two threads can under-count, never tear
// memory (the cells stay std::atomic).  Honoring the worker mapping also
// keeps writers off each other's shard locks.
// Control-plane mutations (rules(), register_attachment()) are NOT
// synchronized against packet processing — install rules before starting
// workers or quiesce them first (the paper's make-before-break updates swap
// whole rules between packet bursts).  The RuleTable is one open-addressing
// array with each rule inline in its slot: an install or remove may move
// other rules, so a reader racing it could read a slot mid-move.  A
// packet reads it at most once, in pick().
//
// Every entry point hashes the packet's key once, looks the flow up, and
// hands the rest to one resolve() step: act on a live pinning, pin a
// first packet, or re-pin a drained one (process_batch acts on a live hit
// itself, in one line).  Load-balancing picks are a pure function of
// (forwarder seed, flow hash), made in one place (pick()) for every
// pinning — first packet, drained re-pin and annotation: the pinning a
// flow gets does not depend on packet interleaving, worker count or mode,
// which keeps the threaded data plane bit-identical to the
// single-threaded one (tested by forwarder_concurrency_test; the seeded
// action trace in dataplane_test pins what the forwarder does).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/stats.hpp"
#include "dataplane/load_balancer.hpp"
#include "dataplane/packet.hpp"
#include "dataplane/sharded_flow_table.hpp"

namespace switchboard::dataplane {

enum class ActionType : std::uint8_t {
  kDeliverToAttached,   // hand to the local VNF/edge instance
  kSendToForwarder,     // tunnel to another forwarder
  kDrop,
};

struct ForwardAction {
  ActionType type{ActionType::kDrop};
  ElementId element{kNoElement};

  friend constexpr bool operator==(const ForwardAction&,
                                   const ForwardAction&) = default;
};

/// Per-packet tallies.  Internally the forwarder stripes one cell per
/// flow-table shard, written only by the worker owning the shard
/// (worker_for()): no locked instruction and no cross-core cacheline
/// traffic on the hot path.  counters() aggregates the stripes on read;
/// read them quiesced (workers joined) for exact totals.
struct ForwarderCounters {
  RelaxedCounter from_wire{0};
  RelaxedCounter from_attached{0};
  RelaxedCounter flow_misses{0};     // first packets (created state)
  RelaxedCounter drops{0};
  RelaxedCounter label_reaffixed{0};
};

class Forwarder {
 public:
  /// `worker_count` sizes the shard space (shard_count_for_workers());
  /// worker_count == 1 yields the classic single-threaded forwarder.
  explicit Forwarder(ElementId id, std::size_t flow_capacity = 1024,
                     std::size_t worker_count = 1);

  [[nodiscard]] ElementId id() const { return id_; }
  [[nodiscard]] std::size_t worker_count() const { return worker_count_; }

  /// Load-balancing rules, installed by the Local Switchboard.
  [[nodiscard]] RuleTable& rules() { return rules_; }
  [[nodiscard]] const RuleTable& rules() const { return rules_; }

  /// Associates an attached instance with its chain labels, so labels can
  /// be re-affixed for VNFs that strip or do not support them (Sec. 5.3).
  void register_attachment(ElementId instance, const Labels& labels);

  /// RSS dispatch: the worker thread that should process this packet.
  /// Both directions of a connection map to the same worker (the key is
  /// the forward-direction 5-tuple), preserving flow affinity per worker.
  [[nodiscard]] std::size_t worker_for(const Packet& packet) const {
    const FiveTuple key = canonical_tuple(packet);
    return rss_worker(flow_hash(packet.labels, key), table_.shard_count(),
                      worker_count_);
  }

  /// Packet arriving over a wide-area tunnel (or from the ingress edge's
  /// wire side).  Delivers to the attached instance pinned for the flow.
  ForwardAction process_from_wire(const Packet& packet);

  /// Packet handed back by an attached instance; `packet.arrival_source`
  /// must be that instance's id.  Forwards toward the next (forward
  /// direction) or previous (reverse) element.
  ForwardAction process_from_attached(Packet& packet);

  /// Wire-side batch entry point for worker threads, a structure-of-arrays
  /// pipeline: hash every key in a chunk, prefetch every probe-start
  /// bucket, resolve all lookups under ONE epoch pin, then act — probe
  /// cache misses overlap instead of serializing.  Actions and counters
  /// are byte-identical to calling process_from_wire per packet (tested).
  /// When `actions` is non-empty it must match `packets` in size and
  /// receives the per-packet actions.  Returns the number of packets not
  /// dropped.
  std::size_t process_batch(std::span<const Packet> packets,
                            std::span<ForwardAction> actions = {});

  /// Annotation-mode (Active-Switching ablation) wire-side entry point:
  /// steering state rides in packet.steering instead of the flow table.
  /// A valid annotation (route_epoch == rules().version()) is honoured
  /// without touching any per-flow state; a missing or stale one is
  /// re-derived from the current rule — a pure function of the flow key,
  /// so re-picks converge on the pinning table mode would hold — and
  /// written back into the packet.  Reverse packets without a valid
  /// annotation drop (they need the forward path's affix), mirroring the
  /// table modes' unknown-reverse-flow drop.
  ForwardAction process_annotated(Packet& packet);

  /// Batch form of process_annotated (mutates packets in place to affix
  /// annotations).  Returns the number of packets not dropped.
  std::size_t process_batch_annotated(std::span<Packet> packets,
                                      std::span<ForwardAction> actions = {});

  /// The route epoch annotations are validated against (the rule table's
  /// current version).
  [[nodiscard]] std::uint32_t route_epoch() const { return rules_.version(); }

  /// Connection teardown: drop the flow state.
  bool complete_flow(const Labels& labels, const FiveTuple& tuple);

  /// OpenNF-style state transfer (Section 5.3): moves every flow pinned
  /// to attached instance `instance` into `target`'s flow table,
  /// re-pinning it to `replacement` (the equivalent instance behind the
  /// target forwarder).  Used for elastic scaling / draining a forwarder
  /// without breaking flow affinity.  Returns the number of flows moved.
  /// Control-plane operation: quiesce workers on both forwarders first.
  std::size_t migrate_flows(Forwarder& target, ElementId instance,
                            ElementId replacement);

  /// Failure drain (recovery path): invalidates every flow pinning that
  /// points at `dead` — as the attached instance serving the flow or as the
  /// pinned next-hop forwarder — by resetting the pointer to kNoElement.
  /// The entry itself survives (prev_element keeps the reverse path and
  /// symmetric return intact); the next forward-direction packet of each
  /// flow re-picks from the then-current rule.  Thread-safe (all-shard
  /// lock); returns the number of entries invalidated.
  std::size_t drain_element(ElementId dead);

  [[nodiscard]] ForwarderCounters counters() const;
  [[nodiscard]] const ShardedFlowTable& flow_table() const { return table_; }
  [[nodiscard]] ShardedFlowTable& flow_table() { return table_; }

 private:
  [[nodiscard]] FiveTuple canonical_tuple(const Packet& packet) const {
    return packet.direction == Direction::kForward ? packet.flow
                                                   : packet.flow.reversed();
  }

  /// The side a packet reached the forwarder from: the wire (a tunnel, or
  /// the ingress edge's wire side) or an attached instance handing it back.
  enum class Side : std::uint8_t { kWire, kAttached };

  /// Everything a packet does after its flow lookup (`entry`, looked up
  /// under `hash == flow_hash(packet.labels, key)`): act on a live
  /// pinning, pin a first packet, or re-pin a drained one.  The wire side
  /// delivers to the pinned instance, re-pins a drained instance in either
  /// direction and fills a drained next hop on the way; the attached side
  /// sends to the next hop (forward) or the learned previous hop (reverse)
  /// and re-picks only a forward packet's drained next hop.  Reads the
  /// rule table at most once, through pick().
  ForwardAction resolve(const Packet& packet, Side side, const FiveTuple& key,
                        std::uint64_t hash, ForwarderCounters& counters,
                        std::optional<FlowEntry> entry);

  /// First packet of a flow at this forwarder — a table miss, or no valid
  /// annotation: counts the miss and returns the flow's pinning, with the
  /// arrival source as its previous hop (wire) or as its attached ingress
  /// edge instance (attached).  A reverse packet (it needs state the
  /// forward direction created) or a flow no rule serves counts a drop and
  /// gets nothing.
  std::optional<FlowEntry> first_pinning(const Packet& packet, Side side,
                                         std::uint64_t hash,
                                         ForwarderCounters& counters) const;

  /// The one rule read and the one pick: the attached instance and the
  /// next hop the current rule for `labels` gives the flow hashing to
  /// `hash` (kNoElement for an empty set), or nullopt when no rule serves
  /// `side` — a wire-side pinning needs at least one instance.  A pure
  /// function of (forwarder seed, flow hash, rule), so pinning is
  /// independent of packet order, thread count and racing first packets,
  /// and annotation picks equal table picks by construction.
  [[nodiscard]] std::optional<FlowEntry> pick(const Labels& labels, Side side,
                                              std::uint64_t hash) const;

  /// One counter stripe, padded to its own cacheline so the per-packet
  /// bumps of different workers never share a line.
  struct alignas(64) CounterCell {
    ForwarderCounters counters;
  };

  /// The stripe for a packet whose flow hashes to `hash`: the cell of
  /// the shard owning the flow, so the worker_for() worker is its writer.
  [[nodiscard]] ForwarderCounters& cell_for(std::uint64_t hash) {
    return counter_cells_[rss_shard(hash, counter_cells_.size())].counters;
  }

  // Concurrency contract (see DESIGN.md §14): table_ carries its own
  // per-shard swb::Mutex guards; counter_cells_ are single-writer relaxed
  // atomics (each written by its shard's worker; quiesce to read a
  // consistent set); selector_seed_ is immutable after construction;
  // rules_ (one slot array, rules inline) and attachment_labels_ are
  // *externally synchronized* — written only while workers are quiesced
  // (make-before-break rule swaps), so they deliberately carry no guard
  // for the read-mostly packet path.
  ElementId id_;
  std::size_t worker_count_;
  ShardedFlowTable table_;
  RuleTable rules_;
  std::vector<CounterCell> counter_cells_;   // one per shard
  std::uint64_t selector_seed_;
  std::unordered_map<ElementId, Labels> attachment_labels_;
};

}  // namespace switchboard::dataplane
