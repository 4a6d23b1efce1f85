// The global message bus (Section 6) and its full-mesh baseline (Fig. 9).
//
// A topic is one (publisher site, path); the bus keeps one TopicState per
// topic: its subscribers in subscription order, the subscribed sites in
// first-subscription order, and its retained payloads.  Subscription,
// retention and replay are written once, in MessageBus; a topology only
// decides how a publish fans out.
//
// Switchboard topology (ProxyBus): a message-queuing proxy at every site.
// Publishers publish to their own site's proxy; the subscribed sites are
// the subscription filter installed at the *publisher's* proxy (the
// publisher site is named in the topic).  A site with no subscribers for
// a topic receives nothing; a site with any subscribers receives exactly
// one copy over the shared inter-proxy connection, and its proxy fans out
// to the topic's subscribers there.
//
// Baseline (FullMeshBus): the publisher sends a separate wide-area copy to
// every individual subscriber — the per-subscriber copies queue at the
// publisher's egress, which is what blows up latency and drops messages
// under load in Fig. 9.
//
// Both run on the discrete-event simulator; the egress of each site is a
// finite-rate, finite-buffer queue.
//
// A publish holds its bytes once: it builds one immutable Message, and the
// closure of every copy (per site, per subscriber, or per replayed payload)
// shares it, the way the prototype's ZeroMQ fans one reference-counted
// buffer out (zmq_msg_copy).  A copy's closure is moved, not copied, down
// the send path (only a duplicated copy's extra send copies it) and becomes
// a simulator event only once the egress admitted it: a copy the egress
// drops allocates nothing.
//
// Fault tolerance: every wide-area copy passes through an optional
// `fault_hook` (a sim::FaultInjector adapter) that can drop, duplicate, or
// delay it in flight.  With `reliable_delivery` on, each wide-area copy is
// acknowledged by the receiving side; unacknowledged copies retransmit
// with a bounded retry budget (at-least-once, duplicates suppressed at the
// receiver).  Both features default off/null, leaving the Fig. 9 behavior
// bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bus/topic.hpp"
#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"

namespace switchboard::bus {

struct Message {
  std::string topic_path;
  std::string payload;
  sim::SimTime published_at{0};
};

using SubscriberCallback = std::function<void(const Message&)>;

struct BusConfig {
  std::size_t site_count{0};
  /// One-way message propagation delay between two sites.
  std::function<sim::Duration(SiteId, SiteId)> inter_site_delay;
  /// Serialization/processing time per wide-area message at a proxy egress.
  sim::Duration per_message_service{sim::microseconds(100)};
  /// Egress buffer (messages); sends beyond it are dropped.
  std::size_t egress_buffer{1024};
  /// Retain published control state per topic and replay it to late
  /// subscribers (control-plane topics carry configuration state, so a
  /// subscriber arriving after the publish must still converge — the
  /// prototype's bus replicates state the same way, Section 6).
  bool retain_messages{true};
  /// Per-wide-area-copy fault verdict (wired to sim::FaultInjector::
  /// on_message by the deployment).  Null means no injected faults.
  std::function<sim::MessageVerdict(SiteId from, SiteId to,
                                    const std::string& topic_path)>
      fault_hook;
  /// Acknowledged delivery for control topics: the receiving side acks
  /// each wide-area copy (a tiny control frame that bypasses the egress
  /// queue but is still subject to the fault hook, so partitions starve
  /// acks too); unacked copies retransmit after `ack_timeout`, at most
  /// `max_retransmits` times, then count as lost.  Off by default.
  bool reliable_delivery{false};
  sim::Duration ack_timeout{sim::from_ms(250.0)};
  std::size_t max_retransmits{3};
};

struct BusStats {
  std::uint64_t published{0};
  std::uint64_t wide_area_messages{0};
  std::uint64_t local_deliveries{0};
  /// Egress-buffer overflow drops (also broken out per topic below).
  std::uint64_t drops{0};
  /// Ordered map so per-topic accounting iterates deterministically.
  std::map<std::string, std::uint64_t> drops_by_topic;
  // Injected in-flight faults (the copy consumed an egress slot but was
  // dropped / duplicated / delayed by the fault hook).
  std::uint64_t faults_dropped{0};
  std::uint64_t faults_duplicated{0};
  std::uint64_t faults_delayed{0};
  // Reliable-delivery accounting.
  std::uint64_t acks{0};
  std::uint64_t retransmits{0};
  /// Reliable copies abandoned after the retry budget.
  std::uint64_t lost_messages{0};
  /// Reliable copies whose retransmits were cancelled because the
  /// receiving site crashed (abandon_retransmits_to).
  std::uint64_t abandoned_retransmits{0};
  /// Redundant deliveries suppressed at the receiver (at-least-once).
  std::uint64_t duplicate_deliveries{0};
  /// Publish-to-delivery latency (ms) over all deliveries.
  SampleStats delivery_latency_ms;
};

/// Shared egress-queue model for a site proxy.
class ProxyEgress {
 public:
  ProxyEgress(sim::Simulator& sim, const BusConfig& config)
      : sim_{sim}, config_{config} {}

  /// Attempts to enqueue a wide-area send: takes one serialization slot and
  /// returns the copy's arrival time at `to`, or nothing on buffer
  /// overflow.  The caller schedules the arrival, so a dropped copy never
  /// builds one.
  [[nodiscard]] std::optional<sim::SimTime> admit(SiteId from, SiteId to);

 private:
  sim::Simulator& sim_;
  const BusConfig& config_;
  sim::SimTime egress_free_at_{0};
};

/// Common interface so experiments can swap topologies.  The base owns
/// what both topologies share: one TopicState per topic, one egress per
/// site, subscription with retained replay, the one wide-area send path
/// (fault hook, drops, reliable delivery) and local delivery.
class MessageBus {
 public:
  virtual ~MessageBus() = default;

  /// Subscribes a callback running at `subscriber_site`.  The topic's
  /// retained state replays to this subscriber alone, one copy per payload
  /// through the publisher's egress.
  void subscribe(SiteId subscriber_site, const Topic& topic,
                 SubscriberCallback callback);

  /// Publishes from the topic's publisher site.
  virtual void publish(const Topic& topic, std::string payload) = 0;

  [[nodiscard]] const BusStats& stats() const { return stats_; }

  /// Cancels the retransmit timers of every unacknowledged reliable copy
  /// addressed to `site` and counts each as abandoned.  Called when the
  /// site *crashes* (fault injection): its proxy lost the subscription
  /// state that would consume the copy, so retrying against it is wasted
  /// wire traffic — without this, every pending copy burns its full retry
  /// budget against a dead site.  Not for mere suspicion: a partitioned
  /// site still holds its state, and retransmits are what re-converge it
  /// when the partition heals.
  void abandon_retransmits_to(SiteId site);

  /// Prefix-scoped variant for crashed *controller* targets: writes off
  /// only the pending reliable copies toward `site` whose topic path
  /// starts with `topic_prefix` (e.g. the replication stream toward a
  /// dead controller replica).  The rest of the site's traffic — routes,
  /// instance announcements — keeps its retry budget, because the site
  /// itself is still alive.  An empty prefix matches everything
  /// (equivalent to the single-argument overload).
  void abandon_retransmits_to(SiteId site, const std::string& topic_prefix);

  /// Reliable copies still awaiting an ack, a retry verdict, or reaping
  /// (tests: bounds retransmit-state growth).
  [[nodiscard]] std::size_t reliable_in_flight() const;

  /// Reliable entries currently tracked, finished or not (tests: proves
  /// finished entries are reaped instead of accumulating forever).
  [[nodiscard]] std::size_t reliable_tracked() const {
    const swb::MutexLock lock{reliable_mutex_};
    return reliable_.size();
  }

 protected:
  struct Subscriber {
    SiteId site;
    SubscriberCallback callback;
  };

  /// Everything the bus holds for one (publisher site, path).
  struct TopicState {
    /// Every subscriber, in subscription order.  Only ever appended to, so
    /// a copy in flight names its subscriber by index.
    std::vector<Subscriber> subscribers;
    /// The subscribed sites, each once, in first-subscription order: the
    /// subscription filter at the publisher's proxy.
    std::vector<SiteId> sites;
    /// The retained payloads, in the order of their latest publish, plus
    /// the position of each so that a republish is found without a scan.
    /// `position_of` is only probed, never iterated (lint rule D1); its
    /// keys view the list's strings, whose nodes never move.
    std::list<std::string> retained;
    std::unordered_map<std::string_view, std::list<std::string>::iterator>
        position_of;
  };

  MessageBus(sim::Simulator& sim, BusConfig config);

  /// Counts a publish and retains `payload` (identical payloads are stored
  /// once; a republished one moves to the end, so a replay always ends
  /// with the latest publish).  Returns the topic's state, or null when
  /// the bus holds none: nobody subscribed and nothing was retained.
  [[nodiscard]] const TopicState* record_publish(const Topic& topic,
                                                 const std::string& payload);

  /// One copy of a message from `from` to `to`: a local-queue delivery
  /// when both are the same site, else a wide-area copy through `from`'s
  /// egress honoring the fault hook, drop accounting, and (for
  /// non-transient topics) reliable delivery.  `deliver`, a closure that
  /// shares the publish's message, runs at `to` on arrival.  Defined in
  /// message_bus.cpp, where both topologies and `subscribe` call it.
  template <typename Deliver>
  void send_copy(SiteId from, SiteId to, const std::string& topic_path,
                 Deliver deliver);

  /// Hands `message` to one subscriber callback (delivery accounting).
  void deliver_to(const SubscriberCallback& callback, const Message& message);

  sim::Simulator& sim_;
  BusConfig config_;

 private:
  /// In-flight state of one reliable wide-area copy.  Entries are shared
  /// with the scheduled closures (in-flight wire copies and ack/retry
  /// timers may outlive the bus-side bookkeeping); the bus reaps finished
  /// entries on the next wide-area send instead of accumulating every
  /// copy ever sent.
  ///
  /// Guard: the mutable fields (delivered/acked/done/sends/retry) are
  /// protected by the enclosing bus's reliable_mutex_ — the analysis
  /// cannot express a guard that crosses from an element to its owning
  /// container, so this part of the contract is enforced by the lint
  /// guard rule + review rather than the compiler.  Delivery and
  /// subscriber callbacks are NEVER invoked under the lock (they publish
  /// back into the bus).
  struct ReliableMessage {
    SiteId from;
    SiteId to;
    std::string topic_path;
    std::function<void()> deliver;
    bool delivered{false};
    bool acked{false};
    /// Terminal: acked, gave up, or abandoned — eligible for reaping.
    bool done{false};
    std::size_t sends{0};
    sim::EventHandle retry{};
  };

  struct TopicHash {
    std::size_t operator()(const Topic& topic) const noexcept {
      return std::hash<std::string>{}(topic.path) ^
             (std::size_t{topic.publisher_site.value()} *
              0x9E3779B97F4A7C15ULL);
    }
  };

  /// Transient telemetry (kTransientPrefix, bus/topic.hpp) is never
  /// retained and never retransmitted, whatever the other knobs say.
  [[nodiscard]] static bool transient_topic(const std::string& topic_path) {
    return topic_path.starts_with(kTransientPrefix);
  }

  /// Egress-overflow accounting: total, per-topic, and a debug log line
  /// (previously these drops were silent).
  void count_egress_drop(SiteId from, SiteId to,
                         const std::string& topic_path);
  /// Sends one physical wire copy through `from`'s egress with the fault
  /// hook applied; returns true when the egress accepted (at least) one
  /// copy.  `arrival` is moved into the scheduled event; only a duplicate
  /// verdict's first send takes a copy of it.
  template <typename Arrival>
  bool wire_copy(SiteId from, SiteId to, const std::string& topic_path,
                 Arrival arrival);
  /// One (re)transmission attempt of a reliable copy + its retry timer.
  void reliable_attempt(const std::shared_ptr<ReliableMessage>& message);

  /// One egress queue per site, indexed by site id.
  std::vector<ProxyEgress> egress_;

  /// Leaf lock for the reliable-delivery tracker: no other lock is ever
  /// taken while it is held, and no user/delivery callback runs under it.
  mutable swb::Mutex reliable_mutex_;
  std::vector<std::shared_ptr<ReliableMessage>> reliable_
      SWB_GUARDED_BY(reliable_mutex_);

  /// Simulator-thread-owned like stats_.  Only probed, never iterated;
  /// topics are never erased, so a TopicState never moves.
  std::unordered_map<Topic, TopicState, TopicHash> topics_;

 protected:
  /// Simulator-thread-owned (every mutation happens inside an event
  /// callback); deliberately unguarded until the control plane itself
  /// goes multi-threaded.
  BusStats stats_;
};

/// One copy per subscribed site; the site's proxy fans it out to the
/// topic's subscribers there.
class ProxyBus final : public MessageBus {
 public:
  ProxyBus(sim::Simulator& sim, BusConfig config)
      : MessageBus{sim, std::move(config)} {}

  void publish(const Topic& topic, std::string payload) override;
};

/// One wide-area copy per subscriber.
class FullMeshBus final : public MessageBus {
 public:
  FullMeshBus(sim::Simulator& sim, BusConfig config)
      : MessageBus{sim, std::move(config)} {}

  void publish(const Topic& topic, std::string payload) override;
};

}  // namespace switchboard::bus
