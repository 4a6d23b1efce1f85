// The global message bus (Section 6) and its full-mesh baseline (Fig. 9).
//
// Switchboard topology (ProxyBus): a message-queuing proxy at every site.
// Publishers publish to their own site's proxy; subscription filters are
// installed at the *publisher's* proxy (the publisher site is named in the
// topic).  A site with no subscribers for a topic receives nothing; a site
// with any subscribers receives exactly one copy over the shared
// inter-proxy connection, and its proxy fans out locally.
//
// Baseline (FullMeshBus): the publisher sends a separate wide-area copy to
// every individual subscriber — the per-subscriber copies queue at the
// publisher's egress, which is what blows up latency and drops messages
// under load in Fig. 9.
//
// Both run on the discrete-event simulator; the egress of each proxy is a
// finite-rate, finite-buffer queue.
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

  /// Attempts to enqueue a wide-area send; returns false on buffer
  /// overflow.  On success `deliver` runs at the arrival time at `to`.
  bool send(SiteId from, SiteId to, std::function<void()> deliver);

 private:
  sim::Simulator& sim_;
  const BusConfig& config_;
  sim::SimTime egress_free_at_{0};
};

/// Common interface so experiments can swap topologies.  The base owns
/// what both topologies share: the retained store, the one wide-area send
/// path (fault hook, drops, reliable delivery) and local delivery.
class MessageBus {
 public:
  virtual ~MessageBus() = default;

  /// Subscribes a callback running at `subscriber_site`.
  virtual void subscribe(SiteId subscriber_site, const Topic& topic,
                         SubscriberCallback callback) = 0;

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
  MessageBus(sim::Simulator& sim, BusConfig config);

  /// One copy of a message from `from` to `to`: a local-queue delivery
  /// when both are the same site, else a wide-area copy through `egress`
  /// honoring the fault hook, drop accounting, and (for non-transient
  /// topics) reliable delivery.  `deliver` runs at `to` on arrival.
  void send_copy(ProxyEgress& egress, SiteId from, SiteId to,
                 const std::string& topic_path, std::function<void()> deliver);

  /// Hands `message` to one subscriber callback (delivery accounting).
  void deliver_to(const SubscriberCallback& callback, const Message& message);

  /// Records `payload` as retained state of (publisher site, topic path).
  /// Identical payloads are stored once; a republished one moves to the
  /// end, so a replay always ends with the latest publish.
  void retain(const Topic& topic, const std::string& payload);

  /// Replays the retained state of `topic` to one late subscriber at
  /// `subscriber_site`, one copy per payload through the publisher's
  /// `egress`.
  void replay(ProxyEgress& egress, SiteId subscriber_site, const Topic& topic,
              const SubscriberCallback& callback);

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
    ProxyEgress* egress{nullptr};
    bool delivered{false};
    bool acked{false};
    /// Terminal: acked, gave up, or abandoned — eligible for reaping.
    bool done{false};
    std::size_t sends{0};
    sim::EventHandle retry{};
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
  /// Sends one physical wire copy with the fault hook applied; returns
  /// true when the egress accepted (at least) one copy.
  bool wire_copy(ProxyEgress& egress, SiteId from, SiteId to,
                 const std::string& topic_path,
                 const std::function<void()>& arrival);
  /// One (re)transmission attempt of a reliable copy + its retry timer.
  void reliable_attempt(const std::shared_ptr<ReliableMessage>& message);

  /// Leaf lock for the reliable-delivery tracker: no other lock is ever
  /// taken while it is held, and no user/delivery callback runs under it.
  mutable swb::Mutex reliable_mutex_;
  std::vector<std::shared_ptr<ReliableMessage>> reliable_
      SWB_GUARDED_BY(reliable_mutex_);

  /// The retained payloads of one (publisher site, topic path), in the
  /// order of their latest publish, plus the position of each so that a
  /// republish is found without a scan.  `position_of` is only probed,
  /// never iterated (lint rule D1); its keys view the list's strings,
  /// whose nodes never move.
  struct RetainedTopic {
    std::list<std::string> payloads;
    std::unordered_map<std::string_view, std::list<std::string>::iterator>
        position_of;
  };

  /// Simulator-thread-owned like stats_.
  std::map<std::pair<SiteId, std::string>, RetainedTopic> retained_;

 protected:
  /// Simulator-thread-owned (every mutation happens inside an event
  /// callback); deliberately unguarded until the control plane itself
  /// goes multi-threaded.
  BusStats stats_;
};

class ProxyBus final : public MessageBus {
 public:
  ProxyBus(sim::Simulator& sim, BusConfig config);

  void subscribe(SiteId subscriber_site, const Topic& topic,
                 SubscriberCallback callback) override;
  void publish(const Topic& topic, std::string payload) override;

 private:
  struct SiteProxy {
    /// Subscription filters installed at this (publisher-side) proxy:
    /// topic path -> subscriber sites (deduplicated).
    std::unordered_map<std::string, std::vector<SiteId>> filters;
    /// Local fan-out at this (subscriber-side) proxy.
    std::unordered_map<std::string, std::vector<SubscriberCallback>> locals;
    std::unique_ptr<ProxyEgress> egress;
  };

  void deliver_locally(SiteId site, const Message& message);

  std::vector<SiteProxy> proxies_;
};

class FullMeshBus final : public MessageBus {
 public:
  FullMeshBus(sim::Simulator& sim, BusConfig config);

  void subscribe(SiteId subscriber_site, const Topic& topic,
                 SubscriberCallback callback) override;
  void publish(const Topic& topic, std::string payload) override;

 private:
  struct Subscriber {
    SiteId site;
    SubscriberCallback callback;
  };

  std::unordered_map<std::string, std::vector<Subscriber>> subscribers_;
  std::vector<std::unique_ptr<ProxyEgress>> egress_;   // per publisher site
};

}  // namespace switchboard::bus
