#include "bus/message_bus.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::bus {
namespace {

/// Delay of a local (same-site) delivery.
constexpr sim::Duration kLocalDeliveryDelay = sim::microseconds(50);

}  // namespace

bool ProxyEgress::send(SiteId from, SiteId to, std::function<void()> deliver) {
  const sim::SimTime now = sim_.now();
  // Outstanding serialization backlog, in messages.
  const sim::SimTime backlog = std::max<sim::SimTime>(0, egress_free_at_ - now);
  const auto queued = static_cast<std::size_t>(
      backlog / std::max<sim::Duration>(1, config_.per_message_service));
  if (queued >= config_.egress_buffer) return false;

  const sim::SimTime start = std::max(now, egress_free_at_);
  egress_free_at_ = start + config_.per_message_service;
  const sim::Duration propagation = config_.inter_site_delay(from, to);
  sim_.schedule_at(egress_free_at_ + propagation, std::move(deliver));
  return true;
}

// ---------------------------------------------------------------- MessageBus

MessageBus::MessageBus(sim::Simulator& sim, BusConfig config)
    : sim_{sim}, config_{std::move(config)} {
  SWB_CHECK(config_.site_count > 0);
  SWB_CHECK(config_.inter_site_delay);
}

void MessageBus::count_egress_drop(SiteId from, SiteId to,
                                   const std::string& topic_path) {
  ++stats_.drops;
  ++stats_.drops_by_topic[topic_path];
  SB_LOG(kDebug) << "bus: egress overflow dropped " << topic_path << " "
                 << from << "->" << to;
}

bool MessageBus::wire_copy(ProxyEgress& egress, SiteId from, SiteId to,
                           const std::string& topic_path,
                           const std::function<void()>& arrival) {
  sim::MessageVerdict verdict;
  if (config_.fault_hook) verdict = config_.fault_hook(from, to, topic_path);

  // A dropped copy still leaves the egress (serialized, then lost in
  // flight); a delayed copy arrives late; a duplicated copy serializes —
  // and consumes egress buffer — twice.
  std::function<void()> wrapped = arrival;
  if (verdict.drop) {
    wrapped = [] {};
  } else if (verdict.extra_delay > 0) {
    wrapped = [this, extra = verdict.extra_delay, arrival] {
      sim_.schedule(extra, arrival);
    };
  }
  const std::size_t copies = (verdict.duplicate && !verdict.drop) ? 2u : 1u;
  bool accepted = false;
  for (std::size_t i = 0; i < copies; ++i) {
    if (egress.send(from, to, wrapped)) {
      accepted = true;
      ++stats_.wide_area_messages;
    } else {
      count_egress_drop(from, to, topic_path);
    }
  }
  if (accepted) {
    if (verdict.drop) ++stats_.faults_dropped;
    if (verdict.duplicate && !verdict.drop) ++stats_.faults_duplicated;
    if (verdict.extra_delay > 0 && !verdict.drop) ++stats_.faults_delayed;
  }
  return accepted;
}

void MessageBus::reliable_attempt(
    const std::shared_ptr<ReliableMessage>& message) {
  {
    const swb::MutexLock lock{reliable_mutex_};
    ++message->sends;
  }
  wire_copy(*message->egress, message->from, message->to, message->topic_path,
            [this, message] {
              bool first_delivery = false;
              {
                const swb::MutexLock lock{reliable_mutex_};
                first_delivery = !message->delivered;
                message->delivered = true;
              }
              if (first_delivery) {
                // Never under the lock: delivery fans out to subscriber
                // callbacks that publish back into the bus.
                message->deliver();
              } else {
                ++stats_.duplicate_deliveries;
              }
              // Delivery ack back to the sender: a tiny control frame
              // that bypasses the egress queue (pure propagation) but is
              // still exposed to the fault hook — a partition starves
              // acks in both directions.
              sim::MessageVerdict ack_verdict;
              if (config_.fault_hook) {
                ack_verdict =
                    config_.fault_hook(message->to, message->from,
                                       message->topic_path + "#ack");
              }
              if (ack_verdict.drop) return;
              sim_.schedule(
                  config_.inter_site_delay(message->to, message->from) +
                      ack_verdict.extra_delay,
                  [this, message] {
                    {
                      const swb::MutexLock lock{reliable_mutex_};
                      if (message->acked || message->done) return;
                      message->acked = true;
                      message->done = true;
                      // A non-done entry always has a live retry timer
                      // (reliable_attempt arms it in the same event that
                      // created or retransmitted the copy).
                      sim_.cancel(message->retry);
                    }
                    ++stats_.acks;
                  });
            });
  const sim::EventHandle retry =
      sim_.schedule(config_.ack_timeout, [this, message] {
        bool give_up = false;
        {
          const swb::MutexLock lock{reliable_mutex_};
          if (message->acked || message->done) return;
          if (message->sends > config_.max_retransmits) {
            message->done = true;
            give_up = true;
          }
        }
        if (give_up) {
          ++stats_.lost_messages;
          SB_LOG(kDebug) << "bus: gave up on " << message->topic_path << " "
                         << message->from << "->" << message->to << " after "
                         << message->sends << " sends";
          return;
        }
        ++stats_.retransmits;
        reliable_attempt(message);
      });
  {
    const swb::MutexLock lock{reliable_mutex_};
    message->retry = retry;
  }
}

void MessageBus::abandon_retransmits_to(SiteId site) {
  abandon_retransmits_to(site, "");
}

void MessageBus::abandon_retransmits_to(SiteId site,
                                        const std::string& topic_prefix) {
  std::uint64_t abandoned = 0;
  {
    const swb::MutexLock lock{reliable_mutex_};
    for (const std::shared_ptr<ReliableMessage>& message : reliable_) {
      if (message->done || message->to != site) continue;
      if (!topic_prefix.empty() &&
          !message->topic_path.starts_with(topic_prefix)) {
        continue;
      }
      message->done = true;
      ++abandoned;
      // Cancel the retry timer instead of letting it fire as a no-op: a
      // non-done entry always has one pending (see reliable_attempt), and
      // a crashed site can strand a window's worth of copies — leaving
      // their timers live kept the entries pinned until ack_timeout and
      // made pending_events() overcount.  Any wire copy already in flight
      // just arrives unacked.
      if (message->retry.valid()) {
        sim_.cancel(message->retry);
        message->retry = sim::EventHandle{};
      }
      SB_LOG(kDebug) << "bus: abandoning " << message->topic_path << " "
                     << message->from << "->" << message->to
                     << " (receiver crashed)";
    }
  }
  stats_.abandoned_retransmits += abandoned;
}

std::size_t MessageBus::reliable_in_flight() const {
  const swb::MutexLock lock{reliable_mutex_};
  std::size_t in_flight = 0;
  for (const std::shared_ptr<ReliableMessage>& message : reliable_) {
    if (!message->done) ++in_flight;
  }
  return in_flight;
}

void MessageBus::send_copy(ProxyEgress& egress, SiteId from, SiteId to,
                           const std::string& topic_path,
                           std::function<void()> deliver) {
  if (from == to) {
    // Same-site subscriber: local queue only.
    sim_.schedule(kLocalDeliveryDelay, std::move(deliver));
    return;
  }
  if (!config_.reliable_delivery || transient_topic(topic_path)) {
    wire_copy(egress, from, to, topic_path, deliver);
    return;
  }
  auto message = std::make_shared<ReliableMessage>();
  message->from = from;
  message->to = to;
  message->topic_path = topic_path;
  message->deliver = std::move(deliver);
  message->egress = &egress;
  {
    const swb::MutexLock lock{reliable_mutex_};
    // Reap finished copies (acked / given up / abandoned) so bookkeeping
    // is bounded by the copies actually outstanding, not lifetime traffic.
    std::erase_if(reliable_, [](const std::shared_ptr<ReliableMessage>& m) {
      return m->done;
    });
    reliable_.push_back(message);
  }
  reliable_attempt(message);
}

void MessageBus::deliver_to(const SubscriberCallback& callback,
                            const Message& message) {
  ++stats_.local_deliveries;
  stats_.delivery_latency_ms.add(sim::to_ms(sim_.now() - message.published_at));
  callback(message);
}

void MessageBus::retain(const Topic& topic, const std::string& payload) {
  if (!config_.retain_messages || transient_topic(topic.path) ||
      topic.path.starts_with(kReplicationPrefix)) {
    return;
  }
  RetainedTopic& retained = retained_[{topic.publisher_site, topic.path}];
  const auto found = retained.position_of.find(payload);
  if (found == retained.position_of.end()) {
    retained.payloads.push_back(payload);
    retained.position_of.emplace(retained.payloads.back(),
                                 std::prev(retained.payloads.end()));
  } else {
    // Republished: it is the topic's latest state again.
    retained.payloads.splice(retained.payloads.end(), retained.payloads,
                             found->second);
  }
}

void MessageBus::replay(ProxyEgress& egress, SiteId subscriber_site,
                        const Topic& topic,
                        const SubscriberCallback& callback) {
  const auto it = retained_.find({topic.publisher_site, topic.path});
  if (it == retained_.end()) return;
  for (const std::string& payload : it->second.payloads) {
    send_copy(egress, topic.publisher_site, subscriber_site, topic.path,
              [this, callback, message = Message{topic.path, payload,
                                                 sim_.now()}] {
                deliver_to(callback, message);
              });
  }
}

// ------------------------------------------------------------------ ProxyBus

ProxyBus::ProxyBus(sim::Simulator& sim, BusConfig config)
    : MessageBus{sim, std::move(config)} {
  proxies_.resize(config_.site_count);
  for (SiteProxy& proxy : proxies_) {
    proxy.egress = std::make_unique<ProxyEgress>(sim_, config_);
  }
}

void ProxyBus::subscribe(SiteId subscriber_site, const Topic& topic,
                         SubscriberCallback callback) {
  SWB_CHECK(subscriber_site.value() < proxies_.size());
  SWB_CHECK(topic.publisher_site.value() < proxies_.size());
  SiteProxy& publisher_proxy = proxies_[topic.publisher_site.value()];
  // Filter at the publisher's proxy: remember the subscriber *site*.
  auto& sites = publisher_proxy.filters[topic.path];
  if (std::find(sites.begin(), sites.end(), subscriber_site) == sites.end()) {
    sites.push_back(subscriber_site);
  }
  // Local fan-out at the subscriber's proxy; retained state replays to
  // the late subscriber only.
  proxies_[subscriber_site.value()].locals[topic.path].push_back(callback);
  replay(*publisher_proxy.egress, subscriber_site, topic, callback);
}

void ProxyBus::publish(const Topic& topic, std::string payload) {
  ++stats_.published;
  const SiteId origin = topic.publisher_site;
  SiteProxy& proxy = proxies_[origin.value()];
  retain(topic, payload);
  Message message{topic.path, std::move(payload), sim_.now()};

  const auto it = proxy.filters.find(topic.path);
  if (it == proxy.filters.end()) return;   // nobody anywhere subscribed
  // One copy per subscribed *site*, whatever the number of subscribers
  // there.
  for (const SiteId site : it->second) {
    send_copy(*proxy.egress, origin, site, topic.path,
              [this, site, message] { deliver_locally(site, message); });
  }
}

void ProxyBus::deliver_locally(SiteId site, const Message& message) {
  const auto it = proxies_[site.value()].locals.find(message.topic_path);
  if (it == proxies_[site.value()].locals.end()) return;
  for (const SubscriberCallback& callback : it->second) {
    deliver_to(callback, message);
  }
}

// --------------------------------------------------------------- FullMeshBus

FullMeshBus::FullMeshBus(sim::Simulator& sim, BusConfig config)
    : MessageBus{sim, std::move(config)} {
  egress_.resize(config_.site_count);
  for (auto& egress : egress_) {
    egress = std::make_unique<ProxyEgress>(sim_, config_);
  }
}

void FullMeshBus::subscribe(SiteId subscriber_site, const Topic& topic,
                            SubscriberCallback callback) {
  subscribers_[topic.path].push_back(Subscriber{subscriber_site, callback});
  replay(*egress_[topic.publisher_site.value()], subscriber_site, topic,
         callback);
}

void FullMeshBus::publish(const Topic& topic, std::string payload) {
  ++stats_.published;
  const SiteId origin = topic.publisher_site;
  retain(topic, payload);
  const auto it = subscribers_.find(topic.path);
  if (it == subscribers_.end()) return;
  Message message{topic.path, std::move(payload), sim_.now()};

  // A separate copy per *subscriber*: this is what overloads the
  // publisher's egress under fan-out.
  for (const Subscriber& sub : it->second) {
    send_copy(*egress_[origin.value()], origin, sub.site, topic.path,
              [this, callback = sub.callback, message] {
                deliver_to(callback, message);
              });
  }
}

}  // namespace switchboard::bus
