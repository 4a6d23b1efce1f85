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

std::optional<sim::SimTime> ProxyEgress::admit(SiteId from, SiteId to) {
  const sim::SimTime now = sim_.now();
  // Outstanding serialization backlog, in messages.
  const sim::SimTime backlog = std::max<sim::SimTime>(0, egress_free_at_ - now);
  const auto queued = static_cast<std::size_t>(
      backlog / std::max<sim::Duration>(1, config_.per_message_service));
  if (queued >= config_.egress_buffer) return std::nullopt;

  const sim::SimTime start = std::max(now, egress_free_at_);
  egress_free_at_ = start + config_.per_message_service;
  return egress_free_at_ + config_.inter_site_delay(from, to);
}

// ---------------------------------------------------------------- MessageBus

MessageBus::MessageBus(sim::Simulator& sim, BusConfig config)
    : sim_{sim},
      config_{std::move(config)},
      egress_(config_.site_count, ProxyEgress{sim_, config_}) {
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

template <typename Arrival>
bool MessageBus::wire_copy(SiteId from, SiteId to,
                           const std::string& topic_path, Arrival arrival) {
  sim::MessageVerdict verdict;
  if (config_.fault_hook) verdict = config_.fault_hook(from, to, topic_path);

  bool accepted = false;
  const auto send = [&](auto&& deliver) {
    const std::optional<sim::SimTime> at = egress_[from.value()].admit(from, to);
    if (!at) {
      count_egress_drop(from, to, topic_path);
      return;
    }
    accepted = true;
    ++stats_.wide_area_messages;
    sim_.schedule_at(*at, std::forward<decltype(deliver)>(deliver));
  };
  // A dropped copy still leaves the egress (serialized, then lost in
  // flight); a delayed copy arrives late; a duplicated copy serializes —
  // and consumes egress buffer — twice, its first send a copy of the
  // closure and its second the closure itself.
  const bool duplicate = verdict.duplicate && !verdict.drop;
  if (verdict.drop) {
    send([] {});
  } else if (verdict.extra_delay > 0) {
    auto delayed = [this, extra = verdict.extra_delay,
                    arrival = std::move(arrival)]() mutable {
      sim_.schedule(extra, std::move(arrival));
    };
    if (duplicate) send(delayed);
    send(std::move(delayed));
  } else {
    if (duplicate) send(arrival);
    send(std::move(arrival));
  }
  if (accepted) {
    if (verdict.drop) ++stats_.faults_dropped;
    if (duplicate) ++stats_.faults_duplicated;
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
  wire_copy(message->from, message->to, message->topic_path,
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

template <typename Deliver>
void MessageBus::send_copy(SiteId from, SiteId to,
                           const std::string& topic_path, Deliver deliver) {
  if (from == to) {
    // Same-site subscriber: local queue only.
    sim_.schedule(kLocalDeliveryDelay, std::move(deliver));
    return;
  }
  if (!config_.reliable_delivery || transient_topic(topic_path)) {
    wire_copy(from, to, topic_path, std::move(deliver));
    return;
  }
  auto message = std::make_shared<ReliableMessage>();
  message->from = from;
  message->to = to;
  message->topic_path = topic_path;
  message->deliver = std::move(deliver);
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

void MessageBus::subscribe(SiteId subscriber_site, const Topic& topic,
                           SubscriberCallback callback) {
  SWB_CHECK(subscriber_site.value() < config_.site_count);
  SWB_CHECK(topic.publisher_site.value() < config_.site_count);
  TopicState& state = topics_[topic];
  if (std::find(state.sites.begin(), state.sites.end(), subscriber_site) ==
      state.sites.end()) {
    state.sites.push_back(subscriber_site);
  }
  // A replayed copy names the new subscriber by the index it takes below;
  // no copy arrives before then.
  const std::size_t index = state.subscribers.size();
  for (const std::string& payload : state.retained) {
    send_copy(topic.publisher_site, subscriber_site, topic.path,
              [this, state = &state, index,
               message = std::make_shared<const Message>(
                   Message{topic.path, payload, sim_.now()})] {
                deliver_to(state->subscribers[index].callback, *message);
              });
  }
  state.subscribers.push_back(Subscriber{subscriber_site, std::move(callback)});
}

const MessageBus::TopicState* MessageBus::record_publish(
    const Topic& topic, const std::string& payload) {
  ++stats_.published;
  if (!config_.retain_messages || transient_topic(topic.path) ||
      topic.path.starts_with(kReplicationPrefix)) {
    const auto it = topics_.find(topic);
    return it == topics_.end() ? nullptr : &it->second;
  }
  TopicState& state = topics_[topic];
  const auto found = state.position_of.find(payload);
  if (found == state.position_of.end()) {
    state.retained.push_back(payload);
    state.position_of.emplace(state.retained.back(),
                              std::prev(state.retained.end()));
  } else {
    // Republished: it is the topic's latest state again.
    state.retained.splice(state.retained.end(), state.retained,
                          found->second);
  }
  return &state;
}

// ------------------------------------------------------------------ ProxyBus

void ProxyBus::publish(const Topic& topic, std::string payload) {
  const TopicState* state = record_publish(topic, payload);
  if (state == nullptr) return;
  const auto message = std::make_shared<const Message>(
      Message{topic.path, std::move(payload), sim_.now()});
  for (const SiteId site : state->sites) {
    send_copy(topic.publisher_site, site, topic.path,
              [this, state, site, message] {
                // The subscribers at `site` as the copy arrives, by index:
                // a callback may subscribe.
                const std::vector<Subscriber>& subscribers = state->subscribers;
                for (std::size_t i = 0, n = subscribers.size(); i < n; ++i) {
                  if (subscribers[i].site == site) {
                    deliver_to(subscribers[i].callback, *message);
                  }
                }
              });
  }
}

// --------------------------------------------------------------- FullMeshBus

void FullMeshBus::publish(const Topic& topic, std::string payload) {
  const TopicState* state = record_publish(topic, payload);
  if (state == nullptr) return;
  const auto message = std::make_shared<const Message>(
      Message{topic.path, std::move(payload), sim_.now()});
  // A separate copy per *subscriber*: this is what overloads the
  // publisher's egress under fan-out.
  for (std::size_t i = 0, n = state->subscribers.size(); i < n; ++i) {
    send_copy(topic.publisher_site, state->subscribers[i].site, topic.path,
              [this, state, i, message] {
                deliver_to(state->subscribers[i].callback, *message);
              });
  }
}

}  // namespace switchboard::bus
