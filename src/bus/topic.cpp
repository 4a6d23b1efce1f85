#include "bus/topic.hpp"

namespace switchboard::bus {
namespace {

std::string prefix(ChainId chain, std::uint32_t egress_label, VnfId vnf) {
  return "/c" + std::to_string(chain.value()) + "/e" +
         std::to_string(egress_label) + "/vnf_" + std::to_string(vnf.value());
}

}  // namespace

Topic instances_topic(ChainId chain, std::uint32_t egress_label, VnfId vnf,
                      SiteId site) {
  return Topic{prefix(chain, egress_label, vnf) + "/site_" +
                   std::to_string(site.value()) + "_instances",
               site};
}

Topic forwarders_topic(ChainId chain, std::uint32_t egress_label, VnfId vnf,
                       SiteId site) {
  return Topic{prefix(chain, egress_label, vnf) + "/site_" +
                   std::to_string(site.value()) + "_forwarders",
               site};
}

Topic routes_topic(SiteId controller_site) {
  return Topic{"/chains/all", controller_site};
}

Topic health_topic(SiteId site) {
  return Topic{std::string{kTransientPrefix} + "site_" +
                   std::to_string(site.value()),
               site};
}

Topic anycast_topic(SiteId from, SiteId to) {
  return Topic{std::string{kTransientPrefix} + "anycast/" +
                   std::to_string(from.value()) + "_" +
                   std::to_string(to.value()),
               from};
}

Topic replication_stream_topic(std::uint32_t from_replica,
                               std::uint32_t to_replica,
                               SiteId publisher_site) {
  return Topic{std::string{kReplicationPrefix} + std::to_string(from_replica) +
                   "_" + std::to_string(to_replica),
               publisher_site};
}

Topic replication_ack_topic(std::uint32_t from_replica,
                            std::uint32_t to_replica, SiteId publisher_site) {
  return Topic{std::string{kReplicationPrefix} + "ack/" +
                   std::to_string(from_replica) + "_" +
                   std::to_string(to_replica),
               publisher_site};
}

Topic replica_health_topic(std::uint32_t replica, SiteId publisher_site) {
  return Topic{std::string{kTransientPrefix} + "ctl/replica_" +
                   std::to_string(replica),
               publisher_site};
}

}  // namespace switchboard::bus
