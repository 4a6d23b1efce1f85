#include "control/elements.hpp"

#include "common/check.hpp"

namespace switchboard::control {

dataplane::ElementId ElementRegistry::create_forwarder(
    SiteId site, std::size_t flow_capacity) {
  const auto id = static_cast<dataplane::ElementId>(elements_.size());
  ElementInfo info;
  info.id = id;
  info.type = ElementType::kForwarder;
  info.site = site;
  elements_.push_back(info);
  engines_.push_back(std::make_unique<dataplane::Forwarder>(id, flow_capacity));
  return id;
}

dataplane::ElementId ElementRegistry::create_vnf_instance(
    SiteId site, VnfId vnf, dataplane::ElementId forwarder, double weight,
    double capacity) {
  SWB_CHECK(exists(forwarder));
  SWB_CHECK(elements_[forwarder].type == ElementType::kForwarder);
  const auto id = static_cast<dataplane::ElementId>(elements_.size());
  ElementInfo info;
  info.id = id;
  info.type = ElementType::kVnfInstance;
  info.site = site;
  info.vnf = vnf;
  info.attached_forwarder = forwarder;
  info.weight = weight;
  info.capacity = capacity;
  elements_.push_back(info);
  engines_.push_back(nullptr);
  return id;
}

dataplane::ElementId ElementRegistry::create_edge_instance(
    SiteId site, dataplane::ElementId forwarder) {
  SWB_CHECK(exists(forwarder));
  SWB_CHECK(elements_[forwarder].type == ElementType::kForwarder);
  const auto id = static_cast<dataplane::ElementId>(elements_.size());
  ElementInfo info;
  info.id = id;
  info.type = ElementType::kEdgeInstance;
  info.site = site;
  info.attached_forwarder = forwarder;
  elements_.push_back(info);
  engines_.push_back(nullptr);
  return id;
}

const ElementInfo& ElementRegistry::info(dataplane::ElementId id) const {
  SWB_CHECK(exists(id));
  return elements_[id];
}

dataplane::Forwarder& ElementRegistry::forwarder(dataplane::ElementId id) {
  SWB_CHECK(exists(id));
  SWB_CHECK(engines_[id] != nullptr);
  return *engines_[id];
}

const dataplane::Forwarder& ElementRegistry::forwarder(
    dataplane::ElementId id) const {
  SWB_CHECK(exists(id));
  SWB_CHECK(engines_[id] != nullptr);
  return *engines_[id];
}

std::vector<dataplane::ElementId> ElementRegistry::forwarders_at(
    SiteId site) const {
  std::vector<dataplane::ElementId> result;
  for (const ElementInfo& info : elements_) {
    if (info.type == ElementType::kForwarder && info.site == site) {
      result.push_back(info.id);
    }
  }
  return result;
}

std::vector<dataplane::ElementId> ElementRegistry::elements_at(
    SiteId site) const {
  std::vector<dataplane::ElementId> result;
  for (const ElementInfo& info : elements_) {
    if (info.site == site) result.push_back(info.id);
  }
  return result;
}

bool ElementRegistry::set_up(dataplane::ElementId id, bool up) {
  SWB_CHECK(exists(id));
  const bool was = elements_[id].up;
  elements_[id].up = up;
  return was;
}

std::vector<dataplane::ElementId> ElementRegistry::vnf_instances_at(
    SiteId site, VnfId vnf) const {
  std::vector<dataplane::ElementId> result;
  for (const ElementInfo& info : elements_) {
    if (info.type == ElementType::kVnfInstance && info.site == site &&
        info.vnf == vnf) {
      result.push_back(info.id);
    }
  }
  return result;
}

}  // namespace switchboard::control
