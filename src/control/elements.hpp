// Registry of data-plane elements: forwarders, VNF instances, and edge
// instances, each with a globally unique ElementId.  Owned by the
// deployment; controllers create and look up elements here.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "dataplane/forwarder.hpp"

namespace switchboard::control {

enum class ElementType : std::uint8_t {
  kForwarder,
  kVnfInstance,
  kEdgeInstance,
};

struct ElementInfo {
  dataplane::ElementId id{dataplane::kNoElement};
  ElementType type{ElementType::kForwarder};
  SiteId site;
  /// kVnfInstance: which VNF this instance belongs to.
  VnfId vnf;
  /// kVnfInstance / kEdgeInstance: the forwarder it attaches to.
  dataplane::ElementId attached_forwarder{dataplane::kNoElement};
  /// Load-balancing weight published on the bus.
  double weight{1.0};
  /// kVnfInstance: packets/interval the instance can process (used by the
  /// runtime throughput model; <= 0 means unlimited).
  double capacity{0.0};
  /// False while crashed (fault injection): a down element neither
  /// processes packets nor emits heartbeats.  State survives restore.
  bool up{true};
};

class ElementRegistry {
 public:
  /// Creates a forwarder at a site.  Returns its element id.
  dataplane::ElementId create_forwarder(SiteId site,
                                        std::size_t flow_capacity = 4096);

  /// Creates a VNF instance attached to `forwarder`.
  dataplane::ElementId create_vnf_instance(SiteId site, VnfId vnf,
                                           dataplane::ElementId forwarder,
                                           double weight = 1.0,
                                           double capacity = 0.0);

  /// Creates an edge instance attached to `forwarder`.
  dataplane::ElementId create_edge_instance(SiteId site,
                                            dataplane::ElementId forwarder);

  [[nodiscard]] const ElementInfo& info(dataplane::ElementId id) const;
  [[nodiscard]] bool exists(dataplane::ElementId id) const {
    return id < elements_.size();
  }
  [[nodiscard]] std::size_t size() const { return elements_.size(); }

  /// The forwarder engine of a kForwarder element.
  [[nodiscard]] dataplane::Forwarder& forwarder(dataplane::ElementId id);
  [[nodiscard]] const dataplane::Forwarder& forwarder(
      dataplane::ElementId id) const;

  /// All forwarder elements at a site.
  [[nodiscard]] std::vector<dataplane::ElementId> forwarders_at(
      SiteId site) const;
  /// All VNF instances of `vnf` at `site`.
  [[nodiscard]] std::vector<dataplane::ElementId> vnf_instances_at(
      SiteId site, VnfId vnf) const;
  /// Every element at a site (any type), ascending id.
  [[nodiscard]] std::vector<dataplane::ElementId> elements_at(
      SiteId site) const;

  /// Marks an element up/down (fault injection).  Returns the previous
  /// state.
  bool set_up(dataplane::ElementId id, bool up);

 private:
  std::vector<ElementInfo> elements_;
  // Index parallel to elements_: engine for forwarders, null otherwise.
  std::vector<std::unique_ptr<dataplane::Forwarder>> engines_;
};

}  // namespace switchboard::control
