// Shared state handed to every controller: the simulator, the global
// message bus, the network model, the element registry, and the timing
// constants of control-plane operations.
#pragma once

#include "bus/message_bus.hpp"
#include "control/elements.hpp"
#include "model/network_model.hpp"
#include "sim/simulator.hpp"

namespace switchboard::control {

/// Processing/propagation delays of control operations.  Defaults are in
/// the range observed by the paper's prototype (Table 2 / Fig. 10a).
struct ControlTimings {
  /// One-way Global Switchboard <-> controller RPC.
  sim::Duration controller_rpc{sim::from_ms(15.0)};
  /// Controller-side processing of one request.
  sim::Duration controller_processing{sim::from_ms(5.0)};
  /// Wide-area route computation at Global Switchboard.
  sim::Duration route_compute{sim::from_ms(20.0)};
  /// Installing load-balancing rules at a forwarder.
  sim::Duration rule_install{sim::from_ms(30.0)};
  /// Setting up a wide-area tunnel endpoint at a forwarder.
  sim::Duration tunnel_setup{sim::from_ms(60.0)};
};

struct ControlContext {
  sim::Simulator& sim;
  bus::MessageBus& bus;
  model::NetworkModel& model;
  ElementRegistry& elements;
  ControlTimings timings{};

  /// Pseudo-VNF id used in bus topics for edge-service elements (the edge
  /// behaves as "the VNF before/after the chain" in rule wiring).
  [[nodiscard]] static VnfId edge_marker() { return VnfId{0x00FFFFFF}; }
};

}  // namespace switchboard::control
