#include "reference/snapshot_reference.hpp"

namespace switchboard::control {

std::vector<std::string> snapshot_reference(const ControllerState& state) {
  std::vector<std::string> lines;
  lines.reserve(2 + 3 * state.chains.size() + state.dead_pools.size() +
                2 * state.inflight.size());
  lines.push_back(encode_record(EpochRecord{state.epoch}));
  lines.push_back(encode_record(NextRouteRecord{state.next_route_id}));
  for (const ChainRecord& chain : state.chains) {
    lines.push_back(encode_record(chain));
    for (const RouteRecord& route : chain.routes) {
      lines.push_back(
          encode_record(BeginRecord{chain.id, route.id, route.vnf_sites}));
      lines.push_back(encode_record(CommitRecord{chain.id, route.id}));
    }
  }
  for (const auto& [pool, capacity] : state.dead_pools) {
    lines.push_back(encode_record(
        PoolDownRecord{VnfId{pool.first}, SiteId{pool.second}, capacity}));
  }
  for (const auto& [key, round] : state.inflight) {
    const ChainId chain{key.first};
    const RouteId route{key.second};
    lines.push_back(encode_record(BeginRecord{chain, route, round.vnf_sites}));
    if (round.prepared) {
      lines.push_back(encode_record(PrepRecord{chain, route}));
    }
  }
  return lines;
}

}  // namespace switchboard::control
